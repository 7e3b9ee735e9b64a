"""End-to-end fault-tolerance acceptance tests and the dispatch guard.

* **chaos** — over three fault seeds, a pooled campaign hit by a worker
  crash, a transient failure, a hang past its job timeout and a corrupt
  store line completes, quarantines the corruption, and recovers every
  sample bit-identical to a clean serial run;
* **one dispatch path** — the pool is handed the plain ``run_job`` and the
  job, and store records differ from the v1 encoding only by the mandated
  ``schema``/``crc`` fields.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import Future

import pytest

from repro.campaign.campaign import Campaign, aggregate_by_label
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.store import ArtifactStore
from repro.platform.presets import cba_config, rp_config

JOB_TIMEOUT = 1.0


def _grid(workload):
    """RP vs CBA max-contention, four single-run jobs each."""
    jobs = []
    for label, config in (("chaos/RP", rp_config()), ("chaos/CBA", cba_config())):
        jobs += seed_block_jobs(
            label, "max_contention", seed=2017, num_runs=4,
            workload=workload, config=config, max_cycles=300_000,
        )
    return jobs


class _DispatchRecorder(SerialExecutor):
    """Serial executor that records the IDs of the jobs it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatched: list[str] = []

    def execute(self, jobs):
        self.dispatched += [job.job_id for job in jobs]
        yield from super().execute(jobs)


@pytest.mark.parametrize("fault_seed", [2017, 2018, 2019])
def test_faulty_campaign_recovers_every_sample(tiny_workload, tmp_path, faults, fault_seed):
    """The seed ranks the IDs of the jobs the campaign dispatches (the
    synthesised RP-ISO sources the contention jobs are replayed from and
    one simulated check per column) by a seeded hash; the first three get
    a crash, a transient failure and a hang, and the store a corrupt line."""
    jobs = _grid(tiny_workload)
    recorder = _DispatchRecorder()
    reference = aggregate_by_label(jobs, Campaign(executor=recorder).run(jobs))
    ranked = sorted(
        recorder.dispatched,
        key=lambda job_id: hashlib.blake2b(f"{fault_seed}:{job_id}".encode()).digest(),
    )
    plan = dict(zip(ranked, ([faults.CRASH], [faults.FAIL], [faults.hang(JOB_TIMEOUT)])))
    executor = faults.Executor(2, plan, retries=2, job_timeout=JOB_TIMEOUT)
    path = tmp_path / "chaos.jsonl"
    store = faults.Store(path)

    started = time.monotonic()
    campaign = Campaign(executor=executor, store=store)
    campaign.run(jobs)
    # The hang sleeps 10x the job timeout: only its deadline ends it sooner.
    assert time.monotonic() - started < 10 * JOB_TIMEOUT

    assert executor.injected_all and store.injected_lines == 1
    report = campaign.last_report
    assert report.failures == ()  # no job quarantined as poison
    assert report.worker_crashes >= 1 and report.timeouts >= 1 and report.retries >= 2
    recovered_store = ArtifactStore(path)
    recovered = {result.job_id: result for result in recovered_store.results()}
    assert recovered_store.quarantined_lines >= store.injected_lines
    assert len(recovered) == len(jobs)
    for label, runs in aggregate_by_label(jobs, recovered).items():
        assert runs.samples.tobytes() == reference[label].samples.tobytes()


class _RecordingPool:
    """In-process stand-in for the process pool: runs each submitted call at
    once and records what the executor submitted."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def submit(self, fn, *args):
        self.calls.append((fn, *args))
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _RecordingExecutor(ParallelExecutor):
    def _build_pool(self):
        self.pool = _RecordingPool()
        return self.pool


def test_dispatch_submits_the_plain_run_job(tiny_workload):
    """Structural guard: the pool is handed ``run_job`` and the job itself,
    with retries and a job timeout configured or not."""
    jobs = _grid(tiny_workload)[:3]
    reference = {job.job_id: run_job(job).samples for job in jobs}
    for executor in (
        _RecordingExecutor(max_workers=2),
        _RecordingExecutor(max_workers=2, retries=2, job_timeout=60.0),
    ):
        results = {r.job_id: r.samples for r in executor.execute(jobs)}
        assert results == reference
        assert executor.pool.calls == [(run_job, job) for job in jobs]


def test_clean_runs_report_clean_resilience(tiny_workload, tmp_path):
    campaign = Campaign(
        executor=ParallelExecutor(max_workers=2),
        store=ArtifactStore(tmp_path / "store.jsonl"),
    )
    campaign.run(_grid(tiny_workload))
    report = campaign.last_report
    assert report.clean
    assert report.retries == 0
    assert report.worker_crashes == 0
    assert not report.degraded
    assert report.quarantined_store_lines == 0


def test_store_records_differ_from_v1_only_by_schema_and_crc(tiny_workload, tmp_path):
    """The payload encoding is untouched by the hardening: stripping the two
    mandated fields yields byte-for-byte the pre-resilience v1 line."""
    result = run_job(_grid(tiny_workload)[0])
    path = tmp_path / "store.jsonl"
    ArtifactStore(path).put(result)

    (line,) = path.read_text().splitlines()
    record = json.loads(line)
    assert set(record) - set(result.to_dict()) == {"schema", "crc"}
    record.pop("schema")
    record.pop("crc")
    v1_line = json.dumps({key: record[key] for key in sorted(record)})
    legacy = json.dumps(
        {key: value for key, value in sorted(result.to_dict().items())}
    )
    assert v1_line == legacy
