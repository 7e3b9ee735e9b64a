"""End-to-end fault-tolerance acceptance tests and the zero-cost guard.

Two complementary checks, mirroring ``tests/obs/test_overhead.py``:

* **chaos** — a seeded fault plan injecting at least one worker crash, one
  transient failure and one corrupt store line must leave the campaign
  complete, the corruption quarantined, and every sample bit-identical to a
  clean serial run;
* **zero-cost** — with no retry policy, fault plan or timeout configured,
  the pool is handed the plain ``run_job`` (production paths never branch on
  faults) and store records differ from the pre-resilience encoding only by
  the mandated ``schema``/``crc`` fields.
"""

from __future__ import annotations

import json
from concurrent.futures import Future

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.campaign import Campaign, aggregate_by_label
from repro.campaign.executor import ParallelExecutor
from repro.campaign.faults import FaultPlan, run_chaos, run_job_with_faults
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.resilience import RetryPolicy
from repro.campaign.store import ArtifactStore
from repro.platform.presets import cba_config, rp_config
from repro.sim.errors import ConfigurationError
from repro.workloads.base import AddressPattern, WorkloadSpec

# Module-level (not a function-scoped fixture) so hypothesis examples can
# share the jobs and the serial reference without re-simulating them.
_WORKLOAD = WorkloadSpec(
    name="chaos-test",
    num_accesses=120,
    working_set_bytes=4 * 1024,
    mean_compute_gap=6.0,
    gap_variability=0.3,
    pattern=AddressPattern.SEQUENTIAL,
    write_fraction=0.2,
    hot_fraction=0.5,
    hot_region_bytes=1024,
)
_JOBS = None
_REFERENCE = None


def _jobs_and_reference():
    global _JOBS, _REFERENCE
    if _JOBS is None:
        jobs = []
        for label, config in (("rp", rp_config()), ("cba", cba_config())):
            jobs += seed_block_jobs(
                label, "max_contention", seed=7, num_runs=3,
                workload=_WORKLOAD, config=config, max_cycles=300_000,
            )
        _JOBS = jobs
        _REFERENCE = {job.job_id: run_job(job).samples for job in jobs}
    return _JOBS, _REFERENCE


# ----------------------------------------------------------------------
# The acceptance criterion
# ----------------------------------------------------------------------
def test_chaos_campaign_survives_crash_failure_and_corruption(tmp_path):
    """ISSUE acceptance: >=1 worker crash, >=1 transient failure and >=1
    corrupt store line, all injected from one seeded plan — the campaign
    completes, the bad line quarantines, and the recovered samples are
    bit-identical to a clean serial run."""
    report = run_chaos(
        runs_per_label=3,
        workers=2,
        crashes=1,
        failures=1,
        corrupt_lines=1,
        retries=2,
        store_path=tmp_path / "chaos.jsonl",
    )
    assert report.injected["crash"] >= 1
    assert report.injected["fail"] >= 1
    assert report.injected_corrupt_lines >= 1
    assert report.quarantined_lines >= report.injected_corrupt_lines
    assert report.recovered_results == report.jobs
    assert report.samples_identical
    assert not report.campaign.failures  # nothing quarantined as poison
    assert report.campaign.worker_crashes >= 1
    assert report.campaign.pool_rebuilds >= 1
    assert report.campaign.retries >= 1
    assert report.passed
    summary = report.summary()
    assert summary["verdict"] == "PASS"


def test_chaos_requires_a_timeout_when_hanging_jobs():
    try:
        run_chaos(hangs=1, job_timeout=None)
    except ConfigurationError as error:
        assert "job-timeout" in str(error)
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("hangs without a timeout should be rejected")


# ----------------------------------------------------------------------
# Hypothesis: recovered-pool results stay bit-identical across fault seeds
# ----------------------------------------------------------------------
@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(fault_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_recovered_pool_is_bit_identical_to_serial(fault_seed):
    """Whatever jobs a seeded plan crashes or fails, the surviving parallel
    executor hands back exactly the serial samples."""
    jobs, reference = _jobs_and_reference()
    plan = FaultPlan.for_jobs(
        jobs, seed=fault_seed, crashes=1, failures=1, corrupt_lines=0
    )
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, seed=fault_seed),
        fault_plan=plan,
    )
    results = {result.job_id: result.samples for result in executor.execute(jobs)}
    assert results == reference
    assert executor.last_resilience.worker_crashes >= 1
    assert not executor.last_resilience.failures


# ----------------------------------------------------------------------
# Zero-cost when disabled
# ----------------------------------------------------------------------
class _RecordingPool:
    """In-process stand-in for the process pool: runs each submitted call at
    once and records what the executor submitted."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def submit(self, fn, *args):
        self.calls.append((fn, *args))
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _RecordingExecutor(ParallelExecutor):
    def _build_pool(self):
        self.pool = _RecordingPool()
        return self.pool


def test_default_dispatch_runs_the_plain_run_job():
    """Structural guard: without a fault plan the pool is handed ``run_job``
    and the job itself — production dispatch carries no fault branch."""
    jobs, reference = _jobs_and_reference()
    executor = _RecordingExecutor(max_workers=2)
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert results == reference
    assert executor.pool.calls == [(run_job, job) for job in jobs]

    # And with a plan configured, the fault wrapper *is* the per-job entry
    # point, called with the job, its attempt and the plan.
    plan = FaultPlan(fail_jobs=frozenset({jobs[0].job_id}))
    executor = _RecordingExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        fault_plan=plan,
    )
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert results == reference
    calls = executor.pool.calls
    assert {call[0] for call in calls} == {run_job_with_faults}
    assert sorted((job.job_id, attempt) for _, job, attempt, _ in calls) == sorted(
        [(job.job_id, 1) for job in jobs] + [(jobs[0].job_id, 2)]
    )
    assert all(call[3] is plan for call in calls)


def test_clean_runs_report_clean_resilience(tmp_path):
    jobs, _ = _jobs_and_reference()
    campaign = Campaign(
        executor=ParallelExecutor(max_workers=2),
        store=ArtifactStore(tmp_path / "store.jsonl"),
    )
    campaign.run(jobs)
    report = campaign.last_report
    assert report.clean
    assert report.retries == 0
    assert report.worker_crashes == 0
    assert not report.degraded
    assert report.quarantined_store_lines == 0


def test_store_records_differ_from_v1_only_by_schema_and_crc(tmp_path):
    """The payload encoding is untouched by the hardening: stripping the two
    mandated fields yields byte-for-byte the pre-resilience v1 line."""
    jobs, _ = _jobs_and_reference()
    result = run_job(jobs[0])
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


def test_quiet_chaos_harness_emits_nothing(tmp_path, capfd):
    """--quiet must silence every reporter line — progress, retry and
    degrade notices included — even while faults are being survived."""
    report = run_chaos(
        runs_per_label=2,
        workers=2,
        crashes=1,
        failures=1,
        corrupt_lines=1,
        retries=2,
        store_path=tmp_path / "chaos.jsonl",
        quiet=True,
    )
    assert report.passed
    out, err = capfd.readouterr()
    assert out == ""
    assert err == ""
