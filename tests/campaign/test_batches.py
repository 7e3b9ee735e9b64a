"""Chunked batch dispatch: round trips, boundary invariance, caches, resume.

The batching tentpole's contract has two halves:

* **transport is invisible** — however jobs are grouped into batches
  (singletons, worker-sized chunks, ragged tails) and however the sample
  column travels (inline pickle or shared memory), the folded per-job
  results are bit-identical to per-job ``run_job`` execution;
* **faults stay per-job** — a failure inside a chunk charges exactly the
  culprit row, folds the completed prefix, and leaves the untouched suffix
  requeueable, so resume and resilience semantics survive batching.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.batches import (
    JobContext,
    batch_jobs,
    pickle_context,
    run_batch,
)
from repro.campaign.campaign import Campaign
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.faults import FaultInjectedError, FaultPlan
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.progress import NullProgress
from repro.campaign.store import ArtifactStore
from repro.platform.presets import cba_config, rp_config
from repro.workloads.base import AddressPattern, WorkloadSpec

# Module-level cache so hypothesis examples share one simulated reference.
_WORKLOAD = WorkloadSpec(
    name="batch-test",
    num_accesses=120,
    working_set_bytes=4 * 1024,
    mean_compute_gap=6.0,
    gap_variability=0.3,
    pattern=AddressPattern.SEQUENTIAL,
    write_fraction=0.2,
    hot_fraction=0.5,
    hot_region_bytes=1024,
)
_CACHE: dict[str, object] = {}


def _single_context_jobs():
    """Six jobs sharing one (workload, config, scenario) context."""
    if "jobs" not in _CACHE:
        jobs = seed_block_jobs(
            "rp", "max_contention", seed=7, num_runs=6,
            workload=_WORKLOAD, config=rp_config(), max_cycles=300_000,
        )
        _CACHE["jobs"] = jobs
        _CACHE["reference"] = {job.job_id: run_job(job) for job in jobs}
    return _CACHE["jobs"], _CACHE["reference"]


def _grid_jobs(workload):
    """Two contexts (RP and CBA), three jobs each."""
    jobs = []
    for label, config in (("rp", rp_config()), ("cba", cba_config())):
        jobs += seed_block_jobs(
            label, "max_contention", seed=7, num_runs=3,
            workload=workload, config=config, max_cycles=300_000,
        )
    return jobs


def _batch_of(jobs, attempt=1):
    key, blob = pickle_context(JobContext.from_job(jobs[0]))
    return batch_jobs([(job, attempt) for job in jobs], key, blob)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_run_batch_round_trip_matches_run_job():
    """A folded batch reproduces every field per-job dispatch produced."""
    jobs, reference = _single_context_jobs()
    folded = run_batch(_batch_of(jobs[:3])).split()
    assert len(folded) == 3
    for result in folded:
        expected = reference[result.job_id]
        assert result.samples == expected.samples
        assert result.metrics == expected.metrics
        assert result.payloads == expected.payloads
        assert result.truncated_runs == expected.truncated_runs
        assert result.label == expected.label
        assert result.scenario == expected.scenario
        assert result.run_start == expected.run_start
        assert result.num_runs == expected.num_runs
        assert result.elapsed_seconds > 0.0


def test_worker_context_cache_hits_after_first_batch():
    from repro.campaign import batches

    jobs, _ = _single_context_jobs()
    batches._CONTEXT_CACHE.clear()
    first = run_batch(_batch_of(jobs[:1]))
    second = run_batch(_batch_of(jobs[1:2]))
    assert not first.context_cache_hit
    assert second.context_cache_hit


# ----------------------------------------------------------------------
# Chunk boundaries never change samples
# ----------------------------------------------------------------------
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_chunk_boundaries_never_change_samples(data):
    """Any contiguous partition of the job list folds to the same samples."""
    jobs, reference = _single_context_jobs()
    key, blob = pickle_context(JobContext.from_job(jobs[0]))
    remaining = list(jobs)
    folded = []
    while remaining:
        size = data.draw(st.integers(1, len(remaining)))
        chunk, remaining = remaining[:size], remaining[size:]
        batch = batch_jobs([(job, 1) for job in chunk], key, blob)
        folded.extend(run_batch(batch).split())
    assert {r.job_id: r.samples for r in folded} == {
        job_id: ref.samples for job_id, ref in reference.items()
    }


@pytest.mark.parametrize("chunk_jobs", [1, 2, 4])
def test_pinned_pool_chunk_sizes_are_bit_identical(tiny_workload, chunk_jobs):
    """Through the real pool: singleton, worker-sized and ragged chunks all
    reproduce the serial samples (4 against 3-job contexts forces a tail)."""
    jobs = _grid_jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    executor = ParallelExecutor(max_workers=2, chunk_jobs=chunk_jobs)
    parallel = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert parallel == serial
    stats = executor.last_batch_stats
    assert stats["jobs_dispatched"] == len(jobs)
    assert 1 <= stats["max_chunk_jobs"] <= chunk_jobs


def test_adaptive_dispatch_reports_batch_stats(tiny_workload):
    jobs = _grid_jobs(tiny_workload)
    executor = ParallelExecutor(max_workers=2)
    results = list(executor.execute(jobs))
    assert len(results) == len(jobs)
    stats = executor.last_batch_stats
    assert stats["contexts"] == 2  # RP and CBA platform points
    assert stats["jobs_dispatched"] == len(jobs)
    assert stats["batches"] >= 2
    assert (
        stats["context_cache_hits"] + stats["context_cache_misses"]
        == stats["batches"]
    )


# ----------------------------------------------------------------------
# Faults at batch granularity
# ----------------------------------------------------------------------
def test_partial_batch_failure_folds_prefix_and_charges_culprit():
    jobs, reference = _single_context_jobs()
    plan = FaultPlan(fail_jobs=frozenset({jobs[1].job_id}))
    result = run_batch(_batch_of(jobs[:3]), plan)
    assert result.completed == 1
    assert result.failed_index == 1
    assert isinstance(result.failure_exception(), FaultInjectedError)
    (folded,) = result.split()
    assert folded.samples == reference[jobs[0].job_id].samples


# ----------------------------------------------------------------------
# Resume across chunk boundaries
# ----------------------------------------------------------------------
class _AbortAfter(NullProgress):
    """Kills the campaign after ``limit`` persisted jobs — mid-chunk, since
    results stream per job while chunks hold two."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.seen = 0

    def advance(self, label: str = "") -> None:
        self.seen += 1
        if self.seen >= self.limit:
            raise KeyboardInterrupt("injected mid-chunk kill")


def test_resume_after_mid_chunk_kill_is_duplicate_free_and_identical(
    tiny_workload, tmp_path
):
    """ISSUE acceptance: kill a chunked campaign partway, resume from the
    store, and the final store holds exactly one record per job with samples
    bit-identical to an uninterrupted serial run."""
    jobs = _grid_jobs(tiny_workload)
    serial = Campaign(executor=SerialExecutor()).run(jobs)

    store_path = tmp_path / "store.jsonl"
    interrupted = Campaign(
        executor=ParallelExecutor(max_workers=2, chunk_jobs=2),
        store=ArtifactStore(store_path),
        progress=_AbortAfter(3),
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(jobs)
    partial = ArtifactStore(store_path).load()
    assert 0 < len(partial) < len(jobs)  # died with work left to do

    resumed = Campaign(
        executor=ParallelExecutor(max_workers=2, chunk_jobs=2),
        store=ArtifactStore(store_path),
        resume=True,
    ).run(jobs)

    lines = [
        line for line in store_path.read_text().splitlines() if line.strip()
    ]
    assert len(lines) == len(jobs)  # no job was re-executed or re-appended
    assert {job_id: r.samples for job_id, r in resumed.items()} == {
        job_id: r.samples for job_id, r in serial.items()
    }
