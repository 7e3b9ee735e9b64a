"""Warm-worker job transport: round trips, the context cache, resume.

The transport is invisible: a job rebuilt from its shared context blob and
run in a worker reproduces per-job ``run_job`` execution bit for bit, the
worker unpickles each context once, a failing job is charged alone, and a
pooled campaign killed partway resumes from its store without duplicates.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.batches import JobContext, pickle_context, run_job_in_worker
from repro.campaign.campaign import Campaign
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.faults import FaultInjectedError, FaultPlan
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.progress import NullProgress
from repro.campaign.resilience import RetryPolicy
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


def _in_worker(job, attempt=1, plan=None):
    """Run ``job`` through the worker entry point, as the pool would."""
    key, blob = pickle_context(JobContext.from_job(job))
    return run_job_in_worker(
        key, blob, job.job_id, job.label, job.run_start, job.num_runs,
        attempt, plan,
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_worker_round_trip_matches_run_job():
    """A job run in a worker reproduces every field in-process execution produced."""
    jobs, reference = _single_context_jobs()
    for job in jobs[:3]:
        result, _ = _in_worker(job)
        assert result.job_id == job.job_id
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


def test_worker_context_cache_hits_after_first_job():
    from repro.campaign import batches

    jobs, _ = _single_context_jobs()
    batches._CONTEXT_CACHE.clear()
    _, first_hit = _in_worker(jobs[0])
    _, second_hit = _in_worker(jobs[1])
    assert not first_hit
    assert second_hit


def test_pool_dispatch_reports_context_cache_stats(tiny_workload):
    jobs = _grid_jobs(tiny_workload)
    executor = ParallelExecutor(max_workers=2)
    assert len(list(executor.execute(jobs))) == len(jobs)
    stats = executor.last_dispatch_stats
    assert stats["contexts"] == 2  # RP and CBA platform points
    assert stats["jobs_dispatched"] == len(jobs)
    assert (
        stats["context_cache_hits"] + stats["context_cache_misses"]
        == stats["jobs_dispatched"]
    )
    # Each worker misses at most once per context; every other job hits.
    assert 1 <= stats["context_cache_misses"] <= 2 * executor.workers


# ----------------------------------------------------------------------
# The transport never changes samples
# ----------------------------------------------------------------------
@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_context_cache_state_never_changes_samples(data):
    """Whatever order jobs reach a worker in, and whether its context cache
    is cold or warm, every job folds to the in-process samples; a job hits
    the cache exactly when its context was unpickled since the last clear."""
    from repro.campaign import batches

    jobs, reference = _single_context_jobs()
    order = data.draw(st.permutations(jobs))
    clears = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    batches._CONTEXT_CACHE.clear()
    warm = False
    for job, clear in zip(order, clears, strict=True):
        if clear:
            batches._CONTEXT_CACHE.clear()
            warm = False
        result, hit = _in_worker(job)
        assert hit == warm
        assert result.samples == reference[job.job_id].samples
        warm = True


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_worker_counts_are_bit_identical(tiny_workload, workers):
    """Through the real pool: one warm worker serving every job, a worker
    per context, and more workers than contexts all reproduce the serial
    samples, with one dispatch per job."""
    jobs = _grid_jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    executor = ParallelExecutor(max_workers=workers)
    parallel = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert parallel == serial
    assert executor.last_dispatch_stats["jobs_dispatched"] == len(jobs)


# ----------------------------------------------------------------------
# Faults stay per job
# ----------------------------------------------------------------------
def test_failing_job_raises_its_own_exception_and_charges_only_itself(
    tiny_workload,
):
    """A failing job raises its original exception out of the worker entry
    point, so the pool charges exactly that job; its neighbours arrive
    untouched and the retried job reproduces the serial samples."""
    jobs, reference = _single_context_jobs()
    plan = FaultPlan(fail_jobs=frozenset({jobs[1].job_id}))
    with pytest.raises(FaultInjectedError):
        _in_worker(jobs[1], attempt=1, plan=plan)
    retried, _ = _in_worker(jobs[1], attempt=2, plan=plan)
    assert retried.samples == reference[jobs[1].job_id].samples

    grid = _grid_jobs(tiny_workload)
    culprit = grid[1].job_id
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(grid)}
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        fault_plan=FaultPlan(fail_jobs=frozenset({culprit})),
    )
    assert {r.job_id: r.samples for r in executor.execute(grid)} == serial
    summary = executor.last_resilience
    assert summary.retries == 1
    assert [event.job_id for event in summary.events] == [culprit]
    assert summary.events[0].kind == "exception"


# ----------------------------------------------------------------------
# Resume after a kill
# ----------------------------------------------------------------------
class _AbortAfter(NullProgress):
    """Kills the campaign after ``limit`` persisted jobs, with others in flight."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.seen = 0

    def advance(self, label: str = "") -> None:
        self.seen += 1
        if self.seen >= self.limit:
            raise KeyboardInterrupt("injected mid-campaign kill")


def test_resume_after_mid_campaign_kill_is_duplicate_free_and_identical(
    tiny_workload, tmp_path
):
    """Kill a pooled campaign partway, resume from the store, and the final
    store holds exactly one record per job with samples bit-identical to an
    uninterrupted serial run."""
    jobs = _grid_jobs(tiny_workload)
    serial = Campaign(executor=SerialExecutor()).run(jobs)

    store_path = tmp_path / "store.jsonl"
    interrupted = Campaign(
        executor=ParallelExecutor(max_workers=2),
        store=ArtifactStore(store_path),
        progress=_AbortAfter(3),
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(jobs)
    partial = ArtifactStore(store_path).load()
    assert 0 < len(partial) < len(jobs)  # died with work left to do

    resumed = Campaign(
        executor=ParallelExecutor(max_workers=2),
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
