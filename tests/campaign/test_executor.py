"""Execution backends: serial/parallel interchangeability and resilience."""

from __future__ import annotations

import pickle
from concurrent.futures import Future

import pytest

from repro.campaign.campaign import Campaign
from repro.campaign.executor import (
    ParallelExecutor,
    SerialExecutor,
    create_executor,
)
from repro.campaign.faults import FaultInjectedError, FaultPlan, run_job_with_faults
from repro.campaign.jobs import JobResult, run_job, seed_block_jobs
from repro.campaign.progress import NullProgress
from repro.campaign.resilience import JobTimeoutError, RetryPolicy
from repro.campaign.store import ArtifactStore
from repro.platform.presets import cba_config, rp_config
from repro.sim.errors import ConfigurationError


def _jobs(workload):
    jobs = []
    for label, config in (("rp", rp_config()), ("cba", cba_config())):
        jobs += seed_block_jobs(
            label, "max_contention", seed=7, num_runs=3,
            workload=workload, config=config, max_cycles=300_000,
        )
    return jobs


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_results_are_bit_identical_to_serial(tiny_workload, workers):
    """The determinism contract: the backend never affects the samples.  One
    worker serving every job, a worker per platform point, and more workers
    than platform points all reproduce the serial samples."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    parallel = {
        r.job_id: r.samples
        for r in ParallelExecutor(max_workers=workers).execute(jobs)
    }
    assert parallel == serial


def test_parallel_execution_completes_every_job(tiny_workload):
    jobs = _jobs(tiny_workload)
    # A job budget caps the in-flight futures at one per worker, which
    # exercises the submit/drain windowing logic.
    executor = ParallelExecutor(max_workers=2, job_timeout=60)
    results = list(executor.execute(jobs))
    assert {r.job_id for r in results} == {j.job_id for j in jobs}


def test_parallel_executor_handles_empty_job_list():
    assert list(ParallelExecutor(max_workers=2).execute([])) == []


def test_worker_round_trip_matches_run_job(tiny_workload):
    """A job shipped to a pool worker reproduces every field in-process
    ``run_job`` produces, not just the samples."""
    jobs = _jobs(tiny_workload)[:3]
    reference = {job.job_id: run_job(job) for job in jobs}
    results = list(ParallelExecutor(max_workers=1).execute(jobs))
    assert sorted(r.job_id for r in results) == sorted(reference)
    for result in results:
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


def test_job_with_a_workload_option_ships_through_the_pool(tiny_workload):
    """Option values are not limited to primitives: a mixed-criticality job
    carrying a best-effort :class:`WorkloadSpec` in its options travels in
    the job's pickle and reproduces the serial samples."""
    best_effort = tiny_workload.with_updates(name="best-effort", num_accesses=60)
    jobs = seed_block_jobs(
        "mc", "mixed_criticality", seed=3, num_runs=3,
        workload=tiny_workload, config=cba_config(), max_cycles=300_000,
        options=(("best_effort", best_effort),),
    )
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    parallel = {
        r.job_id: r.samples
        for r in ParallelExecutor(max_workers=2).execute(jobs)
    }
    assert parallel == serial


class _WindowPool:
    """In-process stand-in for the process pool that never simulates: each
    submitted job resolves at once to an empty result, and the pool records
    the most futures that were submitted but not yet collected."""

    def __init__(self) -> None:
        self.outstanding = 0
        self.peak = 0

    def submit(self, fn, job, *args):
        pool = self

        class _Collected(Future):
            def result(self, timeout=None):
                pool.outstanding -= 1
                return super().result(timeout)

        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        future = _Collected()
        future.set_result(
            JobResult(
                job_id=job.job_id, label=job.label, scenario=job.scenario,
                run_start=job.run_start, num_runs=job.num_runs, samples=(0.0,),
            )
        )
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _WindowExecutor(ParallelExecutor):
    def _build_pool(self):
        self.pool = _WindowPool()
        return self.pool


@pytest.mark.parametrize(
    ("workers", "job_timeout", "window"),
    [(2, None, 16), (5, None, 20), (2, 60.0, 2)],
)
def test_in_flight_futures_stay_within_the_window(
    tiny_workload, workers, job_timeout, window
):
    """Without a job budget at most ``max(4 * workers, 16)`` futures are
    submitted but uncollected; with one, at most one per worker.  Every job
    still arrives exactly once."""
    jobs = seed_block_jobs(
        "window", "isolation", seed=1, num_runs=50,
        workload=tiny_workload, config=rp_config(),
    )
    executor = _WindowExecutor(max_workers=workers, job_timeout=job_timeout)
    results = list(executor.execute(jobs))
    assert sorted(r.job_id for r in results) == sorted(j.job_id for j in jobs)
    assert executor.pool.peak == window
    assert executor.pool.outstanding == 0


def test_pickled_job_keeps_its_cached_job_id(tiny_workload):
    """The pool ships the job itself: a ``job_id`` read before pickling
    travels in the pickle, so workers never re-hash the job, and the
    unpickled job runs to the same samples."""
    job = _jobs(tiny_workload)[0]
    job_id = job.job_id
    clone = pickle.loads(pickle.dumps(job))
    assert clone.__dict__["job_id"] == job_id
    assert clone == job
    assert run_job(clone).samples == run_job(job).samples
    # A job whose id was never read carries none, and hashes on first use.
    fresh = pickle.loads(pickle.dumps(job.with_updates(seed=8)))
    assert "job_id" not in fresh.__dict__
    assert fresh.job_id != job_id


def test_create_executor_maps_jobs_flag():
    assert isinstance(create_executor(None), SerialExecutor)
    assert isinstance(create_executor(1), SerialExecutor)
    parallel = create_executor(3)
    assert isinstance(parallel, ParallelExecutor)
    assert parallel.workers == 3
    per_cpu = create_executor(0)
    assert isinstance(per_cpu, ParallelExecutor)
    assert per_cpu.workers >= 1


def test_create_executor_rejects_negative_counts():
    with pytest.raises(ConfigurationError):
        create_executor(-2)
    with pytest.raises(ConfigurationError):
        ParallelExecutor(max_workers=0)
    with pytest.raises(ConfigurationError):
        ParallelExecutor(max_workers=2, job_timeout=0.0)


def test_create_executor_threads_resilience_flags_through():
    policy = RetryPolicy(max_attempts=4)
    executor = create_executor(2, retry_policy=policy, job_timeout=5.0)
    assert executor.retry_policy is policy
    assert executor.job_timeout == 5.0
    serial = create_executor(1, retry_policy=policy)
    assert serial.retry_policy is policy


# ----------------------------------------------------------------------
# Resilience: crashes, retries, timeouts, degradation
# ----------------------------------------------------------------------
def test_worker_crash_is_survived_bit_identically(tiny_workload):
    """One injected worker death: the pool is rebuilt, the lost jobs are
    resubmitted, and no sample changes."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    plan = FaultPlan.for_jobs(jobs, seed=3, crashes=1, failures=0, corrupt_lines=0)
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        fault_plan=plan,
    )
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert results == serial
    summary = executor.last_resilience
    assert summary.worker_crashes >= 1
    assert summary.pool_rebuilds >= 1
    assert not summary.failures and not summary.degraded


def test_transient_exception_is_retried_with_policy(tiny_workload):
    jobs = _jobs(tiny_workload)
    plan = FaultPlan.for_jobs(jobs, seed=3, crashes=0, failures=1, corrupt_lines=0)
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        fault_plan=plan,
    )
    results = list(executor.execute(jobs))
    assert {r.job_id for r in results} == {j.job_id for j in jobs}
    summary = executor.last_resilience
    assert summary.retries == 1
    assert summary.events[0].kind == "exception"


def test_exception_without_policy_aborts_and_cancels_in_flight(tiny_workload):
    """Satellite: the pre-resilience fail-fast contract now also cancels the
    other in-flight futures so an aborting campaign never waits on them."""
    jobs = _jobs(tiny_workload)
    # Fail the first-submitted job so plenty of futures are still queued.
    plan = FaultPlan(fail_jobs=frozenset({jobs[0].job_id}))
    executor = ParallelExecutor(max_workers=1, fault_plan=plan)
    with pytest.raises(FaultInjectedError):
        list(executor.execute(jobs))
    assert executor.last_cancelled >= 1
    assert executor.last_resilience.failures[0].fatal


def test_poison_crash_job_is_quarantined_not_fatal(tiny_workload):
    """A job that kills its worker on every attempt costs its own samples,
    not the campaign."""
    jobs = _jobs(tiny_workload)
    poison = jobs[0].job_id
    plan = FaultPlan(crash_jobs=frozenset({poison}), max_faulty_attempts=99)
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        fault_plan=plan,
    )
    results = {r.job_id for r in executor.execute(jobs)}
    assert results == {j.job_id for j in jobs} - {poison}
    summary = executor.last_resilience
    assert summary.failures
    assert summary.failures[0].job_id == poison
    assert summary.failures[0].kind == "worker_crash"
    assert summary.failures[0].fatal


def test_hung_job_is_killed_and_retried(tiny_workload):
    jobs = _jobs(tiny_workload)
    hung = jobs[0].job_id
    plan = FaultPlan(hang_jobs=frozenset({hung}), hang_seconds=60.0)
    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        job_timeout=0.5,
        fault_plan=plan,
    )
    results = {r.job_id for r in executor.execute(jobs)}
    assert results == {j.job_id for j in jobs}  # the retry ran clean
    summary = executor.last_resilience
    # Only the hung job is charged; the jobs in flight beside it are
    # requeued at their attempt, not retried.
    assert summary.timeouts == 1
    assert summary.retries == 1
    assert [event.job_id for event in summary.events] == [hung]
    assert summary.events[0].kind == "timeout"
    assert summary.pool_rebuilds >= 1


def test_hung_job_without_policy_raises_timeout_error(tiny_workload):
    jobs = _jobs(tiny_workload)[:1]
    plan = FaultPlan(
        hang_jobs=frozenset({jobs[0].job_id}),
        hang_seconds=60.0,
        max_faulty_attempts=99,
    )
    executor = ParallelExecutor(max_workers=1, job_timeout=0.3, fault_plan=plan)
    with pytest.raises(JobTimeoutError):
        list(executor.execute(jobs))


def test_repeated_pool_failures_degrade_to_serial(tiny_workload):
    """When the pool cannot be kept alive, the endgame runs in-process — and
    still recovers the job once its faulty attempts are spent."""
    jobs = _jobs(tiny_workload)[:1]
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    plan = FaultPlan(crash_jobs=frozenset({jobs[0].job_id}), max_faulty_attempts=4)
    executor = ParallelExecutor(
        max_workers=1,
        retry_policy=RetryPolicy(
            max_attempts=10, base_delay=0.0, max_pool_rebuilds=1
        ),
        fault_plan=plan,
    )
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert results == serial
    summary = executor.last_resilience
    assert summary.degraded
    assert summary.worker_crashes >= 2
    assert not summary.failures


def test_failing_job_raises_its_own_exception_and_charges_only_itself(
    tiny_workload,
):
    """A failing job raises its original exception out of the worker entry
    point, so the pool charges exactly that job; its neighbours arrive
    untouched and the retried job reproduces the serial samples."""
    jobs = _jobs(tiny_workload)
    culprit = jobs[1]
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    plan = FaultPlan(fail_jobs=frozenset({culprit.job_id}))
    with pytest.raises(FaultInjectedError):
        run_job_with_faults(culprit, 1, plan)
    assert run_job_with_faults(culprit, 2, plan).samples == serial[culprit.job_id]

    executor = ParallelExecutor(
        max_workers=2,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        fault_plan=plan,
    )
    assert {r.job_id: r.samples for r in executor.execute(jobs)} == serial
    summary = executor.last_resilience
    assert summary.retries == 1
    assert [event.job_id for event in summary.events] == [culprit.job_id]
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
    jobs = _jobs(tiny_workload)
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
