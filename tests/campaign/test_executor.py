"""Execution backends: serial/parallel interchangeability and resilience."""

from __future__ import annotations

import pytest

from repro.campaign.executor import (
    ParallelExecutor,
    SerialExecutor,
    create_executor,
)
from repro.campaign.faults import FaultInjectedError, FaultPlan
from repro.campaign.jobs import seed_block_jobs
from repro.campaign.resilience import JobTimeoutError, RetryPolicy
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


def test_parallel_results_are_bit_identical_to_serial(tiny_workload):
    """The determinism contract: the backend never affects the samples."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    parallel = {
        r.job_id: r.samples
        for r in ParallelExecutor(max_workers=2).execute(jobs)
    }
    assert parallel == serial


def test_parallel_execution_completes_every_job(tiny_workload):
    jobs = _jobs(tiny_workload)
    # Tiny in-flight bound exercises the submit/drain windowing logic.
    executor = ParallelExecutor(max_workers=2, max_in_flight=2)
    results = list(executor.execute(jobs))
    assert {r.job_id for r in results} == {j.job_id for j in jobs}


def test_parallel_executor_handles_empty_job_list():
    assert list(ParallelExecutor(max_workers=2).execute([])) == []


def test_dispatch_stats_are_per_instance_and_reset_each_execute(tiny_workload):
    """Dispatch accounting belongs to one executor and one execute() call:
    no other instance sees it, and the next call starts from empty."""
    jobs = _jobs(tiny_workload)
    pooled = ParallelExecutor(max_workers=2)
    list(pooled.execute(jobs))
    assert pooled.last_dispatch_stats["jobs_dispatched"] == len(jobs)
    assert ParallelExecutor(max_workers=2).last_dispatch_stats == {}
    serial = SerialExecutor()
    serial.last_dispatch_stats["stale"] = 1
    list(serial.execute(jobs[:1]))
    assert serial.last_dispatch_stats == {}
    assert SerialExecutor().last_dispatch_stats == {}
    list(pooled.execute([]))
    assert pooled.last_dispatch_stats == {}


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
