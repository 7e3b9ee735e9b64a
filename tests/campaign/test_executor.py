"""Execution backends: serial/parallel interchangeability and resilience."""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from time import monotonic

import pytest

from repro.campaign.campaign import Campaign
from repro.campaign.executor import (
    MAX_POOL_REBUILDS,
    JobTimeoutError,
    ParallelExecutor,
    SerialExecutor,
    create_executor,
)
from repro.campaign.jobs import JobResult, run_job, seed_block_jobs
from repro.campaign.progress import NullProgress
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


@pytest.mark.parametrize(
    ("settings", "message"),
    [
        (dict(max_workers=0), "max_workers must be positive"),
        (dict(max_workers=-3), "max_workers must be positive"),
        (dict(max_workers=2, job_timeout=0.0), "job_timeout must be positive"),
        (dict(max_workers=2, job_timeout=-1.0), "job_timeout must be positive"),
        (dict(max_workers=2, retries=-1), "retries cannot be negative"),
    ],
)
def test_parallel_executor_rejects_bad_settings(settings, message):
    with pytest.raises(ConfigurationError, match=message):
        ParallelExecutor(**settings)


def test_create_executor_threads_resilience_flags_through():
    executor = create_executor(2, retries=3, job_timeout=5.0)
    assert executor.retries == 3
    assert executor.job_timeout == 5.0
    assert create_executor(1, retries=3).retries == 3
    with pytest.raises(ConfigurationError):
        create_executor(1, retries=-1)


# ----------------------------------------------------------------------
# Resilience: crashes, retries, timeouts, degradation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("fault", "expected"),
    [
        ("CRASH", dict(worker_crashes=1, pool_rebuilds=1, retries=0, timeouts=0)),
        ("FAIL", dict(worker_crashes=0, pool_rebuilds=0, retries=1, timeouts=0)),
        ("hang", dict(worker_crashes=0, pool_rebuilds=1, retries=1, timeouts=1)),
        ("CRASH+FAIL", dict(worker_crashes=1, pool_rebuilds=1, retries=1, timeouts=0)),
        ("FAIL+hang", dict(worker_crashes=0, pool_rebuilds=1, retries=2, timeouts=1)),
    ],
)
def test_one_fault_is_survived_bit_identically(tiny_workload, faults, fault, expected):
    """A worker crash rebuilds the pool and resubmits the lost jobs; a
    failure or a hang past its deadline charges only its own job, which is
    resubmitted at once.  No sample changes."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    calls = [faults.hang(0.5) if name == "hang" else getattr(faults, name)
             for name in fault.split("+")]
    executor = faults.Executor(2, {jobs[1].job_id: calls}, retries=2, job_timeout=0.5)
    started = monotonic()
    assert {r.job_id: r.samples for r in executor.execute(jobs)} == serial
    assert monotonic() - started < 5.0
    summary = executor.last_resilience
    counts = {name: getattr(summary, name) for name in expected}
    assert counts == expected
    assert not summary.failures and not summary.degraded


def test_each_execute_call_reports_its_own_resilience(tiny_workload, faults):
    jobs = _jobs(tiny_workload)
    executor = faults.Executor(2, {jobs[0].job_id: [faults.FAIL]}, retries=1)
    first = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert executor.last_resilience.retries == 1
    assert {r.job_id: r.samples for r in executor.execute(jobs)} == first
    assert executor.last_resilience.retries == 0


def test_exception_without_retries_aborts_and_cancels_in_flight(tiny_workload, faults):
    """Fail fast with the original exception, after cancelling the other
    in-flight futures so an aborting campaign never waits on them."""
    jobs = _jobs(tiny_workload)
    executor = faults.Executor(1, {jobs[0].job_id: [faults.FAIL]})
    with pytest.raises(ZeroDivisionError):
        list(executor.execute(jobs))
    assert executor.last_cancelled >= 1


def test_poison_crash_job_is_quarantined_not_fatal(tiny_workload, faults):
    """A job that kills its worker on every attempt costs its own samples,
    not the campaign.  One job in flight at a time: no bystanders."""
    jobs = _jobs(tiny_workload)
    poison = jobs[0].job_id
    executor = faults.Executor(
        1, {poison: [faults.CRASH] * 2}, retries=1, job_timeout=60.0
    )
    assert {r.job_id for r in executor.execute(jobs)} == {j.job_id for j in jobs} - {poison}
    (failure,) = executor.last_resilience.failures
    assert (failure.job_id, failure.kind, failure.attempt) == (poison, "worker_crash", 2)


@pytest.mark.parametrize(("fault", "kind"), [("FAIL", "exception"), ("hang", "timeout")])
def test_poison_failure_is_quarantined_after_its_last_attempt(
    tiny_workload, faults, fault, kind
):
    """``retries + 1`` failed attempts, each retried at once and reported,
    then quarantine; every other job still arrives bit-identically."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    poison = jobs[2]
    call = faults.hang(0.5) if fault == "hang" else faults.FAIL
    executor = faults.Executor(2, {poison.job_id: [call] * 3}, retries=2, job_timeout=0.5)
    reported = []

    class Recorder:
        def __getattr__(self, name):
            return lambda *args: reported.append((name, *args))

    executor.reporter = Recorder()
    started = monotonic()
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    assert monotonic() - started < 8.0
    del serial[poison.job_id]
    assert results == serial
    (failure,) = executor.last_resilience.failures
    assert (failure.job_id, failure.kind, failure.attempt) == (poison.job_id, kind, 3)
    assert reported == [
        ("retry", poison.label, 2, 3, kind),
        ("retry", poison.label, 3, 3, kind),
        ("quarantine", poison.label, 3, kind),
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_hung_job_without_retries_raises_timeout_error(tiny_workload, faults, workers):
    jobs = _jobs(tiny_workload)[:workers]
    executor = faults.Executor(
        workers, {jobs[0].job_id: [faults.hang(0.3)]}, job_timeout=0.3
    )
    started = monotonic()
    with pytest.raises(JobTimeoutError):
        list(executor.execute(jobs))
    assert monotonic() - started < 3.0


def test_repeated_pool_failures_degrade_to_serial(tiny_workload, faults):
    """When the pool cannot be kept alive, the endgame runs the remaining
    jobs in-process, except the one that kept killing its workers: that
    one is quarantined instead of being run in the campaign's process."""
    jobs = _jobs(tiny_workload)[:3]
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    crashes = MAX_POOL_REBUILDS + 1
    executor = faults.Executor(
        1, {jobs[0].job_id: [faults.CRASH] * crashes}, retries=crashes, job_timeout=60.0
    )
    del serial[jobs[0].job_id]
    assert {r.job_id: r.samples for r in executor.execute(jobs)} == serial
    summary = executor.last_resilience
    assert summary.degraded
    assert summary.worker_crashes == crashes
    (failure,) = summary.failures
    assert (failure.job_id, failure.kind, failure.attempt) == (
        jobs[0].job_id, "worker_crash", crashes + 1
    )


def test_a_pool_break_charges_only_the_job_that_breaks_it_alone(tiny_workload, faults):
    """Six jobs in flight on two workers when one kills its worker: the
    break names no culprit, so the jobs run again one at a time and only
    the job that breaks the pool alone is charged.  With one retry it is
    quarantined after its second solo crash, its third in all (the first
    cost nobody an attempt); the other five arrive."""
    jobs = _jobs(tiny_workload)
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    poison = jobs[2].job_id
    executor = faults.Executor(2, {poison: [faults.CRASH] * 3}, retries=1)
    results = {r.job_id: r.samples for r in executor.execute(jobs)}
    del serial[poison]
    assert results == serial
    summary = executor.last_resilience
    (failure,) = summary.failures
    assert (failure.job_id, failure.kind, failure.attempt) == (poison, "worker_crash", 2)
    assert executor.injected_all
    assert summary.worker_crashes == 3 and not summary.degraded


def test_pool_survives_its_rebuild_budget(tiny_workload, faults):
    """``MAX_POOL_REBUILDS`` consecutive crashes are each met by a rebuild;
    only one more degrades to serial."""
    jobs = _jobs(tiny_workload)[:1]
    serial = {r.job_id: r.samples for r in SerialExecutor().execute(jobs)}
    crashes = MAX_POOL_REBUILDS
    executor = faults.Executor(1, {jobs[0].job_id: [faults.CRASH] * crashes}, retries=crashes)
    assert {r.job_id: r.samples for r in executor.execute(jobs)} == serial
    summary = executor.last_resilience
    assert not summary.degraded
    assert summary.worker_crashes == summary.pool_rebuilds == crashes
    assert not summary.failures


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
