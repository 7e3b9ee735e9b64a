"""Pluggable campaign execution backends.

Every backend implements one method — :meth:`Executor.execute` — that maps a
sequence of :class:`~repro.campaign.jobs.CampaignJob` to an iterator of
:class:`~repro.campaign.jobs.JobResult`, yielding results as they complete so
the orchestrator can persist and report progress incrementally.

Determinism contract: a job's result depends only on the job (every random
stream is derived from ``(seed, run_index)`` inside :func:`run_job`), so the
backends are interchangeable — :class:`ParallelExecutor` produces samples
bit-identical to :class:`SerialExecutor`, merely out of order.  Orchestration
code must therefore key results by :attr:`job_id`, never by arrival order.

Dispatch contract: the parallel backend submits *one future per job*, and
the future carries the pickled job itself.  Workers run the same entry point
as :class:`SerialExecutor` — :func:`~repro.campaign.jobs.run_job`, or
:func:`~repro.campaign.faults.run_job_with_faults` under a fault plan — and
return its :class:`JobResult`, so the store, resume protocol and progress
reporting see the plain per-job stream.  A job's cached :attr:`job_id`
travels in its pickle, so workers never re-hash it.

Resilience contract: job purity also makes *re*-execution free of side
effects, which is what lets :class:`ParallelExecutor` survive worker death.
A :class:`~concurrent.futures.process.BrokenProcessPool` is absorbed by
rebuilding the pool and resubmitting the lost jobs (a broken pool loses
every in-flight job, so under a fault plan only the known culprits are
charged an attempt); repeated pool failures degrade execution to the
in-process serial path; a configured
:class:`~repro.campaign.resilience.RetryPolicy` retries transient job
exceptions with seeded backoff and quarantines poison jobs after their
attempt budget; a per-job wall-clock budget (``job_timeout``) is each
future's deadline, and an expired future charges exactly its own job.  With
no policy or plan configured a job failure propagates the original
exception on first sight, serially and in parallel (after cancelling the
other in-flight futures so an aborting campaign never blocks on unrelated
jobs).
"""

from __future__ import annotations

# repro-lint: allow-file[DET001] — timeouts, retry backoff, rate limiting and
# profiling are wall-clock by nature here; job *results* derive only from
# (seed, run_index) inside run_job, so host time never reaches the samples.

import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from time import monotonic, perf_counter, sleep
from typing import TYPE_CHECKING, Iterator, Sequence

from ..obs.profiler import CampaignProfiler
from ..sim.errors import ConfigurationError
from .faults import CRASH, FaultPlan, run_job_with_faults
from .jobs import CampaignJob, JobResult, run_job
from .resilience import (
    DEFAULT_MAX_POOL_REBUILDS,
    JobTimeoutError,
    ResilienceSummary,
    RetryPolicy,
    execute_with_retries,
    job_failure,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .progress import NullProgress

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "create_executor"]


def warm_up_worker() -> None:
    """No-op task: submitting one per worker makes the pool spawn them all,
    so a profiled campaign can time the spawn on its own."""


class Executor(ABC):
    """Execution backend interface."""

    #: Worker-process count (1 for in-process backends); used for sizing hints.
    workers: int = 1
    #: Optional per-phase wall-clock profiler, attached by the orchestrator
    #: (:class:`~repro.campaign.campaign.Campaign`).  ``None`` keeps the
    #: execute loops exactly as shipped.
    profiler: CampaignProfiler | None = None
    #: Optional retry policy; ``None`` keeps the fail-fast seed behaviour.
    retry_policy: RetryPolicy | None = None
    #: Optional per-job wall-clock budget in seconds (parallel backend only).
    job_timeout: float | None = None
    #: Optional fault-injection plan — chaos testing only, never production.
    fault_plan: FaultPlan | None = None
    #: Optional progress reporter for retry/degrade lines (attached by the
    #: orchestrator; duck-typed to :class:`~repro.campaign.progress.NullProgress`).
    reporter: "NullProgress | None" = None
    #: Resilience accounting of the most recent :meth:`execute` call.
    last_resilience: ResilienceSummary | None = None

    @abstractmethod
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        """Run ``jobs`` and yield each :class:`JobResult` as it completes."""


class SerialExecutor(Executor):
    """Run every job in-process, in order — the debuggable baseline."""

    workers = 1

    def __init__(
        self,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        profiler = self.profiler
        summary = ResilienceSummary()
        self.last_resilience = summary
        for job in jobs:
            started = perf_counter()
            result = execute_with_retries(
                job, self.retry_policy, self.fault_plan, summary, self.reporter
            )
            if profiler is not None:
                profiler.add("simulate", perf_counter() - started)
            if result is not None:
                yield result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _promote_matured(
    delayed: list[tuple[float, CampaignJob, int]],
    pending: deque[tuple[CampaignJob, int]],
) -> None:
    """Move every job whose backoff delay has expired back to ``pending``."""
    now = monotonic()
    for entry in [entry for entry in delayed if entry[0] <= now]:
        delayed.remove(entry)
        pending.append((entry[1], entry[2]))


class ParallelExecutor(Executor):
    """Fan jobs out over a persistent process pool, one future per job.

    Simulation runs are pure CPU-bound Python, so processes (not threads) are
    the right unit.  At most ``max(4 * workers, 16)`` futures are submitted
    but unfinished at once, so million-job campaigns do not materialise
    their whole frontier in memory.  With a ``job_timeout`` at most one
    future per worker is in flight, so a job's deadline measures its own run
    and never its wait in the pool's queue.

    The dispatch loop survives worker death (pool rebuild + resubmission of
    the lost jobs), hung jobs (a job past its ``job_timeout`` deadline kills
    the pool's workers and is retried; the other in-flight jobs are requeued
    at their current attempt), and transient job failures
    (``retry_policy``); after ``max_pool_rebuilds`` consecutive pool failures
    it degrades to running the remaining jobs serially in-process.  Because
    jobs are pure, none of this changes a single sample — only whether they
    arrive.
    """

    def __init__(
        self,
        max_workers: int,
        retry_policy: RetryPolicy | None = None,
        job_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError("job_timeout must be positive")
        self.workers = max_workers
        self.retry_policy = retry_policy
        self.job_timeout = job_timeout
        self.fault_plan = fault_plan
        #: Futures cancelled while unwinding the most recent execute() call.
        self.last_cancelled = 0

    # ------------------------------------------------------------------
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        self.last_resilience = ResilienceSummary()
        if not jobs:
            return
        yield from self._execute_core(list(jobs), self.last_resilience)

    # ------------------------------------------------------------------
    # Submission helpers
    # ------------------------------------------------------------------
    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _crash_next_attempt(self, job: CampaignJob, attempt: int) -> int:
        """The attempt a job lost to a pool break should resubmit as.

        A broken pool does not say *which* job killed the worker, so without
        further information every lost job is conservatively charged an
        attempt (purity makes the resubmission bit-identical either way).
        Under an injected fault plan the culprit is known exactly, so
        innocent bystanders keep their attempt number — which keeps the
        plan's per-attempt fault schedule (and the chaos accounting built on
        it) deterministic regardless of dispatch timing.
        """
        if self.fault_plan is None:
            return attempt + 1
        if self.fault_plan.decide(job.job_id, attempt) == CRASH:
            return attempt + 1
        return attempt

    def _max_pool_rebuilds(self) -> int:
        if self.retry_policy is not None:
            return self.retry_policy.max_pool_rebuilds
        return DEFAULT_MAX_POOL_REBUILDS

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a (broken or hung) pool down without waiting on its workers."""
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():  # kill hung workers outright
            try:
                process.terminate()
            except (OSError, ValueError):  # pragma: no cover - already dead
                pass

    # ------------------------------------------------------------------
    # The resilient dispatch loop
    # ------------------------------------------------------------------
    def _execute_core(
        self, jobs: list[CampaignJob], summary: ResilienceSummary
    ) -> Iterator[JobResult]:
        profiler = self.profiler
        policy = self.retry_policy
        reporter = self.reporter
        plan = self.fault_plan
        self.last_cancelled = 0

        #: ``(job, attempt)`` pairs awaiting dispatch.
        pending: deque[tuple[CampaignJob, int]] = deque((job, 1) for job in jobs)
        #: (ready_at, job, attempt) parked for a backoff delay.
        delayed: list[tuple[float, CampaignJob, int]] = []
        #: future -> (job, attempt, deadline).
        in_flight: dict[Future, tuple[CampaignJob, int, float | None]] = {}
        limit = self.workers if self.job_timeout is not None else max(4 * self.workers, 16)
        consecutive_pool_failures = 0

        spawn_started = perf_counter()
        pool = self._build_pool()
        if profiler is not None:
            wait({pool.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - spawn_started, count=self.workers)

        def refill() -> bool:
            """Top the pool up to its in-flight limit; True if it broke."""
            _promote_matured(delayed, pending)
            submitted = 0
            submit_started = perf_counter() if profiler is not None else 0.0
            try:
                while pending and len(in_flight) < limit:
                    job, attempt = pending.popleft()
                    try:
                        if plan is None:
                            future = pool.submit(run_job, job)
                        else:
                            future = pool.submit(
                                run_job_with_faults, job, attempt, plan
                            )
                    except BrokenProcessPool:
                        pending.appendleft((job, attempt))
                        return True
                    deadline = (
                        None if self.job_timeout is None
                        else monotonic() + self.job_timeout
                    )
                    in_flight[future] = (job, attempt, deadline)
                    submitted += 1
            finally:
                if profiler is not None and submitted:
                    profiler.add(
                        "dispatch", perf_counter() - submit_started, count=submitted
                    )
            return False

        def charge_crash(job: CampaignJob, attempt: int) -> None:
            """One job lost to a pool break: requeue it or quarantine it."""
            next_attempt = self._crash_next_attempt(job, attempt)
            if (
                next_attempt > attempt
                and policy is not None
                and not policy.should_retry(attempt)
            ):
                failure = job_failure(
                    job,
                    attempt,
                    kind="worker_crash",
                    message="worker process died repeatedly",
                    fatal=True,
                )
                summary.record_quarantine(failure)
                if reporter is not None:
                    reporter.quarantine(job.label, attempt, "worker_crash")
                return
            pending.append((job, next_attempt))

        def rebuild_pool() -> ProcessPoolExecutor:
            summary.pool_rebuilds += 1
            if profiler is None:
                return self._build_pool()
            started = perf_counter()
            fresh = self._build_pool()
            wait({fresh.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - started, count=self.workers)
            return fresh

        def recover_pool() -> ProcessPoolExecutor | None:
            """The pool broke: charge its in-flight jobs, then rebuild it
            (``None`` once the rebuild budget is spent and dispatch degrades)."""
            nonlocal consecutive_pool_failures
            summary.worker_crashes += 1
            consecutive_pool_failures += 1
            self._abandon_pool(pool)
            for job, attempt, _ in in_flight.values():
                charge_crash(job, attempt)
            in_flight.clear()
            if consecutive_pool_failures > self._max_pool_rebuilds():
                summary.degraded = True
                if reporter is not None:
                    reporter.degrade(consecutive_pool_failures)
                return None
            return rebuild_pool()

        def poll_timeout() -> float | None:
            """How long the wait may block: next deadline or backoff expiry."""
            bounds = [d for _, _, d in in_flight.values() if d is not None]
            bounds.extend(entry[0] for entry in delayed)
            if not bounds:
                return None
            return max(0.0, min(bounds) - monotonic())

        try:
            while pending or delayed or in_flight:
                if summary.degraded:
                    # Serial endgame: the pool cannot be trusted any more.
                    yield from self._serial_endgame(pending, delayed, summary)
                    return

                if refill():  # submission hit a broken pool
                    pool = recover_pool() or pool
                    continue

                if not in_flight:
                    # Everything left is parked on a backoff delay: sleep it
                    # off instead of spinning on refill().
                    ready_at = min(entry[0] for entry in delayed)
                    sleep(max(0.0, ready_at - monotonic()))
                    continue

                wait_started = perf_counter() if profiler is not None else 0.0
                done, _ = wait(
                    tuple(in_flight), timeout=poll_timeout(), return_when=FIRST_COMPLETED
                )
                if profiler is not None:
                    profiler.add("simulate", perf_counter() - wait_started)

                if not done:
                    # The wait timed out: sweep expired job deadlines.
                    now = monotonic()
                    expired = [
                        future
                        for future, (_, _, deadline) in in_flight.items()
                        if deadline is not None and deadline <= now
                    ]
                    if not expired:
                        continue  # woke up for a backoff expiry, not a hang
                    self._abandon_pool(pool)
                    for future in expired:
                        job, attempt, _ = in_flight.pop(future)
                        self._charge_timeout(job, attempt, pending, summary)
                    # The other in-flight jobs did not hang: they keep their
                    # attempt number.
                    pending.extend((job, attempt) for job, attempt, _ in in_flight.values())
                    in_flight.clear()
                    pool = rebuild_pool()
                    continue

                pool_broken = False
                for future in done:
                    job, attempt, _ = in_flight.pop(future)
                    result_started = perf_counter() if profiler is not None else 0.0
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        charge_crash(job, attempt)
                        continue
                    except Exception as exc:
                        consecutive_pool_failures = 0
                        self._note_exception(
                            job, attempt, exc, pending, delayed, summary
                        )
                        continue
                    consecutive_pool_failures = 0
                    if profiler is not None:
                        profiler.add("result", perf_counter() - result_started)
                    yield result

                if pool_broken:
                    pool = recover_pool() or pool
        finally:
            self.last_cancelled = sum(1 for future in in_flight if future.cancel())
            shutdown_started = perf_counter() if profiler is not None else 0.0
            pool.shutdown(wait=True, cancel_futures=True)
            if profiler is not None:
                profiler.add("spawn", perf_counter() - shutdown_started, count=0)

    # ------------------------------------------------------------------
    def _serial_endgame(
        self,
        pending: deque[tuple[CampaignJob, int]],
        delayed: list[tuple[float, CampaignJob, int]],
        summary: ResilienceSummary,
    ) -> Iterator[JobResult]:
        """Run what is left in-process once the pool has been given up on."""
        profiler = self.profiler
        while pending or delayed:
            if not pending:
                sleep(max(0.0, min(entry[0] for entry in delayed) - monotonic()))
                _promote_matured(delayed, pending)
                continue
            job, attempt = pending.popleft()
            started = perf_counter() if profiler is not None else 0.0
            result = execute_with_retries(
                job,
                self.retry_policy,
                self.fault_plan,
                summary,
                self.reporter,
                first_attempt=attempt,
            )
            if profiler is not None:
                profiler.add("simulate", perf_counter() - started)
            if result is not None:
                yield result

    def _charge_timeout(
        self,
        job: CampaignJob,
        attempt: int,
        pending: deque[tuple[CampaignJob, int]],
        summary: ResilienceSummary,
    ) -> None:
        """A job blew its deadline: retry it, quarantine it or abort."""
        policy = self.retry_policy
        summary.timeouts += 1
        fatal = policy is None or not policy.should_retry(attempt)
        failure = job_failure(
            job,
            attempt,
            kind="timeout",
            message=f"job exceeded its {self.job_timeout:.3g}s budget",
            fatal=fatal,
        )
        if fatal:
            summary.record_quarantine(failure)
            if self.reporter is not None:
                self.reporter.quarantine(job.label, attempt, "timeout")
            if policy is None:
                raise JobTimeoutError(failure.message)
            return
        summary.record_retry(failure)
        if self.reporter is not None:
            self.reporter.retry(
                job.label, attempt + 1, policy.max_attempts, "timeout", 0.0
            )
        pending.append((job, attempt + 1))

    def _note_exception(
        self,
        job: CampaignJob,
        attempt: int,
        exc: BaseException,
        pending: deque[tuple[CampaignJob, int]],
        delayed: list[tuple[float, CampaignJob, int]],
        summary: ResilienceSummary,
    ) -> None:
        """A job raised in its worker: retry with backoff, quarantine or abort."""
        policy = self.retry_policy
        fatal = policy is None or not policy.should_retry(attempt)
        failure = job_failure(
            job,
            attempt,
            kind="exception",
            message=f"{type(exc).__name__}: {exc}",
            fatal=fatal,
        )
        if fatal:
            summary.record_quarantine(failure)
            if self.reporter is not None:
                self.reporter.quarantine(job.label, attempt, "exception")
            if policy is None:
                # Pre-resilience contract: the first failure aborts the
                # campaign with the *original* exception (the finally block
                # cancels the other in-flight futures).
                raise exc
            return
        summary.record_retry(failure)
        delay = policy.delay(job.job_id, attempt)
        if self.reporter is not None:
            self.reporter.retry(
                job.label, attempt + 1, policy.max_attempts, "exception", delay
            )
        if delay:
            delayed.append((monotonic() + delay, job, attempt + 1))
        else:
            pending.append((job, attempt + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self.workers})"


def create_executor(
    jobs: int | None = None,
    retry_policy: RetryPolicy | None = None,
    job_timeout: float | None = None,
) -> Executor:
    """Build the executor for a ``--jobs N`` request.

    ``jobs=1`` (or ``None``) is serial; ``jobs=0`` means "one worker per
    CPU"; anything above 1 is a process pool of that size.  ``retry_policy``
    and ``job_timeout`` carry the ``--retries`` / ``--job-timeout`` flags.
    """
    if jobs is None or jobs == 1:
        return SerialExecutor(retry_policy=retry_policy)
    if jobs < 0:
        raise ConfigurationError("--jobs cannot be negative")
    workers = (os.cpu_count() or 1) if jobs == 0 else jobs
    return ParallelExecutor(
        max_workers=workers, retry_policy=retry_policy, job_timeout=job_timeout
    )
