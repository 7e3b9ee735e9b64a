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
as :class:`SerialExecutor` — :func:`~repro.campaign.jobs.run_job` — and
return its :class:`JobResult`, so the store, resume protocol and progress
reporting see the plain per-job stream.  A job's cached :attr:`job_id`
travels in its pickle, so workers never re-hash it.

Resilience contract: job purity also makes *re*-execution free of side
effects, which is what lets :class:`ParallelExecutor` survive worker death.
A :class:`~concurrent.futures.process.BrokenProcessPool` is absorbed by
rebuilding the pool and resubmitting the lost jobs.  A broken pool does not
say which job killed it, so after a break with several jobs in flight those
jobs run again one at a time, ahead of the rest, and only a job that breaks
the pool while running alone is charged an attempt.  More than
:data:`MAX_POOL_REBUILDS` consecutive pool failures degrade execution to the
in-process serial path, which never runs a job that was in flight at a pool
break (it could kill the campaign's own process): such a job is
quarantined, or raises :class:`WorkerCrashError` with ``retries`` = 0.
With ``retries`` > 0 a failed attempt is resubmitted at once, and a poison
job is quarantined after ``retries + 1`` attempts; a per-job wall-clock
budget (``job_timeout``) is each future's deadline, and an expired future
charges exactly its own job.  With
``retries`` = 0 a job failure propagates the original exception on first
sight, serially and in parallel (after cancelling the other in-flight
futures so an aborting campaign never blocks on unrelated jobs).
"""

from __future__ import annotations

# Job deadlines and profiling are wall-clock by nature here (the contract
# test's DET001 skips this module); job *results* derive only from
# (seed, run_index) inside run_job, so host time never reaches the samples.

import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Iterator, Sequence

from ..obs.profiler import CampaignProfiler
from ..sim.errors import ConfigurationError, SimulationError
from .jobs import CampaignJob, JobResult, run_job

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .progress import NullProgress

__all__ = [
    "Executor",
    "JobFailure",
    "JobTimeoutError",
    "ParallelExecutor",
    "ResilienceSummary",
    "SerialExecutor",
    "WorkerCrashError",
    "create_executor",
]

#: Consecutive process-pool failures tolerated before the parallel executor
#: degrades to in-process serial execution.
MAX_POOL_REBUILDS = 3
#: The message of a job quarantined for killing its workers.
CRASH_MESSAGE = "worker process died repeatedly"


class JobTimeoutError(SimulationError):
    """Raised when a job exceeds its wall-clock budget and cannot be retried."""


@dataclass(frozen=True)
class JobFailure:
    """A poison job, quarantined after failing its last attempt."""

    job_id: str
    label: str
    scenario: str
    attempt: int
    #: ``"exception"`` | ``"timeout"`` | ``"worker_crash"``.
    kind: str
    message: str = ""


class WorkerCrashError(SimulationError):
    """Raised, with ``retries`` = 0, for a job that killed its worker until
    the pool was given up: it is not run in the campaign's own process."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(
            f"job {failure.job_id} ({failure.label!r}) was in flight when its "
            f"workers died (attempt {failure.attempt}) until the pool was given "
            "up; it is not run in the campaign's own process"
        )
        self.failure = failure


@dataclass
class ResilienceSummary:
    """What one ``execute()`` call survived (mutable accumulator)."""

    retries: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded: bool = False
    #: Poison jobs quarantined after exhausting their attempts.
    failures: list[JobFailure] = field(default_factory=list)


def warm_up_worker() -> None:
    """No-op task: submitting one per worker makes the pool spawn them all,
    so a profiled campaign can time the spawn on its own."""


def _check_retries(retries: int) -> int:
    if retries < 0:
        raise ConfigurationError("retries cannot be negative")
    return retries


class Executor(ABC):
    """Execution backend interface."""

    #: Worker-process count (1 for in-process backends); used for sizing hints.
    workers: int = 1
    #: Optional per-phase wall-clock profiler, attached by the orchestrator
    #: (:class:`~repro.campaign.campaign.Campaign`).  ``None`` keeps the
    #: execute loops exactly as shipped.
    profiler: CampaignProfiler | None = None
    #: Extra attempts a failing job gets; 0 fails fast.
    retries: int = 0
    #: Optional per-job wall-clock budget in seconds (parallel backend only).
    job_timeout: float | None = None
    #: Optional progress reporter for retry/degrade lines (attached by the
    #: orchestrator; duck-typed to :class:`~repro.campaign.progress.NullProgress`).
    reporter: "NullProgress | None" = None
    #: Resilience accounting of the most recent :meth:`execute` call.
    last_resilience: ResilienceSummary | None = None

    @abstractmethod
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        """Run ``jobs`` and yield each :class:`JobResult` as it completes."""

    def _retry_or_quarantine(
        self,
        job: CampaignJob,
        attempt: int,
        kind: str,
        message: str,
        summary: ResilienceSummary,
    ) -> bool:
        """Charge a failed attempt (``retries`` > 0): True when ``job`` runs
        again as attempt + 1, False once it is quarantined as poison."""
        if attempt <= self.retries:
            summary.retries += 1
            if self.reporter is not None:
                self.reporter.retry(job.label, attempt + 1, self.retries + 1, kind)
            return True
        self._quarantine(job, attempt, kind, message, summary)
        return False

    def _quarantine(
        self,
        job: CampaignJob,
        attempt: int,
        kind: str,
        message: str,
        summary: ResilienceSummary,
    ) -> None:
        summary.failures.append(
            JobFailure(job.job_id, job.label, job.scenario, attempt, kind, message)
        )
        if self.reporter is not None:
            self.reporter.quarantine(job.label, attempt, kind)

    def _run_in_process(
        self, job: CampaignJob, attempt: int, summary: ResilienceSummary
    ) -> JobResult | None:
        """Run ``job`` here from ``attempt`` on; ``None`` once quarantined."""
        while True:
            try:
                return run_job(job)
            except Exception as exc:
                if not self.retries:
                    raise
                message = f"{type(exc).__name__}: {exc}"
                if not self._retry_or_quarantine(job, attempt, "exception", message, summary):
                    return None
                attempt += 1


class SerialExecutor(Executor):
    """Run every job in-process, in order — the debuggable baseline."""

    workers = 1

    def __init__(self, retries: int = 0) -> None:
        self.retries = _check_retries(retries)

    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        profiler = self.profiler
        summary = ResilienceSummary()
        self.last_resilience = summary
        for job in jobs:
            started = perf_counter()
            result = self._run_in_process(job, 1, summary)
            if profiler is not None:
                profiler.add("simulate", perf_counter() - started)
            if result is not None:
                yield result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Fan jobs out over a persistent process pool, one future per job.

    Simulation runs are pure CPU-bound Python, so processes (not threads) are
    the right unit.  At most ``max(4 * workers, 16)`` futures are submitted
    but unfinished at once, so million-job campaigns do not materialise
    their whole frontier in memory.  With a ``job_timeout`` at most one
    future per worker is in flight, so a job's deadline measures its own run
    and never its wait in the pool's queue.

    The dispatch loop survives worker death (pool rebuild + resubmission of
    the lost jobs, one at a time after a break with several in flight, so
    only the job that breaks the pool alone is charged), hung jobs (a job
    past its ``job_timeout`` deadline kills the pool's workers and is
    retried; the other in-flight jobs are requeued at their current
    attempt), and transient job failures (``retries``); after
    :data:`MAX_POOL_REBUILDS` consecutive pool failures it degrades to
    running the remaining jobs serially in-process, except the ones in
    flight at a pool break.  Because jobs are pure, none of this changes a
    single sample — only whether they arrive.
    """

    def __init__(
        self,
        max_workers: int,
        retries: int = 0,
        job_timeout: float | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError("job_timeout must be positive")
        self.workers = max_workers
        self.retries = _check_retries(retries)
        self.job_timeout = job_timeout
        #: Futures cancelled while unwinding the most recent execute() call.
        self.last_cancelled = 0

    # ------------------------------------------------------------------
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        self.last_resilience = ResilienceSummary()
        if not jobs:
            return
        yield from self._execute_core(list(jobs), self.last_resilience)

    def _build_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

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
        reporter = self.reporter
        job_timeout = self.job_timeout
        self.last_cancelled = 0

        #: ``(job, attempt)`` pairs awaiting dispatch.
        pending: deque[tuple[CampaignJob, int]] = deque((job, 1) for job in jobs)
        #: future -> (job, attempt, deadline).
        in_flight: dict[Future, tuple[CampaignJob, int, float | None]] = {}
        limit = self.workers if job_timeout is not None else max(4 * self.workers, 16)
        #: IDs of the jobs in flight at a pool break that have not finished
        #: since.  While there are any, they run one at a time, at the head
        #: of ``pending``, so the next break names its culprit.
        suspects: set[str] = set()
        consecutive_pool_failures = 0

        spawn_started = perf_counter()
        pool = self._build_pool()
        if profiler is not None:
            wait({pool.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - spawn_started, count=self.workers)

        def refill() -> bool:
            """Top the pool up to its in-flight limit; True if it broke."""
            submitted = 0
            submit_started = perf_counter() if profiler is not None else 0.0
            window = 1 if suspects else limit
            try:
                while pending and len(in_flight) < window:
                    job, attempt = pending.popleft()
                    try:
                        future = pool.submit(run_job, job)
                    except BrokenProcessPool:
                        pending.appendleft((job, attempt))
                        return True
                    deadline = None if job_timeout is None else monotonic() + job_timeout
                    in_flight[future] = (job, attempt, deadline)
                    submitted += 1
            finally:
                if profiler is not None and submitted:
                    profiler.add(
                        "dispatch", perf_counter() - submit_started, count=submitted
                    )
            return False

        def charge_crash(job: CampaignJob, attempt: int) -> None:
            """``job`` broke the pool running alone: requeue it behind the
            other suspects, or quarantine it."""
            if self.retries and attempt > self.retries:
                suspects.discard(job.job_id)
                self._quarantine(job, attempt, "worker_crash", CRASH_MESSAGE, summary)
                return
            suspects.add(job.job_id)
            position = 0
            while position < len(pending) and pending[position][0].job_id in suspects:
                position += 1
            pending.insert(position, (job, attempt + 1))

        def rebuild_pool() -> ProcessPoolExecutor:
            summary.pool_rebuilds += 1
            if profiler is None:
                return self._build_pool()
            started = perf_counter()
            fresh = self._build_pool()
            wait({fresh.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - started, count=self.workers)
            return fresh

        def recover_pool(lost: list[tuple[CampaignJob, int]]) -> ProcessPoolExecutor | None:
            """The pool broke: charge the lost jobs, then rebuild it
            (``None`` once the rebuild budget is spent and dispatch degrades).

            ``lost`` are the jobs whose futures reported the break; the jobs
            still in flight are lost with them.  A lone lost job is the
            culprit; several name none, so each becomes a suspect and runs
            again alone, at its current attempt.
            """
            nonlocal consecutive_pool_failures
            summary.worker_crashes += 1
            consecutive_pool_failures += 1
            self._abandon_pool(pool)
            lost = lost + [(job, attempt) for job, attempt, _ in in_flight.values()]
            in_flight.clear()
            if len(lost) == 1:
                charge_crash(*lost[0])
            else:
                for job, attempt in reversed(lost):
                    suspects.add(job.job_id)
                    pending.appendleft((job, attempt))
            if consecutive_pool_failures > MAX_POOL_REBUILDS:
                summary.degraded = True
                if reporter is not None:
                    reporter.degrade(consecutive_pool_failures)
                return None
            return rebuild_pool()

        def poll_timeout() -> float | None:
            """How long the wait may block: until the next job deadline."""
            deadlines = [d for _, _, d in in_flight.values() if d is not None]
            if not deadlines:
                return None
            return max(0.0, min(deadlines) - monotonic())

        try:
            while pending or in_flight:
                if summary.degraded:
                    # Serial endgame: the pool cannot be trusted any more.
                    while pending:
                        job, attempt = pending.popleft()
                        if job.job_id in suspects:
                            # It may be what killed the workers; here it
                            # would kill the campaign.
                            if not self.retries:
                                raise WorkerCrashError(
                                    JobFailure(
                                        job.job_id, job.label, job.scenario, attempt,
                                        "worker_crash", CRASH_MESSAGE,
                                    )
                                )
                            self._quarantine(
                                job, attempt, "worker_crash", CRASH_MESSAGE, summary
                            )
                            continue
                        started = perf_counter() if profiler is not None else 0.0
                        result = self._run_in_process(job, attempt, summary)
                        if profiler is not None:
                            profiler.add("simulate", perf_counter() - started)
                        if result is not None:
                            yield result
                    return

                if refill():  # submission hit a broken pool
                    pool = recover_pool([]) or pool
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
                        continue
                    self._abandon_pool(pool)
                    for future in expired:
                        job, attempt, _ = in_flight.pop(future)
                        suspects.discard(job.job_id)
                        summary.timeouts += 1
                        message = f"job exceeded its {job_timeout:.3g}s budget"
                        if not self.retries:
                            raise JobTimeoutError(message)
                        if self._retry_or_quarantine(job, attempt, "timeout", message, summary):
                            pending.append((job, attempt + 1))
                    # The other in-flight jobs did not hang: they keep their
                    # attempt number.
                    pending.extend((job, attempt) for job, attempt, _ in in_flight.values())
                    in_flight.clear()
                    pool = rebuild_pool()
                    continue

                lost: list[tuple[CampaignJob, int]] = []
                for future in done:
                    job, attempt, _ = in_flight.pop(future)
                    result_started = perf_counter() if profiler is not None else 0.0
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        lost.append((job, attempt))
                        continue
                    except Exception as exc:
                        suspects.discard(job.job_id)
                        consecutive_pool_failures = 0
                        if not self.retries:
                            # Fail fast with the *original* exception (the
                            # finally block cancels the other in-flight
                            # futures).
                            raise
                        message = f"{type(exc).__name__}: {exc}"
                        if self._retry_or_quarantine(
                            job, attempt, "exception", message, summary
                        ):
                            pending.append((job, attempt + 1))
                        continue
                    suspects.discard(job.job_id)
                    consecutive_pool_failures = 0
                    if profiler is not None:
                        profiler.add("result", perf_counter() - result_started)
                    yield result

                if lost:
                    pool = recover_pool(lost) or pool
        finally:
            self.last_cancelled = sum(1 for future in in_flight if future.cancel())
            shutdown_started = perf_counter() if profiler is not None else 0.0
            pool.shutdown(wait=True, cancel_futures=True)
            if profiler is not None:
                profiler.add("spawn", perf_counter() - shutdown_started, count=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self.workers})"


def create_executor(
    jobs: int | None = None,
    retries: int = 0,
    job_timeout: float | None = None,
) -> Executor:
    """Build the executor for a ``--jobs N`` request.

    ``jobs=1`` (or ``None``) is serial; ``jobs=0`` means "one worker per
    CPU"; anything above 1 is a process pool of that size.  ``retries`` and
    ``job_timeout`` carry the ``--retries`` / ``--job-timeout`` flags.
    """
    if jobs is None or jobs == 1:
        return SerialExecutor(retries=retries)
    if jobs < 0:
        raise ConfigurationError("--jobs cannot be negative")
    workers = (os.cpu_count() or 1) if jobs == 0 else jobs
    return ParallelExecutor(max_workers=workers, retries=retries, job_timeout=job_timeout)
