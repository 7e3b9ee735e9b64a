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

Dispatch contract: the parallel backend amortises its per-job overheads by
shipping *chunked batches* (:mod:`repro.campaign.batches`) to a pool of
persistent warm workers.  Jobs are grouped by shared context (workload +
platform config + scenario knobs), the context is pickled once per campaign,
and a worker receives one :class:`~repro.campaign.batches.JobBatch` — context
blob plus a compact per-job table — and returns one columnar
:class:`~repro.campaign.batches.BatchResult`.  Chunk sizes adapt per context
from measured seconds-per-job toward a target seconds-per-chunk, starting at
one job (the probe) so short campaigns keep full parallelism.  The executor
still *yields per-job results*: each batch is split back into
:class:`JobResult` records as it streams in, so the store, resume protocol
and progress reporting see exactly the per-job stream they always did.

Resilience contract: job purity also makes *re*-execution free of side
effects, which is what lets :class:`ParallelExecutor` survive worker death —
now at batch granularity.  A :class:`~concurrent.futures.process.
BrokenProcessPool` is absorbed by rebuilding the pool and resubmitting the
lost batches' jobs (under a fault plan only the known culprits are charged an
attempt); repeated pool failures degrade execution to the in-process serial
path; a configured :class:`~repro.campaign.resilience.RetryPolicy` retries
transient job exceptions with seeded backoff and quarantines poison jobs
after their attempt budget (a failed job stops only its own batch: the
completed prefix is folded, the untouched suffix is requeued); a per-job
wall-clock budget (``job_timeout``) scales to a per-batch deadline that kills
hung workers.  Retried jobs are dispatched as singleton batches, so fault
accounting stays per-job exact.  With no policy/plan/profiler configured the
serial path is exactly the pre-resilience one, and a parallel failure still
propagates the original exception on first sight (after cancelling the other
in-flight futures so an aborting campaign never blocks on unrelated batches).
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
from typing import TYPE_CHECKING, ClassVar, Iterator, Sequence

from ..obs.profiler import CampaignProfiler
from ..sim.errors import ConfigurationError
from .batches import (
    JobContext,
    batch_jobs,
    pickle_context,
    run_batch,
    warm_up_worker,
)
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
    from .faults import FaultPlan
    from .progress import NullProgress

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "create_executor"]


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
    fault_plan: "FaultPlan | None" = None
    #: Optional progress reporter for retry/degrade lines (attached by the
    #: orchestrator; duck-typed to :class:`~repro.campaign.progress.NullProgress`).
    reporter: "NullProgress | None" = None
    #: Resilience accounting of the most recent :meth:`execute` call.
    last_resilience: ResilienceSummary | None = None
    #: Batched-dispatch accounting of the most recent :meth:`execute` call
    #: (chunk sizes, worker cache hits); empty for in-process backends.
    last_batch_stats: ClassVar[dict[str, object]] = {}

    @abstractmethod
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        """Run ``jobs`` and yield each :class:`JobResult` as it completes."""


class SerialExecutor(Executor):
    """Run every job in-process, in order — the debuggable baseline."""

    workers = 1

    def __init__(
        self,
        retry_policy: RetryPolicy | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan

    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        profiler = self.profiler
        summary = ResilienceSummary()
        self.last_resilience = summary
        if profiler is None and self.retry_policy is None and self.fault_plan is None:
            # The seed hot path, byte-for-byte: nothing but run_job calls.
            for job in jobs:
                yield run_job(job)
            return
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


class _ContextGroup:
    """One shared-context dispatch queue: pickled blob + pending jobs + EMA."""

    __slots__ = ("blob", "ema_job_seconds", "key", "queue")

    def __init__(self, key: str, blob: bytes) -> None:
        self.key = key
        self.blob = blob
        #: ``(job, attempt)`` pairs awaiting first-attempt batch dispatch.
        self.queue: deque[tuple[CampaignJob, int]] = deque()
        #: Exponential moving average of measured seconds per job.
        self.ema_job_seconds: float | None = None

    def observe(self, seconds_per_job: float) -> None:
        if self.ema_job_seconds is None:
            self.ema_job_seconds = seconds_per_job
        else:
            self.ema_job_seconds = 0.5 * self.ema_job_seconds + 0.5 * seconds_per_job


class _InFlightBatch:
    """Bookkeeping for one submitted batch future."""

    __slots__ = ("context", "deadline", "entries")

    def __init__(
        self,
        entries: list[tuple[CampaignJob, int]],
        context: _ContextGroup,
        deadline: float | None,
    ) -> None:
        self.entries = entries
        self.context = context
        self.deadline = deadline


class ParallelExecutor(Executor):
    """Fan chunked job batches out over a persistent process pool.

    Simulation runs are pure CPU-bound Python, so processes (not threads) are
    the right unit.  ``max_in_flight`` bounds the number of submitted-but-
    unfinished batch futures so million-job campaigns do not materialise
    their whole frontier in memory at once.

    Chunking: jobs are grouped by shared context; each context's chunk size
    adapts from the measured per-job seconds toward ``chunk_target_seconds``
    per batch (clamped to ``max_chunk_jobs`` and spread across workers near
    the tail), or is pinned with ``chunk_jobs``.

    The dispatch loop survives worker death (pool rebuild + resubmission of
    the lost batches), hung batches (``job_timeout`` scales to a per-batch
    deadline that kills the pool's workers and requeues), and transient job
    failures (``retry_policy``); after ``max_pool_rebuilds`` consecutive pool
    failures it degrades to running the remaining jobs serially in-process.
    Because jobs are pure, none of this changes a single sample — only
    whether they arrive.
    """

    def __init__(
        self,
        max_workers: int,
        max_in_flight: int | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        chunk_target_seconds: float = 0.25,
        chunk_jobs: int | None = None,
        max_chunk_jobs: int = 64,
    ) -> None:
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError("job_timeout must be positive")
        if chunk_target_seconds <= 0:
            raise ConfigurationError("chunk_target_seconds must be positive")
        if chunk_jobs is not None and chunk_jobs <= 0:
            raise ConfigurationError("chunk_jobs must be positive")
        if max_chunk_jobs <= 0:
            raise ConfigurationError("max_chunk_jobs must be positive")
        self.workers = max_workers
        self.max_in_flight = max_in_flight or max(4 * max_workers, 16)
        self.retry_policy = retry_policy
        self.job_timeout = job_timeout
        self.fault_plan = fault_plan
        self.chunk_target_seconds = chunk_target_seconds
        self.chunk_jobs = chunk_jobs
        self.max_chunk_jobs = max_chunk_jobs
        #: Futures cancelled while unwinding the most recent execute() call.
        self.last_cancelled = 0
        self.last_batch_stats: dict[str, object] = {}

    # ------------------------------------------------------------------
    def execute(self, jobs: Sequence[CampaignJob]) -> Iterator[JobResult]:
        self.last_resilience = ResilienceSummary()
        self.last_batch_stats = {}
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
        it) deterministic regardless of dispatch timing or batch shape.
        """
        if self.fault_plan is None:
            return attempt + 1
        from .faults import CRASH

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
    # The resilient batched dispatch loop
    # ------------------------------------------------------------------
    def _execute_core(
        self, jobs: list[CampaignJob], summary: ResilienceSummary
    ) -> Iterator[JobResult]:
        profiler = self.profiler
        policy = self.retry_policy
        reporter = self.reporter
        plan = self.fault_plan
        self.last_cancelled = 0
        stats: dict[str, object] = {
            "batches": 0,
            "jobs_dispatched": 0,
            "max_chunk_jobs": 0,
            "contexts": 0,
            "context_cache_hits": 0,
            "context_cache_misses": 0,
        }
        self.last_batch_stats = stats

        # Group first-attempt jobs by shared context; the context is pickled
        # once here and the same bytes blob rides along with every batch.
        contexts: list[_ContextGroup] = []
        group_index: dict[object, _ContextGroup] = {}
        context_of: dict[str, _ContextGroup] = {}
        for job in jobs:
            context = JobContext.from_job(job)
            try:
                group = group_index.get(context)
            except TypeError:  # unhashable option value: its own group
                group = None
                context = None
            if group is None:
                key, blob = pickle_context(
                    context if context is not None else JobContext.from_job(job)
                )
                group = _ContextGroup(key, blob)
                contexts.append(group)
                if context is not None:
                    group_index[context] = group
            group.queue.append((job, 1))
            context_of[job.job_id] = group
        stats["contexts"] = len(contexts)

        #: Retries and crash suspects: dispatched as singleton batches so
        #: fault charging stays per-job exact and poison cannot starve a chunk.
        solo: deque[tuple[CampaignJob, int]] = deque()
        #: (ready_at, job, attempt) parked for a backoff delay.
        delayed: list[tuple[float, CampaignJob, int]] = []
        in_flight: dict[Future, _InFlightBatch] = {}
        consecutive_pool_failures = 0
        rotation = 0  # round-robin cursor over context groups

        spawn_started = perf_counter()
        pool = self._build_pool()
        if profiler is not None:
            wait({pool.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - spawn_started, count=self.workers)

        def have_pending() -> bool:
            return bool(solo) or any(group.queue for group in contexts)

        def requeue(job: CampaignJob, attempt: int, front: bool = False) -> None:
            """Put one job back where its next dispatch belongs."""
            if attempt > 1:
                target: deque = solo
            else:
                target = context_of[job.job_id].queue
            if front:
                target.appendleft((job, attempt))
            else:
                target.append((job, attempt))

        def chunk_size(group: _ContextGroup) -> int:
            if self.chunk_jobs is not None:
                return min(self.chunk_jobs, len(group.queue))
            if group.ema_job_seconds is None:
                return 1  # probe: measure before amortising
            size = int(self.chunk_target_seconds / max(group.ema_job_seconds, 1e-9))
            size = max(1, min(size, self.max_chunk_jobs))
            # Near the tail, spread what is left across the workers instead
            # of parking it all in one batch.
            size = min(size, max(1, -(-len(group.queue) // self.workers)))
            return min(size, len(group.queue))

        def next_batch() -> tuple[list[tuple[CampaignJob, int]], _ContextGroup] | None:
            nonlocal rotation
            if solo:
                job, attempt = solo.popleft()
                return [(job, attempt)], context_of[job.job_id]
            for _ in range(len(contexts)):
                group = contexts[rotation % len(contexts)]
                rotation += 1
                if group.queue:
                    size = chunk_size(group)
                    return [group.queue.popleft() for _ in range(size)], group
            return None

        def submit_batch(
            entries: list[tuple[CampaignJob, int]], group: _ContextGroup
        ) -> Future:
            batch = batch_jobs(entries, group.key, group.blob)
            future = pool.submit(run_batch, batch, plan)
            deadline = (
                None
                if self.job_timeout is None
                else monotonic() + self.job_timeout * len(entries)
            )
            in_flight[future] = _InFlightBatch(entries, group, deadline)
            stats["batches"] += 1  # type: ignore[operator]
            stats["jobs_dispatched"] += len(entries)  # type: ignore[operator]
            stats["max_chunk_jobs"] = max(stats["max_chunk_jobs"], len(entries))  # type: ignore[call-overload]
            return future

        def refill() -> bool:
            """Top the pool up to ``max_in_flight`` batches; True if it broke."""
            if delayed:
                now = monotonic()
                matured = [entry for entry in delayed if entry[0] <= now]
                for entry in matured:
                    delayed.remove(entry)
                    solo.append((entry[1], entry[2]))
            submitted = 0
            submit_started = perf_counter() if profiler is not None else 0.0
            try:
                while len(in_flight) < self.max_in_flight:
                    picked = next_batch()
                    if picked is None:
                        break
                    entries, group = picked
                    try:
                        submit_batch(entries, group)
                    except BrokenProcessPool:
                        for job, attempt in reversed(entries):
                            requeue(job, attempt, front=True)
                        return True
                    submitted += 1
            finally:
                if profiler is not None and submitted:
                    profiler.add(
                        "dispatch", perf_counter() - submit_started, count=submitted
                    )
                    profiler.count("batches", submitted)
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
            requeue(job, next_attempt)

        def requeue_lost(next_attempt: bool) -> None:
            """Move every in-flight batch's jobs back to pending (pool gone)."""
            for entry in in_flight.values():
                for job, attempt in entry.entries:
                    if next_attempt:
                        charge_crash(job, attempt)
                    else:
                        requeue(job, attempt)
            in_flight.clear()

        def rebuild_pool() -> ProcessPoolExecutor:
            summary.pool_rebuilds += 1
            if profiler is None:
                return self._build_pool()
            started = perf_counter()
            fresh = self._build_pool()
            wait({fresh.submit(warm_up_worker) for _ in range(self.workers)})
            profiler.add("spawn", perf_counter() - started, count=self.workers)
            return fresh

        def poll_timeout() -> float | None:
            """How long the wait may block: next deadline or backoff expiry."""
            bounds = []
            if self.job_timeout is not None and in_flight:
                bounds.append(
                    min(e.deadline for e in in_flight.values() if e.deadline)
                )
            if delayed:
                bounds.append(min(entry[0] for entry in delayed))
            if not bounds:
                return None
            return max(0.0, min(bounds) - monotonic())

        try:
            while have_pending() or delayed or in_flight:
                if summary.degraded:
                    # Serial endgame: the pool cannot be trusted any more.
                    pending: deque[tuple[CampaignJob, int]] = deque(solo)
                    solo.clear()
                    for group in contexts:
                        pending.extend(group.queue)
                        group.queue.clear()
                    while pending or delayed:
                        if not pending:
                            ready_at = min(entry[0] for entry in delayed)
                            sleep(max(0.0, ready_at - monotonic()))
                            refill_now = monotonic()
                            for entry in list(delayed):
                                if entry[0] <= refill_now:
                                    delayed.remove(entry)
                                    pending.append((entry[1], entry[2]))
                            continue
                        job, attempt = pending.popleft()
                        started = perf_counter() if profiler is not None else 0.0
                        result = execute_with_retries(
                            job,
                            policy,
                            plan,
                            summary,
                            reporter,
                            first_attempt=attempt,
                        )
                        if profiler is not None:
                            profiler.add("simulate", perf_counter() - started)
                        if result is not None:
                            yield result
                    return

                if refill():  # submission hit a broken pool
                    summary.worker_crashes += 1
                    consecutive_pool_failures += 1
                    self._abandon_pool(pool)
                    requeue_lost(next_attempt=True)
                    if consecutive_pool_failures > self._max_pool_rebuilds():
                        summary.degraded = True
                        if reporter is not None:
                            reporter.degrade(consecutive_pool_failures)
                        continue
                    pool = rebuild_pool()
                    continue

                if not in_flight:
                    if delayed and not have_pending():
                        # Everything is parked on a backoff delay: sleep it off
                        # instead of spinning on refill().
                        ready_at = min(entry[0] for entry in delayed)
                        sleep(max(0.0, ready_at - monotonic()))
                        continue
                    if have_pending():
                        continue
                    break

                wait_started = perf_counter() if profiler is not None else 0.0
                done, _ = wait(
                    tuple(in_flight), timeout=poll_timeout(), return_when=FIRST_COMPLETED
                )
                if profiler is not None:
                    profiler.add("simulate", perf_counter() - wait_started)

                if not done:
                    # The wait timed out: sweep expired batch deadlines.
                    now = monotonic()
                    expired = [
                        future
                        for future, entry in in_flight.items()
                        if entry.deadline is not None and entry.deadline <= now
                    ]
                    if not expired:
                        continue  # woke up for a backoff expiry, not a hang
                    self._abandon_pool(pool)
                    for future in expired:
                        entry = in_flight.pop(future)
                        self._charge_timeouts(entry, solo, summary)
                    requeue_lost(next_attempt=False)  # innocent bystanders
                    pool = rebuild_pool()
                    continue

                pool_broken = False
                for future in done:
                    entry = in_flight.pop(future)
                    result_started = perf_counter() if profiler is not None else 0.0
                    try:
                        batch_result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        for job, attempt in entry.entries:
                            charge_crash(job, attempt)
                        continue
                    except Exception as exc:
                        # A batch-level failure outside any job (transport,
                        # unpickling): charge the first undone job, keep the
                        # rest queued at their attempt.
                        consecutive_pool_failures = 0
                        first_job, first_attempt = entry.entries[0]
                        for job, attempt in entry.entries[1:]:
                            requeue(job, attempt)
                        self._note_exception(
                            first_job, first_attempt, exc, solo, delayed, summary
                        )
                        continue

                    consecutive_pool_failures = 0
                    folded = batch_result.split()
                    if profiler is not None:
                        profiler.add(
                            "result",
                            perf_counter() - result_started,
                            count=len(folded),
                        )
                        profiler.count(
                            "cache_hit" if batch_result.context_cache_hit
                            else "cache_miss"
                        )
                    stats["context_cache_hits"] += int(batch_result.context_cache_hit)  # type: ignore[operator]
                    stats["context_cache_misses"] += int(  # type: ignore[operator]
                        not batch_result.context_cache_hit
                    )
                    if folded:
                        elapsed = sum(batch_result.elapsed) or 1e-9
                        entry.context.observe(elapsed / len(folded))
                    for job_result in folded:
                        yield job_result
                    if batch_result.failed_index is not None:
                        # The culprit stopped the batch; rows after it were
                        # never started and go straight back to the queue.
                        for job, attempt in entry.entries[
                            batch_result.failed_index + 1 :
                        ]:
                            requeue(job, attempt)
                        job, attempt = entry.entries[batch_result.failed_index]
                        self._note_exception(
                            job,
                            attempt,
                            batch_result.failure_exception(),
                            solo,
                            delayed,
                            summary,
                        )

                if pool_broken:
                    summary.worker_crashes += 1
                    consecutive_pool_failures += 1
                    self._abandon_pool(pool)
                    requeue_lost(next_attempt=True)
                    if consecutive_pool_failures > self._max_pool_rebuilds():
                        summary.degraded = True
                        if reporter is not None:
                            reporter.degrade(consecutive_pool_failures)
                        continue
                    pool = rebuild_pool()
        finally:
            batches = stats["batches"]
            stats["mean_chunk_jobs"] = (
                round(stats["jobs_dispatched"] / batches, 3) if batches else 0.0  # type: ignore[operator]
            )
            self.last_cancelled = sum(1 for future in in_flight if future.cancel())
            shutdown_started = perf_counter() if profiler is not None else 0.0
            pool.shutdown(wait=True, cancel_futures=True)
            if profiler is not None:
                profiler.add("spawn", perf_counter() - shutdown_started, count=0)

    # ------------------------------------------------------------------
    def _charge_timeouts(
        self,
        entry: _InFlightBatch,
        solo: deque,
        summary: ResilienceSummary,
    ) -> None:
        """One batch blew its deadline: charge the culprits, spare the rest.

        Under a fault plan the hang's culprit is known exactly (the plan is a
        pure function of ``(job_id, attempt)``), so only the planned hangs
        are charged a timeout and innocent rows keep their attempt number.
        Without a plan nothing distinguishes the rows, so every job in the
        expired batch is conservatively charged — the same ambiguity a
        broken pool has.
        """
        policy = self.retry_policy
        plan = self.fault_plan
        culprits: list[tuple[CampaignJob, int]] = []
        if plan is not None:
            from .faults import HANG

            culprits = [
                (job, attempt)
                for job, attempt in entry.entries
                if plan.decide(job.job_id, attempt) == HANG
            ]
        if not culprits:
            culprits = list(entry.entries)
        culprit_ids = {job.job_id for job, _ in culprits}
        for job, attempt in entry.entries:
            if job.job_id not in culprit_ids:
                if attempt > 1:
                    solo.append((job, attempt))
                else:
                    # Innocent first-attempt rows rejoin their context queue
                    # through the shared requeue path in the dispatch loop.
                    solo.append((job, attempt))
                continue
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
            else:
                summary.record_retry(failure)
                if self.reporter is not None:
                    self.reporter.retry(
                        job.label, attempt + 1, policy.max_attempts, "timeout", 0.0
                    )
                solo.append((job, attempt + 1))

    def _note_exception(
        self,
        job: CampaignJob,
        attempt: int,
        exc: BaseException,
        solo: deque,
        delayed: list,
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
            solo.append((job, attempt + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self.workers})"


def create_executor(
    jobs: int | None = None,
    retry_policy: RetryPolicy | None = None,
    job_timeout: float | None = None,
    chunk_target_seconds: float | None = None,
    chunk_jobs: int | None = None,
) -> Executor:
    """Build the executor for a ``--jobs N`` request.

    ``jobs=1`` (or ``None``) is serial; ``jobs=0`` means "one worker per
    CPU"; anything above 1 is a process pool of that size.  ``retry_policy``
    and ``job_timeout`` carry the ``--retries`` / ``--job-timeout`` flags;
    ``chunk_target_seconds`` / ``chunk_jobs`` carry the batched-dispatch
    tuning flags (``--chunk-seconds`` / ``--chunk-jobs``).
    """
    if jobs is None or jobs == 1:
        return SerialExecutor(retry_policy=retry_policy)
    if jobs < 0:
        raise ConfigurationError("--jobs cannot be negative")
    workers = (os.cpu_count() or 1) if jobs == 0 else jobs
    kwargs: dict[str, object] = {}
    if chunk_target_seconds is not None:
        kwargs["chunk_target_seconds"] = chunk_target_seconds
    if chunk_jobs is not None:
        kwargs["chunk_jobs"] = chunk_jobs
    return ParallelExecutor(
        max_workers=workers,
        retry_policy=retry_policy,
        job_timeout=job_timeout,
        **kwargs,  # type: ignore[arg-type]
    )
