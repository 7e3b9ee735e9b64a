"""Chunked job batches: the amortised unit of parallel dispatch.

One-future-per-job dispatch pays worker spawn, pickling and result transfer
per *job*, which swamps the now-fast per-run simulation (the
``speedup_pool_vs_serial < 1`` mystery the PR 6 profiler pinned down).  This
module provides the batched alternative:

* :class:`JobContext` — everything the jobs of one campaign/platform point
  share (scenario, seed, workload, config, options...).  The parent pickles
  it **once** per unique context (pickle protocol 5) and re-sends the same
  ``bytes`` blob with every batch, so repeated grid labels never re-serialise
  their workload/config object graphs.
* :class:`JobBatch` — one context blob plus a compact per-job parameter
  table (ids, labels, run starts, run counts, attempt numbers).  One pickle
  round-trip dispatches the whole chunk.
* :func:`run_batch` — the worker entry point.  Warm workers keep a
  process-global cache of deserialised contexts keyed by content hash, so a
  context blob is unpickled once per worker, not once per batch.  Traces
  are not cached: each run materialises its own, because a warm worker
  could replay cached columns only for draw-free specs, which almost no
  registered workload is.
* :class:`BatchResult` — the columnar return trip: all samples of the batch
  as one ``float64`` array, per-run metrics as named columns, and per-job
  boundaries recovered from the run counts.  :meth:`~
  BatchResult.split` folds it back into the per-job
  :class:`~repro.campaign.jobs.JobResult` records the store and the resume
  protocol require — bit-identical to what per-job dispatch produced.

Fault semantics at batch granularity: jobs execute in table order inside the
worker; an injected (or genuine) per-job exception stops the batch and the
result carries the completed prefix, the failing index and the *pickled
original exception*, so the executor can charge the culprit and requeue the
untouched suffix.  Injected worker crashes ``os._exit`` mid-batch exactly
like a segfault would, and hangs stall the batch until the executor's batch
deadline kills the pool.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .jobs import CampaignJob, JobResult, run_job

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .faults import FaultPlan

__all__ = [
    "BatchResult",
    "JobBatch",
    "JobContext",
    "batch_jobs",
    "run_batch",
    "warm_up_worker",
]

#: Out-of-band-buffer-capable protocol used for context blobs and results.
PICKLE_PROTOCOL = 5

#: Contexts kept per worker before the oldest is evicted (a campaign grid
#: rarely has more than a handful of distinct platform points).
CONTEXT_CACHE_SIZE = 64

@dataclass(frozen=True)
class JobContext:
    """The fields a chunk of jobs shares — sent once, cached per worker."""

    scenario: str
    seed: int
    workload: object
    config: object
    options: tuple
    tua_core: int
    max_cycles: int

    @classmethod
    def from_job(cls, job: CampaignJob) -> "JobContext":
        return cls(
            scenario=job.scenario,
            seed=job.seed,
            workload=job.workload,
            config=job.config,
            options=job.options,
            tua_core=job.tua_core,
            max_cycles=job.max_cycles,
        )

    def rebuild(self, label: str, run_start: int, num_runs: int) -> CampaignJob:
        """Reconstruct the full job for one row of a batch's parameter table."""
        return CampaignJob(
            label=label,
            scenario=self.scenario,
            seed=self.seed,
            run_start=run_start,
            num_runs=num_runs,
            workload=self.workload,  # type: ignore[arg-type]
            config=self.config,  # type: ignore[arg-type]
            options=self.options,
            tua_core=self.tua_core,
            max_cycles=self.max_cycles,
        )


def pickle_context(context: JobContext) -> tuple[str, bytes]:
    """Serialise ``context`` once; returns ``(content_key, blob)``.

    The key is a hash of the blob itself: the parent computes it, workers
    only ever use the transmitted key, so it merely has to be collision-free
    within one campaign — no cross-process pickle determinism is assumed.
    """
    blob = pickle.dumps(context, protocol=PICKLE_PROTOCOL)
    key = hashlib.blake2b(blob, digest_size=16).hexdigest()
    return key, blob


@dataclass(frozen=True)
class JobBatch:
    """One dispatch unit: a shared context plus a per-job parameter table."""

    context_key: str
    #: The pre-pickled :class:`JobContext`.  Re-submitting the same ``bytes``
    #: object is a memcpy for the pool's pickler — the object graph behind it
    #: is serialised once per campaign, not once per batch.
    context_blob: bytes
    job_ids: tuple[str, ...]
    labels: tuple[str, ...]
    run_starts: tuple[int, ...]
    num_runs: tuple[int, ...]
    attempts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.job_ids)


def batch_jobs(
    jobs: Sequence[tuple[CampaignJob, int]],
    context_key: str,
    context_blob: bytes,
) -> JobBatch:
    """Pack ``(job, attempt)`` pairs sharing one context into a batch."""
    return JobBatch(
        context_key=context_key,
        context_blob=context_blob,
        job_ids=tuple(job.job_id for job, _ in jobs),
        labels=tuple(job.label for job, _ in jobs),
        run_starts=tuple(job.run_start for job, _ in jobs),
        num_runs=tuple(job.num_runs for job, _ in jobs),
        attempts=tuple(attempt for _, attempt in jobs),
    )


@dataclass
class BatchResult:
    """The columnar return trip of one executed (or partly executed) batch.

    ``completed`` jobs form a prefix of the batch's table; their samples are
    concatenated into one ``float64`` column (``num_runs`` recovers the
    per-job boundaries).  Per-run metrics travel as named columns when every
    run produced the same scalar keys (the platform scenarios always do) and
    fall back to plain per-run dicts otherwise.  A per-job exception leaves
    ``failed_index`` pointing at the culprit and ``failure_blob`` carrying
    the pickled original exception; rows after the culprit were never
    started.
    """

    context_key: str
    job_ids: tuple[str, ...]
    labels: tuple[str, ...]
    scenario: str
    run_starts: tuple[int, ...]
    num_runs: tuple[int, ...]
    completed: int
    samples: np.ndarray
    metric_names: tuple[str, ...] | None
    metric_columns: tuple[np.ndarray, ...] | None
    metrics_rows: tuple[dict, ...] | None
    payloads: tuple
    truncated: tuple[int, ...]
    elapsed: tuple[float, ...]
    #: Worker-side cache accounting, folded into the profiler's counters.
    context_cache_hit: bool = False
    failed_index: int | None = None
    failure_blob: bytes | None = None
    failure_message: str = ""

    # ------------------------------------------------------------------
    def failure_exception(self) -> BaseException:
        """The original exception the culprit job raised, re-materialised."""
        if self.failure_blob is not None:
            try:
                exc = pickle.loads(self.failure_blob)
            except Exception:  # unpicklable custom exception: degrade to message
                exc = None
            if isinstance(exc, BaseException):
                return exc
        return RuntimeError(self.failure_message or "batched job failed")

    def split(self) -> list[JobResult]:
        """Fold the columnar batch back into per-job results (completed only)."""
        samples = self.samples
        results: list[JobResult] = []
        offset = 0
        for index in range(self.completed):
            runs = self.num_runs[index]
            block = samples[offset : offset + runs]
            if self.metric_columns is not None and self.metric_names is not None:
                metrics = tuple(
                    {
                        name: float(column[offset + run])
                        for name, column in zip(self.metric_names, self.metric_columns, strict=True)
                    }
                    for run in range(runs)
                )
            elif self.metrics_rows is not None:
                metrics = tuple(self.metrics_rows[offset : offset + runs])
            else:
                metrics = ()
            results.append(
                JobResult(
                    job_id=self.job_ids[index],
                    label=self.labels[index],
                    scenario=self.scenario,
                    run_start=self.run_starts[index],
                    num_runs=runs,
                    samples=tuple(block.tolist()),
                    metrics=metrics,
                    truncated_runs=self.truncated[index],
                    payloads=tuple(self.payloads[offset : offset + runs]),
                    elapsed_seconds=self.elapsed[index],
                )
            )
            offset += runs
        return results


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker cache of deserialised contexts, keyed by content hash.
_CONTEXT_CACHE: dict[str, JobContext] = {}


def warm_up_worker() -> None:
    """No-op task: submitting one per worker makes the pool spawn them all,
    so a profiled campaign can time the spawn on its own."""


def _context_for(batch: JobBatch) -> tuple[JobContext, bool]:
    """Fetch (or unpickle and cache) the batch's context; True on cache hit."""
    context = _CONTEXT_CACHE.get(batch.context_key)
    if context is not None:
        return context, True
    context = pickle.loads(batch.context_blob)
    while len(_CONTEXT_CACHE) >= CONTEXT_CACHE_SIZE:
        _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
    _CONTEXT_CACHE[batch.context_key] = context
    return context, False


def _pack_metrics(
    rows: list[dict],
) -> tuple[tuple[str, ...] | None, tuple[np.ndarray, ...] | None, tuple[dict, ...] | None]:
    """Columnarise per-run metrics when every run shares the same scalar keys."""
    if not rows:
        return None, None, None
    names = tuple(rows[0])
    uniform = all(
        tuple(row) == names
        and all(isinstance(value, (int, float)) for value in row.values())
        for row in rows
    )
    if not uniform:
        return None, None, tuple(rows)
    columns = tuple(
        np.array([row[name] for row in rows], dtype=np.float64) for name in names
    )
    return names, columns, None


def run_batch(batch: JobBatch, plan: "FaultPlan | None" = None) -> BatchResult:
    """Execute a batch's jobs in table order inside a (warm) worker.

    Each row goes through exactly the code path per-job dispatch used —
    :func:`~repro.campaign.jobs.run_job`, wrapped by the fault injector when
    a plan is configured — so the per-job results are bit-identical to
    unbatched execution; only the transport is columnar.
    """
    context, cache_hit = _context_for(batch)
    job_results: list[JobResult] = []
    failure_blob: bytes | None = None
    failure_message = ""
    failed_index: int | None = None
    for index in range(len(batch)):
        job = context.rebuild(
            batch.labels[index], batch.run_starts[index], batch.num_runs[index]
        )
        # Seed the content hash from the table: the parent keys everything by
        # these ids, and recomputing the canonical-JSON digest per job would
        # re-pay what batching just amortised.
        job.__dict__["job_id"] = batch.job_ids[index]
        try:
            if plan is None:
                result = run_job(job)
            else:
                from .faults import run_job_with_faults

                result = run_job_with_faults(job, batch.attempts[index], plan)
        except Exception as exc:
            failed_index = index
            failure_message = f"{type(exc).__name__}: {exc}"
            try:
                failure_blob = pickle.dumps(exc, protocol=PICKLE_PROTOCOL)
            except Exception:
                failure_blob = None
            break
        job_results.append(result)

    completed = len(job_results)
    if job_results:
        samples = np.concatenate([result.samples_array for result in job_results])
    else:
        samples = np.empty(0, dtype=np.float64)
    metric_rows = [dict(metrics) for result in job_results for metrics in result.metrics]
    metric_names, metric_columns, metrics_rows = _pack_metrics(metric_rows)
    payloads = tuple(
        payload for result in job_results for payload in result.payloads
    )
    elapsed = tuple(result.elapsed_seconds for result in job_results)
    return BatchResult(
        context_key=batch.context_key,
        job_ids=batch.job_ids,
        labels=batch.labels,
        scenario=context.scenario,
        run_starts=batch.run_starts,
        num_runs=tuple(batch.num_runs),
        completed=completed,
        samples=samples,
        metric_names=metric_names,
        metric_columns=metric_columns,
        metrics_rows=metrics_rows,
        payloads=payloads,
        truncated=tuple(result.truncated_runs for result in job_results),
        elapsed=elapsed,
        context_cache_hit=cache_hit,
        failed_index=failed_index,
        failure_blob=failure_blob,
        failure_message=failure_message,
    )
