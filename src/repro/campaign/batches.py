"""Warm-worker job transport: one job per future, one context per campaign.

The jobs of one campaign grid point differ only in their run indices; the
scenario, seed, workload, platform config and options are shared.  Those
shared fields form a :class:`JobContext`.  The parallel executor pickles each
distinct context **once** per campaign (pickle protocol 5) under a blake2b
content key and submits every job as ``(key, blob, id, label, run start, run
count, attempt)``.  Re-submitting the same ``bytes`` object is a memcpy for
the pool's pickler, so repeated grid labels never re-serialise their
workload/config object graphs.

:func:`run_job_in_worker` is the worker entry point.  Persistent workers keep
a process-global cache of deserialised contexts keyed by the content key, so
a context blob is unpickled once per worker, not once per job.  The worker
rebuilds the job, runs it through :func:`~repro.campaign.jobs.run_job`
(wrapped by the fault injector when a plan is configured) and returns
``(JobResult, cache_hit)``.

Faults stay per job: an exception reaches the parent as the job's own
future's exception, an injected crash ``os._exit``\\ s the worker the way a
segfault would, and a hang stalls its future until the executor's per-job
deadline kills the pool.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .jobs import CampaignJob, JobResult, run_job

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .faults import FaultPlan

__all__ = [
    "JobContext",
    "pickle_context",
    "run_job_in_worker",
    "warm_up_worker",
]

#: Out-of-band-buffer-capable protocol used for context blobs.
PICKLE_PROTOCOL = 5

#: Contexts kept per worker before the oldest is evicted (a campaign grid
#: rarely has more than a handful of distinct platform points).
CONTEXT_CACHE_SIZE = 64


@dataclass(frozen=True)
class JobContext:
    """The fields the jobs of one grid point share — sent once, cached per worker."""

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
        """Reconstruct the full job from its per-job fields."""
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


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker cache of deserialised contexts, keyed by content hash.
_CONTEXT_CACHE: dict[str, JobContext] = {}


def warm_up_worker() -> None:
    """No-op task: submitting one per worker makes the pool spawn them all,
    so a profiled campaign can time the spawn on its own."""


def _context_for(context_key: str, context_blob: bytes) -> tuple[JobContext, bool]:
    """Fetch (or unpickle and cache) a context; True on cache hit."""
    context = _CONTEXT_CACHE.get(context_key)
    if context is not None:
        return context, True
    context = pickle.loads(context_blob)
    while len(_CONTEXT_CACHE) >= CONTEXT_CACHE_SIZE:
        _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
    _CONTEXT_CACHE[context_key] = context
    return context, False


def run_job_in_worker(
    context_key: str,
    context_blob: bytes,
    job_id: str,
    label: str,
    run_start: int,
    num_runs: int,
    attempt: int = 1,
    plan: "FaultPlan | None" = None,
) -> tuple[JobResult, bool]:
    """Execute one job inside a (warm) worker; returns ``(result, cache_hit)``.

    The job goes through exactly the serial code path —
    :func:`~repro.campaign.jobs.run_job`, wrapped by the fault injector when
    a plan is configured — so its result is bit-identical to in-process
    execution.
    """
    context, cache_hit = _context_for(context_key, context_blob)
    job = context.rebuild(label, run_start, num_runs)
    # Seed the content hash from the parent: it keys everything by this id,
    # and recomputing the canonical-JSON digest per job would be wasted work.
    job.__dict__["job_id"] = job_id
    if plan is None:
        return run_job(job), cache_hit
    from .faults import run_job_with_faults

    return run_job_with_faults(job, attempt, plan), cache_hit
