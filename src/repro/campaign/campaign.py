"""The campaign orchestrator.

:class:`Campaign` turns a flat list of :class:`~repro.campaign.jobs.CampaignJob`
into results: it deduplicates jobs that share a content hash (cross-experiment
reuse), skips jobs already present in the artifact store when resuming,
dispatches the remainder through the configured executor, persists each
result as it lands, and reports progress.

Experiments express their runs as jobs, call :meth:`Campaign.run`, and fold
the returned ``job_id -> JobResult`` mapping back into their own result
shapes with :func:`aggregate_by_label`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..obs.exporters import write_metrics
from ..obs.profiler import CampaignProfiler
from ..obs.registry import MetricsRegistry
from ..sim.errors import ConfigurationError
from .executor import Executor, SerialExecutor
from .jobs import CampaignJob, JobResult
from .progress import NullProgress
from .resilience import JobFailure, ResilienceSummary, RetryPolicy
from .store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .faults import FaultPlan

__all__ = ["AggregatedRuns", "Campaign", "CampaignReport", "aggregate_by_label"]


@dataclass(frozen=True)
class CampaignReport:
    """Accounting for one :meth:`Campaign.run` call.

    The resilience fields summarise what the executor survived: retried
    attempts, worker crashes absorbed by pool rebuilds, hung-job timeouts,
    whether dispatch degraded to serial execution, the poison jobs that were
    quarantined after exhausting their attempts, and store lines the loader
    moved to the quarantine sidecar.
    """

    total_jobs: int
    executed_jobs: int
    reused_jobs: int
    deduplicated_jobs: int
    truncated_runs: int
    retries: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded: bool = False
    failures: tuple[JobFailure, ...] = field(default=())
    quarantined_store_lines: int = 0

    @property
    def all_reused(self) -> bool:
        """True when the store satisfied the whole campaign (full resume)."""
        return self.total_jobs > 0 and self.executed_jobs == 0

    @property
    def clean(self) -> bool:
        """True when no fault-tolerance machinery had to engage."""
        return not (
            self.retries
            or self.worker_crashes
            or self.pool_rebuilds
            or self.timeouts
            or self.degraded
            or self.failures
            or self.quarantined_store_lines
        )


@dataclass(frozen=True)
class AggregatedRuns:
    """Per-label aggregation of (possibly block-split) job results.

    ``samples`` is a read-only ``float64`` array — the columnar form the
    vectorised MBPTA analysis layer consumes directly, without tuple/list
    round trips.
    """

    label: str
    samples: np.ndarray
    metrics: tuple[dict[str, float], ...]
    payloads: tuple[object, ...]
    truncated_runs: int = 0

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    def metric_mean(self, name: str) -> float:
        """Average one per-run side-metric over every run of the label."""
        values = [m[name] for m in self.metrics if name in m]
        if not values:
            raise KeyError(f"metric {name!r} was not recorded for {self.label!r}")
        return sum(values) / len(values)


class Campaign:
    """Expand, dispatch, persist and aggregate campaign jobs."""

    def __init__(
        self,
        executor: Executor | None = None,
        store: ArtifactStore | None = None,
        resume: bool = False,
        progress: NullProgress | None = None,
        profiler: CampaignProfiler | None = None,
        metrics_path: str | Path | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout: float | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if resume and store is None:
            raise ConfigurationError("resuming requires an artifact store")
        self.executor = executor if executor is not None else SerialExecutor()
        self.store = store
        self.resume = resume
        self.progress = progress if progress is not None else NullProgress()
        #: Optional per-phase wall-clock profiler; handed to the executor so
        #: both ends of the dispatch loop charge the same instance.
        self.profiler = profiler
        if profiler is not None:
            self.executor.profiler = profiler
        # Resilience knobs are attached to the executor (which owns dispatch);
        # passing them here merely saves callers from configuring both.
        if retry_policy is not None:
            self.executor.retry_policy = retry_policy
        if job_timeout is not None:
            self.executor.job_timeout = job_timeout
        if fault_plan is not None:
            self.executor.fault_plan = fault_plan
        self.executor.reporter = self.progress
        #: When set, a labelled metrics registry built from every job result
        #: is exported here after each :meth:`run` (.prom/.txt for Prometheus
        #: text, anything else JSONL).
        self.metrics_path = Path(metrics_path) if metrics_path is not None else None
        self.last_report: CampaignReport | None = None

    def run(self, jobs: Sequence[CampaignJob]) -> dict[str, JobResult]:
        """Execute ``jobs`` and return results keyed by job ID.

        Jobs with equal content hashes are executed once; when resuming,
        jobs whose ID is already in the store are served from it without
        re-execution.  Fresh results are appended to the store (when one is
        configured) as they complete, so an interrupted campaign can resume
        from exactly where it stopped.
        """
        unique: dict[str, CampaignJob] = {}
        for job in jobs:
            unique.setdefault(job.job_id, job)

        results: dict[str, JobResult] = {}
        pending: list[CampaignJob] = []
        for job_id, job in unique.items():
            cached = self.store.get(job_id) if (self.store and self.resume) else None
            if cached is not None:
                results[job_id] = cached
            else:
                pending.append(job)

        profiler = self.profiler
        self.progress.start(total=len(unique), skipped=len(results))
        if profiler is not None:
            profiler.start(jobs=len(pending), workers=self.executor.workers)
        # Hold the advisory store lock for the whole campaign so a second
        # campaign pointed at the same store fails fast instead of
        # interleaving appends with this one.
        store_lock = self.store.locked() if self.store is not None else nullcontext()
        with store_lock:
            for result in self.executor.execute(pending):
                if self.store is not None:
                    if profiler is not None:
                        with profiler.phase("store"):
                            self.store.put(result)
                    else:
                        self.store.put(result)
                results[result.job_id] = result
                self.progress.advance(label=result.label)
        if profiler is not None:
            profiler.finish()
            self.progress.report_profile(profiler)
        self.progress.finish()

        resilience = self.executor.last_resilience or ResilienceSummary()
        self.last_report = CampaignReport(
            total_jobs=len(unique),
            executed_jobs=len(pending),
            reused_jobs=len(unique) - len(pending),
            deduplicated_jobs=len(jobs) - len(unique),
            truncated_runs=sum(r.truncated_runs for r in results.values()),
            retries=resilience.retries,
            worker_crashes=resilience.worker_crashes,
            pool_rebuilds=resilience.pool_rebuilds,
            timeouts=resilience.timeouts,
            degraded=resilience.degraded,
            failures=tuple(resilience.failures),
            quarantined_store_lines=(
                self.store.quarantined_lines if self.store is not None else 0
            ),
        )
        if self.metrics_path is not None:
            write_metrics(
                self._metrics_registry(results, self.last_report),
                self.metrics_path,
            )
        return results

    @staticmethod
    def _metrics_registry(
        results: Mapping[str, JobResult],
        report: "CampaignReport | None" = None,
    ) -> MetricsRegistry:
        """Fold every job result into a labelled campaign-level registry.

        Job counters, run samples and every per-run side-metric (including
        the cores' batch-interpreter counters) become one series per
        ``(label, scenario)`` pair, mergeable across campaigns.
        """
        registry = MetricsRegistry()
        for result in results.values():
            labels = {"label": result.label, "scenario": result.scenario}
            registry.counter("campaign.jobs", **labels).increment()
            registry.counter("campaign.runs", **labels).increment(result.num_runs)
            registry.counter("campaign.truncated_runs", **labels).increment(
                result.truncated_runs
            )
            registry.sample("campaign.job_seconds", **labels).add(
                result.elapsed_seconds
            )
            samples = registry.sample("campaign.samples", **labels)
            for value in result.samples:
                samples.add(value)
            for run_metrics in result.metrics:
                for name, value in run_metrics.items():
                    registry.sample(f"campaign.{name}", **labels).add(value)
        if report is not None:
            registry.counter("campaign.retries").increment(report.retries)
            registry.counter("campaign.worker_crashes").increment(
                report.worker_crashes
            )
            registry.counter("campaign.pool_rebuilds").increment(report.pool_rebuilds)
            registry.counter("campaign.job_timeouts").increment(report.timeouts)
            registry.counter("campaign.degradations").increment(int(report.degraded))
            registry.counter("campaign.quarantined_jobs").increment(
                len(report.failures)
            )
            registry.counter("campaign.quarantined_store_lines").increment(
                report.quarantined_store_lines
            )
        return registry


def aggregate_by_label(
    jobs: Sequence[CampaignJob],
    results: Mapping[str, JobResult],
    allow_truncated: bool = False,
) -> dict[str, AggregatedRuns]:
    """Merge per-block results back into one record per job label.

    Blocks are concatenated in ``run_start`` order, so the aggregated sample
    vector is identical to what a single sequential loop over the run indices
    would have produced — regardless of executor, worker count or completion
    order.

    A run that hit its cycle budget before completing produced no execution
    time (its sample is 0), so by default any truncated run is an error —
    the same contract the scenario runners enforce outside campaigns.  Pass
    ``allow_truncated=True`` to aggregate anyway and inspect
    :attr:`AggregatedRuns.truncated_runs` yourself.
    """
    by_label: dict[str, list[CampaignJob]] = {}
    for job in jobs:
        by_label.setdefault(job.label, []).append(job)

    aggregated: dict[str, AggregatedRuns] = {}
    for label, label_jobs in by_label.items():
        sample_blocks: list[np.ndarray] = []
        metrics: list[dict[str, float]] = []
        payloads: list[object] = []
        truncated = 0
        seen: set[str] = set()
        for job in sorted(label_jobs, key=lambda j: j.run_start):
            if job.job_id in seen:  # identical duplicate within one label
                continue
            seen.add(job.job_id)
            try:
                result = results[job.job_id]
            except KeyError:
                raise ConfigurationError(
                    f"no result for job {job.job_id} ({label!r}); "
                    "was the campaign interrupted?"
                ) from None
            sample_blocks.append(result.samples_array)
            metrics.extend(result.metrics)
            payloads.extend(result.payloads)
            truncated += result.truncated_runs
        samples = (
            np.concatenate(sample_blocks)
            if sample_blocks
            else np.empty(0, dtype=np.float64)
        )
        samples.setflags(write=False)
        if truncated and not allow_truncated:
            raise ConfigurationError(
                f"{truncated} of {samples.size} runs for {label!r} hit their "
                "cycle budget before completing, so their execution times are "
                "meaningless; increase max_cycles or shrink the workload "
                "(or pass allow_truncated=True to aggregate anyway)"
            )
        aggregated[label] = AggregatedRuns(
            label=label,
            samples=samples,
            metrics=tuple(metrics),
            payloads=tuple(payloads),
            truncated_runs=truncated,
        )
    return aggregated
