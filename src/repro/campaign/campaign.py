"""The campaign orchestrator.

:class:`Campaign` turns a flat list of :class:`~repro.campaign.jobs.CampaignJob`
into results: it deduplicates jobs that share a content hash (cross-experiment
reuse), skips jobs already present in the artifact store when resuming,
dispatches the remainder through the configured executor, persists each
result as it lands, and reports progress.

A CBA isolation job whose RP-ISO sibling (the same job in isolation
without CBA) runs in the same call is not simulated: its result is replayed
from the sibling's grant log (:func:`~repro.campaign.jobs.derive_job`).
Neither is a maximum-contention or WCET-estimation job on a platform the
bus replay admits: when its sibling is not simulated in the call, the
campaign *synthesises* it — dispatches the sibling like any other job, so
that its grant log feeds the replays, but neither returns nor stores its
result.  A synthesised source costs a lone run, far less than the
contended run it replaces; a CBA isolation job never gets one, since its
source would cost as much as the job.  For each distinct (scenario,
platform configuration) one replayed job is simulated as well and must
match its replay field for field, so every campaign checks the replays it
relies on.

Experiments express their runs as jobs, call :meth:`Campaign.run`, and fold
the returned ``job_id -> JobResult`` mapping back into their own result
shapes with :func:`aggregate_by_label`.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..obs.exporters import write_metrics
from ..obs.profiler import CampaignProfiler
from ..obs.registry import MetricsRegistry
from ..sim.config import CBAParameters
from ..sim.errors import ConfigurationError, SimulationError
from .executor import Executor, JobFailure, ResilienceSummary, SerialExecutor
from .jobs import CampaignJob, JobResult, derive_job
from .progress import NullProgress
from .store import ArtifactStore

__all__ = [
    "AggregatedRuns",
    "Campaign",
    "CampaignReport",
    "ReplayMismatchError",
    "aggregate_by_label",
]


class ReplayMismatchError(SimulationError):
    """A replayed job result (CBA isolation, maximum contention or WCET
    estimation) differs from its simulation."""


@dataclass(frozen=True)
class CampaignReport:
    """Accounting for one :meth:`Campaign.run` call.

    The resilience fields summarise what the executor survived: retried
    attempts, worker crashes absorbed by pool rebuilds, hung-job timeouts,
    whether dispatch degraded to serial execution, the poison jobs that were
    quarantined after exhausting their attempts, and store lines the loader
    moved to the quarantine sidecar.

    ``executed_jobs`` counts every job not served by the store, including
    the ``derived_jobs`` whose results were replayed instead of simulated:
    CBA isolation, maximum-contention and WCET-estimation jobs alike, less
    the checked jobs, which are simulated too.  ``synthesised_sources``
    counts the extra lone runs simulated only to feed replays; they are in
    neither count, nor in the returned results.
    """

    total_jobs: int
    executed_jobs: int
    reused_jobs: int
    deduplicated_jobs: int
    truncated_runs: int
    derived_jobs: int = 0
    synthesised_sources: int = 0
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
        from exactly where it stopped.  CBA isolation, maximum-contention
        and WCET-estimation jobs are replayed from a sibling run in this
        call, synthesised for the latter two where none is pending (see the
        module docstring); a replayed result is stored and counted like any
        other.
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

        dependents, checked, sources = _plan_derivations(pending)
        source_of = {job.job_id: key for key, group in dependents.items() for job in group}
        # Each synthesised source goes out just before its first dependent.
        unsent = dict(sources)
        dispatch: list[CampaignJob] = []
        for job in pending:
            key = source_of.get(job.job_id)
            if key in unsent:
                dispatch.append(unsent.pop(key))
            if job.job_id not in source_of or job.job_id in checked:
                dispatch.append(job)
        #: The first of a checked job's two results (simulated, replayed).
        first_of_check: dict[str, JobResult] = {}
        derived = synthesised = 0

        profiler = self.profiler
        self.progress.start(total=len(unique), skipped=len(results))
        if profiler is not None:
            profiler.start(jobs=len(pending), workers=self.executor.workers)

        def phase(name: str) -> AbstractContextManager[None]:
            return profiler.phase(name) if profiler is not None else nullcontext()

        def land(result: JobResult) -> None:
            if self.store is not None:
                with phase("store"):
                    self.store.put(result)
            results[result.job_id] = result
            self.progress.advance(label=result.label)

        def check(job: CampaignJob, result: JobResult) -> None:
            first = first_of_check.pop(job.job_id, None)
            if first is None:
                first_of_check[job.job_id] = result
            else:
                _compare_replay(job, first, result)

        summaries: list[ResilienceSummary] = []
        # Hold the advisory store lock for the whole campaign so a second
        # campaign pointed at the same store fails fast instead of
        # interleaving appends with this one.
        store_lock = self.store.locked() if self.store is not None else nullcontext()
        with store_lock:
            for result in self.executor.execute(dispatch):
                replays: list[tuple[CampaignJob, JobResult | None]] = []
                for job in dependents.pop(result.job_id, ()):
                    with phase("derive"):
                        replays.append((job, derive_job(job, result)))
                if result.grant_logs:
                    result = replace(result, grant_logs=())
                if result.job_id in sources:
                    synthesised += 1
                else:
                    land(result)
                    if result.job_id in checked:
                        check(unique[result.job_id], result)
                for job, replayed in replays:
                    if replayed is None:
                        continue
                    if job.job_id in checked:
                        check(job, replayed)
                    else:
                        land(replayed)
                        derived += 1
            summaries.append(self.executor.last_resilience or ResilienceSummary())
            # Replays refused at run time (a run waited for its grant or
            # ends past its budget) or whose sibling never landed.
            leftover = [
                job
                for job_id, job in unique.items()
                if job_id in source_of and job_id not in checked and job_id not in results
            ]
            if leftover:
                for result in self.executor.execute(leftover):
                    land(result)
                summaries.append(self.executor.last_resilience or ResilienceSummary())
        if profiler is not None:
            profiler.finish()
            self.progress.report_profile(profiler)
        self.progress.finish()

        self.last_report = CampaignReport(
            total_jobs=len(unique),
            executed_jobs=len(pending),
            reused_jobs=len(unique) - len(pending),
            deduplicated_jobs=len(jobs) - len(unique),
            truncated_runs=sum(r.truncated_runs for r in results.values()),
            derived_jobs=derived,
            synthesised_sources=synthesised,
            retries=sum(s.retries for s in summaries),
            worker_crashes=sum(s.worker_crashes for s in summaries),
            pool_rebuilds=sum(s.pool_rebuilds for s in summaries),
            timeouts=sum(s.timeouts for s in summaries),
            degraded=any(s.degraded for s in summaries),
            failures=tuple(f for s in summaries for f in s.failures),
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
            registry.counter("campaign.derived_jobs").increment(report.derived_jobs)
            registry.counter("campaign.synthesised_sources").increment(
                report.synthesised_sources
            )
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


def _plan_derivations(
    jobs: Sequence[CampaignJob],
) -> tuple[dict[str, list[CampaignJob]], set[str], dict[str, CampaignJob]]:
    """Which jobs in ``jobs`` can be replayed from a sibling, which of them
    are simulated as well to check the replay, and which siblings must be
    synthesised.

    A job's sibling is the same job in the ``isolation`` scenario without
    CBA and with default CBA parameters, on a platform
    :func:`~repro.platform.replay.replayable` admits.  A job qualifies when
    it is an ``isolation`` job under CBA whose sibling is in ``jobs``, or a
    ``max_contention`` or ``wcet_estimation`` job on a platform
    :func:`~repro.platform.replay.bus_replayable` admits; the sibling of the
    latter is synthesised when ``jobs`` does not hold it.  Returns the
    qualifying jobs grouped by their sibling's ID; for each distinct
    (scenario, platform configuration) the qualifying job with the smallest
    ID; and the synthesised siblings by ID.
    """
    from ..platform.replay import bus_replayable, replayable

    siblings: dict[str, CampaignJob] = {}
    candidates: list[tuple[CampaignJob, CampaignJob]] = []
    for job in jobs:
        config = job.config
        if job.workload is None or config is None or not replayable(config):
            continue
        if job.scenario == "isolation":
            derived = config.use_cba
        elif job.scenario in ("max_contention", "wcet_estimation"):
            derived = bus_replayable(config)
        else:
            continue
        lone = job.with_updates(
            scenario="isolation",
            config=replace(
                config,
                use_cba=False,
                cba=CBAParameters(
                    max_latency=config.cba.max_latency, num_cores=config.cba.num_cores
                ),
            ),
        )
        if derived:
            candidates.append((lone, job))
        elif job.scenario == "isolation":
            siblings.setdefault(lone.job_id, job)
    dependents: dict[str, list[CampaignJob]] = {}
    checked: dict[tuple[str, object], str] = {}
    sources: dict[str, CampaignJob] = {}
    for lone, job in candidates:
        sibling = siblings.get(lone.job_id)
        if sibling is None:
            if job.scenario == "isolation":
                continue
            if lone.job_id not in sources:
                sources[lone.job_id] = lone.with_updates(label=f"{job.label} (source)")
            sibling = sources[lone.job_id]
        dependents.setdefault(sibling.job_id, []).append(job)
        point = (job.scenario, job.config)
        if point not in checked or job.job_id < checked[point]:
            checked[point] = job.job_id
    return dependents, set(checked.values()), sources


def _compare_replay(job: CampaignJob, first: JobResult, second: JobResult) -> None:
    """Raise :class:`ReplayMismatchError` unless the simulated and the
    replayed result of ``job`` agree on every field but the timing."""
    differing = [
        f.name
        for f in fields(JobResult)
        if f.compare
        and f.name != "elapsed_seconds"
        and getattr(first, f.name) != getattr(second, f.name)
    ]
    if differing:
        raise ReplayMismatchError(
            f"job {job.job_id} ({job.label!r}): the replayed result differs from "
            f"the simulated one in {', '.join(differing)}"
        )


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
