"""Declarative campaign jobs.

A :class:`CampaignJob` is the unit of work the campaign engine schedules: a
block of randomised runs of one *scenario* on one (workload, platform
configuration) point, starting at a given run index.  Jobs are frozen
dataclasses so they can be

* **hashed** — :attr:`CampaignJob.job_id` is a stable content hash over every
  field that determines the results, which keys the artifact store and makes
  campaigns resumable and results reusable across experiments;
* **pickled** — the parallel executor ships jobs to worker processes;
* **replayed** — :func:`run_job` re-derives every random stream from
  ``(seed, run_index)`` exactly like the hand-rolled experiment loops did,
  so a job produces bit-identical samples no matter where or in what order
  it executes.

Scenarios are referenced *by name* and resolved lazily through
:data:`SCENARIO_RUNNERS` (entries are ``"module:callable"`` strings), which
keeps this module import-light and lets experiment modules contribute their
own runners without circular imports.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from importlib import import_module
from typing import Callable, Mapping

import numpy as np

from ..sim.config import PlatformConfig
from ..sim.errors import ConfigurationError
from ..workloads.base import WorkloadSpec

__all__ = [
    "CampaignJob",
    "JobResult",
    "RunOutcome",
    "SCENARIO_RUNNERS",
    "derive_job",
    "resolve_scenario",
    "run_job",
    "seed_block_jobs",
]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
#: Scenario name -> ``"module:callable"`` (resolved lazily) or a callable.
#: A runner has signature ``runner(job, run_index) -> RunOutcome``.
SCENARIO_RUNNERS: dict[str, str | Callable] = {
    "isolation": "repro.campaign.jobs:_run_isolation",
    "max_contention": "repro.campaign.jobs:_run_max_contention",
    "wcet_estimation": "repro.campaign.jobs:_run_wcet_estimation",
    "mixed_criticality": "repro.campaign.jobs:_run_mixed_criticality",
    "illustrative": "repro.experiments.illustrative:campaign_runner",
    "table1": "repro.experiments.table1:campaign_runner",
    "overheads": "repro.experiments.overheads:campaign_runner",
}


def resolve_scenario(name: str) -> Callable:
    """Return the runner callable for scenario ``name``."""
    try:
        runner = SCENARIO_RUNNERS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_RUNNERS))
        raise ConfigurationError(
            f"unknown campaign scenario {name!r}; known scenarios: {known}"
        ) from None
    if callable(runner):
        return runner
    module_name, _, attr = runner.partition(":")
    resolved = getattr(import_module(module_name), attr)
    SCENARIO_RUNNERS[name] = resolved
    return resolved


# ----------------------------------------------------------------------
# Job and result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunOutcome:
    """What one run of a scenario produced."""

    #: The primary observation (execution cycles of the task under analysis).
    value: float
    #: Scalar side-metrics of the run (bandwidth share, contender throughput).
    metrics: dict[str, float] = field(default_factory=dict)
    #: True when the run hit its cycle budget before completing.
    truncated: bool = False
    #: Optional JSON-serialisable rich result (used by the analysis-style
    #: experiments to reconstruct their full result objects on resume).
    payload: object | None = None
    #: The task's ``grant, release`` log of an isolation run without CBA
    #: that :func:`derive_job` can replay (see
    #: :func:`repro.platform.replay.grant_log`); ``None`` otherwise.
    grant_log: array | None = None


@dataclass(frozen=True)
class CampaignJob:
    """A block of randomised runs of one scenario on one configuration point.

    ``label`` and nothing else is presentation: it names the job in progress
    output and lets experiments group results.  Every other field feeds the
    content hash, so two jobs with equal physics share one :attr:`job_id`
    (and therefore one artifact-store entry) even across experiments.
    """

    label: str
    scenario: str
    seed: int = 0
    #: First run index of the block; per-run random streams are derived from
    #: ``(seed, run_index)``, never from worker identity or execution order.
    run_start: int = 0
    num_runs: int = 1
    workload: WorkloadSpec | None = None
    config: PlatformConfig | None = None
    #: Scenario-specific knobs as a sorted tuple of (name, value) pairs.
    options: tuple[tuple[str, object], ...] = ()
    tua_core: int = 0
    max_cycles: int = 5_000_000

    def __post_init__(self) -> None:
        if self.num_runs <= 0:
            raise ConfigurationError("a campaign job needs at least one run")
        if self.run_start < 0:
            raise ConfigurationError("run_start cannot be negative")
        object.__setattr__(self, "options", tuple(sorted(self.options)))

    @property
    def options_dict(self) -> dict[str, object]:
        return dict(self.options)

    @property
    def run_indices(self) -> range:
        return range(self.run_start, self.run_start + self.num_runs)

    @cached_property
    def job_id(self) -> str:
        """Stable content hash over everything that determines the results.

        Cached per instance (the frozen dataclass keeps a plain ``__dict__``,
        so :func:`~functools.cached_property` works and the cached digest
        travels with the pickle): dispatch, dedup, store keys and fault-plan
        decisions all hash the same job many times, and the canonical-JSON
        digest is not free.  ``with_updates`` builds a new instance, so a
        modified job never inherits a stale hash.
        """
        spec = {
            "scenario": self.scenario,
            "seed": self.seed,
            "run_start": self.run_start,
            "num_runs": self.num_runs,
            "workload": asdict(self.workload) if self.workload else None,
            "config": asdict(self.config) if self.config else None,
            "options": [[k, v] for k, v in self.options],
            "tua_core": self.tua_core,
            "max_cycles": self.max_cycles,
        }
        digest = hashlib.blake2b(
            json.dumps(spec, sort_keys=True, default=_json_fallback).encode("utf-8"),
            digest_size=16,
        )
        return digest.hexdigest()

    def with_updates(self, **kwargs: object) -> "CampaignJob":
        """Return a copy of the job with fields replaced."""
        return replace(self, **kwargs)


def _json_fallback(value: object) -> object:
    """Canonicalise non-JSON values (enums, fractions) for hashing."""
    if hasattr(value, "value"):  # Enum members
        return value.value
    return str(value)


@dataclass(frozen=True)
class JobResult:
    """The persisted outcome of one executed job."""

    job_id: str
    label: str
    scenario: str
    run_start: int
    num_runs: int
    samples: tuple[float, ...]
    metrics: tuple[dict[str, float], ...] = ()
    truncated_runs: int = 0
    payloads: tuple[object, ...] = ()
    elapsed_seconds: float = 0.0
    #: One :attr:`RunOutcome.grant_log` per run, or ``()`` when no run kept
    #: one.  Transport from a worker to the campaign only: the store record
    #: (:meth:`to_dict`) and comparisons leave it out.
    grant_logs: tuple[array | None, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def samples_array(self) -> np.ndarray:
        """The samples as a read-only ``float64`` vector (cached).

        The canonical persisted form stays a tuple (JSON- and
        pickle-friendly); the array view is what the aggregation layer
        concatenates into campaign-level sample vectors.
        """
        array = np.asarray(self.samples, dtype=np.float64)
        array.setflags(write=False)
        return array

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable record for the artifact store."""
        return {
            "job_id": self.job_id,
            "label": self.label,
            "scenario": self.scenario,
            "run_start": self.run_start,
            "num_runs": self.num_runs,
            "samples": list(self.samples),
            "metrics": [dict(m) for m in self.metrics],
            "truncated_runs": self.truncated_runs,
            "payloads": list(self.payloads),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "JobResult":
        return cls(
            job_id=str(record["job_id"]),
            label=str(record.get("label", "")),
            scenario=str(record.get("scenario", "")),
            run_start=int(record.get("run_start", 0)),
            num_runs=int(record.get("num_runs", len(record["samples"]))),
            samples=tuple(float(x) for x in record["samples"]),
            metrics=tuple(dict(m) for m in record.get("metrics", ())),
            truncated_runs=int(record.get("truncated_runs", 0)),
            payloads=tuple(record.get("payloads", ())),
            elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_job(job: CampaignJob) -> JobResult:
    """Execute every run of ``job`` and collect a :class:`JobResult`.

    This is the single function both executors call (the parallel one in a
    worker process); all randomness flows from ``(job.seed, run_index)``, so
    the result is independent of where and when the job runs.
    """
    runner = resolve_scenario(job.scenario)
    # Telemetry only: elapsed_seconds is excluded from the stored record CRC
    # path that feeds hashes, and never influences a sample.
    # repro-lint: allow[DET001]
    started = time.perf_counter()
    samples: list[float] = []
    metrics: list[dict[str, float]] = []
    payloads: list[object] = []
    grant_logs: list[array | None] = []
    truncated = 0
    for run_index in job.run_indices:
        outcome = runner(job, run_index)
        samples.append(float(outcome.value))
        metrics.append(dict(outcome.metrics))
        payloads.append(outcome.payload)
        grant_logs.append(outcome.grant_log)
        truncated += int(outcome.truncated)
    return JobResult(
        job_id=job.job_id,
        label=job.label,
        scenario=job.scenario,
        run_start=job.run_start,
        num_runs=job.num_runs,
        samples=tuple(samples),
        metrics=tuple(metrics),
        truncated_runs=truncated,
        payloads=tuple(payloads),
        elapsed_seconds=time.perf_counter() - started,  # repro-lint: allow[DET001]
        grant_logs=tuple(grant_logs) if any(log is not None for log in grant_logs) else (),
    )


def derive_job(job: CampaignJob, source: JobResult) -> JobResult | None:
    """The result of ``job``, replayed from its RP-ISO sibling's ``source``.

    ``source`` is the result of ``job``'s ``isolation`` sibling without CBA
    (same workload, seed, runs, base policy and platform otherwise),
    carrying a grant log per run (:func:`repro.platform.replay.grant_log`).
    Each run of ``job`` shifts the source's execution and total cycles:

    * an ``isolation`` job under CBA by its CBA waits
      (:func:`repro.platform.replay.cba_waits`), every other metric being
      the source's;
    * a ``max_contention`` or ``wcet_estimation`` job by its bus replay
      against greedy or WCET-estimation-mode contenders
      (:func:`repro.platform.replay.bus_replay`), which also gives its
      bandwidth share and contender requests; the batch counters are the
      source's, since the task's own stream is unchanged.

    The result is the one :func:`run_job` would return, except that
    ``elapsed_seconds`` is the replay's time.  ``None`` when a run has no
    grant log or its replayed end reaches ``job.max_cycles`` (the
    simulation would have been truncated).
    """
    from ..platform import replay

    logs = source.grant_logs
    config = job.config
    if config is None or len(logs) != job.num_runs or any(log is None for log in logs):
        return None
    # repro-lint: allow[DET001]
    started = time.perf_counter()
    samples: list[float] = []
    metrics: list[dict[str, float]] = []
    runs = zip(job.run_indices, source.samples, source.metrics, logs)
    for run_index, value, source_metrics, log in runs:
        source_total = int(source_metrics["total_cycles"])
        if job.scenario == "isolation":
            shift = sum(replay.cba_waits(log, config.cba, job.tua_core))
            run_metrics = {**source_metrics, "total_cycles": float(source_total + shift)}
        else:
            replayed = replay.bus_replay(
                log,
                config,
                source_total,
                seed=job.seed,
                run_index=run_index,
                tua_core=job.tua_core,
                max_cycles=job.max_cycles,
                wcet_mode=job.scenario == "wcet_estimation",
            )
            if replayed is None:
                return None
            shift = replayed.shift
            run_metrics = {
                **source_metrics,
                "total_cycles": float(replayed.total_cycles),
                "tua_bandwidth_share": replayed.tua_bandwidth_share,
                "contender_requests": float(replayed.contender_requests),
            }
        if run_metrics["total_cycles"] >= job.max_cycles:
            return None
        samples.append(value + shift)
        metrics.append(run_metrics)
    return JobResult(
        job_id=job.job_id,
        label=job.label,
        scenario=job.scenario,
        run_start=job.run_start,
        num_runs=job.num_runs,
        samples=tuple(samples),
        metrics=tuple(metrics),
        payloads=source.payloads,
        elapsed_seconds=time.perf_counter() - started,  # repro-lint: allow[DET001]
    )


def seed_block_jobs(
    label: str,
    scenario: str,
    *,
    seed: int,
    num_runs: int,
    **fields: object,
) -> list[CampaignJob]:
    """One single-run job per run index ``0 .. num_runs - 1``.

    One run per job maximises parallelism and makes job IDs independent of
    the worker count, so a store written by ``--jobs 1`` is reused verbatim
    by ``--jobs 8`` and vice versa.
    """
    if num_runs <= 0:
        raise ConfigurationError("num_runs must be positive")
    return [
        CampaignJob(
            label=label,
            scenario=scenario,
            seed=seed,
            run_start=start,
            **fields,  # type: ignore[arg-type]
        )
        for start in range(num_runs)
    ]


# ----------------------------------------------------------------------
# Built-in platform scenario runners
# ----------------------------------------------------------------------
def _platform_outcome(
    job: CampaignJob, run_index: int, scenario_fn, keep_grant_log: bool = False
) -> RunOutcome:
    if job.workload is None or job.config is None:
        raise ConfigurationError(
            f"scenario {job.scenario!r} needs both a workload and a platform config"
        )
    result = scenario_fn(
        job.workload,
        job.config,
        seed=job.seed,
        run_index=run_index,
        tua_core=job.tua_core,
        max_cycles=job.max_cycles,
        allow_truncation=True,
        **job.options_dict,
    )
    contenders = result.system.extra.get("contender_requests", {})
    observability = result.system.observability
    metrics = {
        "total_cycles": float(result.system.total_cycles),
        "tua_bandwidth_share": float(result.system.bandwidth_shares[job.tua_core]),
        "contender_requests": float(sum(int(v) for v in contenders.values())),
        "batched_items": float(observability.get("batched_items", 0)),
        "batch_stretches": float(observability.get("batch_stretches", 0)),
    }
    log = None
    if keep_grant_log and not result.truncated:
        from ..platform.replay import grant_log

        log = grant_log(
            result.holder_log,
            job.tua_core,
            result.system.core_counters[job.tua_core].request_latencies,
        )
    return RunOutcome(
        value=float(result.tua_cycles),
        metrics=metrics,
        truncated=result.truncated,
        grant_log=log,
    )


def _run_isolation(job: CampaignJob, run_index: int) -> RunOutcome:
    from ..platform.replay import replayable
    from ..platform.scenarios import run_isolation

    config = job.config
    keep = config is not None and not config.use_cba and replayable(config)
    return _platform_outcome(job, run_index, run_isolation, keep_grant_log=keep)


def _run_max_contention(job: CampaignJob, run_index: int) -> RunOutcome:
    from ..platform.scenarios import run_max_contention

    return _platform_outcome(job, run_index, run_max_contention)


def _run_wcet_estimation(job: CampaignJob, run_index: int) -> RunOutcome:
    from ..platform.scenarios import run_wcet_estimation

    return _platform_outcome(job, run_index, run_wcet_estimation)


def _run_mixed_criticality(job: CampaignJob, run_index: int) -> RunOutcome:
    from ..platform.scenarios import run_mixed_criticality

    return _platform_outcome(job, run_index, run_mixed_criticality)
