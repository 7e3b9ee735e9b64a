"""Campaign orchestration: parallel, resumable experiment execution.

The paper's evaluation is built on large randomised campaigns (1,000 runs per
benchmark x scenario x arbitration policy).  This package is the engine that
executes such campaigns at scale:

* :mod:`~repro.campaign.jobs` — declarative :class:`CampaignJob` specs with
  stable content-hash IDs and a scenario-runner registry;
* :mod:`~repro.campaign.executor` — pluggable backends
  (:class:`SerialExecutor`, process-pool :class:`ParallelExecutor`) with
  bit-identical results across backends;
* :mod:`~repro.campaign.store` — a JSON-lines :class:`ArtifactStore` keyed by
  job ID, enabling resumable campaigns and cross-experiment reuse;
* :mod:`~repro.campaign.campaign` — the :class:`Campaign` orchestrator;
* :mod:`~repro.campaign.progress` — throttled progress/ETA reporting;
* :mod:`~repro.campaign.resilience` — retry policies with seeded backoff,
  structured :class:`JobFailure` records and poison-job quarantine;
* :mod:`~repro.campaign.faults` — deterministic fault injection
  (:class:`FaultPlan`) and the ``repro campaign chaos`` harness.

Typical use::

    from repro.campaign import Campaign, create_executor, ArtifactStore
    from repro.experiments.figure1 import run_figure1

    campaign = Campaign(
        executor=create_executor(8),
        store=ArtifactStore("figure1.jsonl"),
        resume=True,
    )
    result = run_figure1(num_runs=1000, campaign=campaign)
"""

from .campaign import AggregatedRuns, Campaign, CampaignReport, aggregate_by_label
from .executor import Executor, ParallelExecutor, SerialExecutor, create_executor
from .faults import ChaosReport, FaultInjectedError, FaultPlan, run_chaos
from .jobs import (
    CampaignJob,
    JobResult,
    RunOutcome,
    resolve_scenario,
    run_job,
    seed_block_jobs,
)
from .progress import NullProgress, ProgressReporter
from .resilience import JobFailure, ResilienceSummary, RetryPolicy
from .store import ArtifactStore

__all__ = [
    "AggregatedRuns",
    "ArtifactStore",
    "Campaign",
    "CampaignJob",
    "CampaignReport",
    "ChaosReport",
    "Executor",
    "FaultInjectedError",
    "FaultPlan",
    "JobFailure",
    "JobResult",
    "NullProgress",
    "ParallelExecutor",
    "ProgressReporter",
    "ResilienceSummary",
    "RetryPolicy",
    "RunOutcome",
    "SerialExecutor",
    "aggregate_by_label",
    "create_executor",
    "resolve_scenario",
    "run_chaos",
    "run_job",
    "seed_block_jobs",
]
