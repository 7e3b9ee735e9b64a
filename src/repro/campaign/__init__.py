"""Campaign orchestration: parallel, resumable experiment execution.

The paper's evaluation is built on large randomised campaigns (1,000 runs per
benchmark x scenario x arbitration policy).  This package is the engine that
executes such campaigns at scale:

* :mod:`~repro.campaign.jobs` — declarative :class:`CampaignJob` specs with
  stable content-hash IDs and a scenario-runner registry;
* :mod:`~repro.campaign.executor` — pluggable backends
  (:class:`SerialExecutor`, process-pool :class:`ParallelExecutor`) with
  bit-identical results across backends, immediate bounded retries,
  per-job timeouts, worker-crash recovery and poison-job quarantine
  (:class:`JobFailure`);
* :mod:`~repro.campaign.store` — a JSON-lines :class:`ArtifactStore` keyed by
  job ID, enabling resumable campaigns and cross-experiment reuse;
* :mod:`~repro.campaign.campaign` — the :class:`Campaign` orchestrator;
* :mod:`~repro.campaign.progress` — throttled progress/ETA reporting.

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

from .campaign import (
    AggregatedRuns,
    Campaign,
    CampaignReport,
    ReplayMismatchError,
    aggregate_by_label,
)
from .executor import (
    Executor,
    JobFailure,
    ParallelExecutor,
    ResilienceSummary,
    SerialExecutor,
    WorkerCrashError,
    create_executor,
)
from .jobs import (
    CampaignJob,
    JobResult,
    RunOutcome,
    resolve_scenario,
    run_job,
    seed_block_jobs,
)
from .progress import NullProgress, ProgressReporter
from .store import ArtifactStore

__all__ = [
    "AggregatedRuns",
    "ArtifactStore",
    "Campaign",
    "CampaignJob",
    "CampaignReport",
    "Executor",
    "JobFailure",
    "JobResult",
    "NullProgress",
    "ParallelExecutor",
    "ProgressReporter",
    "ReplayMismatchError",
    "ResilienceSummary",
    "RunOutcome",
    "SerialExecutor",
    "WorkerCrashError",
    "aggregate_by_label",
    "create_executor",
    "resolve_scenario",
    "run_job",
    "seed_block_jobs",
]
