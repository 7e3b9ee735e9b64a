"""Campaign orchestration: dedup, resume, aggregation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign.campaign import Campaign, aggregate_by_label
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.store import ArtifactStore
from repro.experiments.figure1 import run_figure1
from repro.platform.presets import rp_config
from repro.sim.errors import ConfigurationError


class CountingExecutor(SerialExecutor):
    """Serial executor that records which jobs it actually ran."""

    def __init__(self) -> None:
        self.executed: list[str] = []

    def execute(self, jobs):
        for job in jobs:
            self.executed.append(job.job_id)
            yield run_job(job)


def _jobs(workload, label="tiny", num_runs=3):
    return seed_block_jobs(
        label, "isolation", seed=5, num_runs=num_runs,
        workload=workload, config=rp_config(), max_cycles=300_000,
    )


def test_duplicate_jobs_run_once_and_share_results(tiny_workload):
    jobs = _jobs(tiny_workload, label="first")
    relabelled = [job.with_updates(label="second") for job in jobs]
    executor = CountingExecutor()
    campaign = Campaign(executor=executor)

    results = campaign.run(jobs + relabelled)

    assert len(executor.executed) == len(jobs)
    report = campaign.last_report
    assert report.deduplicated_jobs == len(jobs)
    agg = aggregate_by_label(jobs + relabelled, results)
    assert np.array_equal(agg["first"].samples, agg["second"].samples)


def test_resume_skips_completed_jobs(tiny_workload, tmp_path):
    path = tmp_path / "store.jsonl"
    jobs = _jobs(tiny_workload)
    first = Campaign(store=ArtifactStore(path))
    baseline = aggregate_by_label(jobs, first.run(jobs))["tiny"].samples

    executor = CountingExecutor()
    resumed = Campaign(
        executor=executor, store=ArtifactStore(path), resume=True
    )
    results = resumed.run(jobs)

    assert executor.executed == []
    assert resumed.last_report.all_reused
    assert np.array_equal(aggregate_by_label(jobs, results)["tiny"].samples, baseline)


def test_resume_runs_only_the_missing_jobs(tiny_workload, tmp_path):
    path = tmp_path / "store.jsonl"
    jobs = _jobs(tiny_workload, num_runs=4)
    Campaign(store=ArtifactStore(path)).run(jobs[:2])

    executor = CountingExecutor()
    campaign = Campaign(executor=executor, store=ArtifactStore(path), resume=True)
    campaign.run(jobs)

    assert executor.executed == [job.job_id for job in jobs[2:]]
    assert campaign.last_report.reused_jobs == 2
    assert campaign.last_report.executed_jobs == 2


def test_store_without_resume_reexecutes_but_persists(tiny_workload, tmp_path):
    path = tmp_path / "store.jsonl"
    jobs = _jobs(tiny_workload)
    Campaign(store=ArtifactStore(path)).run(jobs)

    executor = CountingExecutor()
    Campaign(executor=executor, store=ArtifactStore(path), resume=False).run(jobs)
    assert len(executor.executed) == len(jobs)


def test_resume_requires_a_store():
    with pytest.raises(ConfigurationError, match="store"):
        Campaign(resume=True)


def test_aggregate_reports_missing_results(tiny_workload):
    jobs = _jobs(tiny_workload)
    with pytest.raises(ConfigurationError, match="no result"):
        aggregate_by_label(jobs, {})


def test_aggregate_rejects_truncated_runs_by_default(tiny_workload):
    """A truncated run has no execution time; folding its 0-cycle sample into
    statistics must be an explicit opt-in, never a silent default."""
    jobs = [
        job.with_updates(max_cycles=50) for job in _jobs(tiny_workload, num_runs=2)
    ]
    results = Campaign().run(jobs)
    with pytest.raises(ConfigurationError, match="cycle budget"):
        aggregate_by_label(jobs, results)
    agg = aggregate_by_label(jobs, results, allow_truncated=True)
    assert agg["tiny"].truncated_runs == 2


def test_experiments_fail_loudly_when_runs_truncate():
    """Pre-campaign behaviour restored: an undersized cycle budget is an
    error with actionable advice, not a silently meaningless table."""
    with pytest.raises(ConfigurationError, match="max_cycles"):
        run_figure1(
            benchmarks=["canrdr"], num_runs=1, access_scale=0.05, max_cycles=500
        )


def test_killed_campaign_with_torn_tail_resumes_only_missing_jobs(
    tiny_workload, tmp_path
):
    """A campaign killed mid-append leaves a truncated trailing line; the
    resumed campaign silently drops it and re-runs only the missing jobs."""
    path = tmp_path / "store.jsonl"
    jobs = _jobs(tiny_workload, num_runs=4)
    Campaign(store=ArtifactStore(path)).run(jobs[:2])
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"job_id": "torn", "samples": [12')  # the kill point

    executor = CountingExecutor()
    campaign = Campaign(executor=executor, store=ArtifactStore(path), resume=True)
    results = campaign.run(jobs)

    assert executor.executed == [job.job_id for job in jobs[2:]]
    assert campaign.last_report.reused_jobs == 2
    # A torn tail is expected crash damage, not corruption to quarantine.
    assert campaign.last_report.quarantined_store_lines == 0
    assert set(results) == {job.job_id for job in jobs}


def test_report_carries_resilience_accounting(tiny_workload, tmp_path):
    from repro.campaign.executor import ParallelExecutor
    from repro.campaign.faults import FaultPlan
    from repro.campaign.resilience import RetryPolicy

    jobs = _jobs(tiny_workload)
    plan = FaultPlan(fail_jobs=frozenset({jobs[0].job_id}))
    campaign = Campaign(
        executor=ParallelExecutor(max_workers=2),
        store=ArtifactStore(tmp_path / "store.jsonl"),
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
        fault_plan=plan,
    )
    results = campaign.run(jobs)
    report = campaign.last_report
    assert set(results) == {job.job_id for job in jobs}
    assert report.retries == 1
    assert not report.clean
    assert report.failures == ()


def test_resilience_counters_reach_the_metrics_registry(tiny_workload):
    from repro.campaign.campaign import CampaignReport

    jobs = _jobs(tiny_workload, num_runs=1)
    results = Campaign().run(jobs)
    report = CampaignReport(
        total_jobs=1, executed_jobs=1, reused_jobs=0, deduplicated_jobs=0,
        truncated_runs=0, retries=3, worker_crashes=1, pool_rebuilds=1,
        timeouts=2, degraded=True, quarantined_store_lines=4,
    )
    registry = Campaign._metrics_registry(results, report)
    series = {
        row["name"]: row["value"]
        for row in registry.snapshot()
        if row["type"] == "counter" and not row["labels"]
    }
    assert series["campaign.retries"] == 3
    assert series["campaign.worker_crashes"] == 1
    assert series["campaign.job_timeouts"] == 2
    assert series["campaign.degradations"] == 1
    assert series["campaign.quarantined_store_lines"] == 4


def test_metrics_file_has_the_same_series_for_every_backend(
    tiny_workload, tmp_path
):
    """The metrics file describes the jobs, never the transport: a serial
    and a pooled campaign write the same series with the same counters."""
    jobs = _jobs(tiny_workload)

    def snapshot(executor, name):
        path = tmp_path / name
        Campaign(executor=executor, metrics_path=path).run(jobs)
        return [json.loads(line) for line in path.read_text().splitlines()]

    serial = snapshot(SerialExecutor(), "serial.jsonl")
    pooled = snapshot(ParallelExecutor(max_workers=2), "pooled.jsonl")
    assert [(row["name"], row["labels"]) for row in pooled] == [
        (row["name"], row["labels"]) for row in serial
    ]
    counters = [row for row in serial if row["type"] == "counter"]
    assert counters
    assert [row for row in pooled if row["type"] == "counter"] == counters
    assert not any(row["name"].startswith("campaign.dispatch") for row in pooled)


def test_store_lock_is_held_for_the_whole_run(tiny_workload, tmp_path):
    """A second campaign pointed at a running campaign's store fails fast
    instead of interleaving appends."""
    path = tmp_path / "store.jsonl"
    observed: list[bool] = []

    class ProbingExecutor(CountingExecutor):
        def execute(self, jobs):
            intruder = ArtifactStore(path)
            try:
                intruder.acquire_lock()
            except ConfigurationError:
                observed.append(True)
            else:  # pragma: no cover - the lock must be held
                intruder.release_lock()
                observed.append(False)
            yield from super().execute(jobs)

    campaign = Campaign(executor=ProbingExecutor(), store=ArtifactStore(path))
    campaign.run(_jobs(tiny_workload, num_runs=1))
    assert observed == [True]


def test_figure1_resumes_from_a_prior_campaign_store(tiny_workload, tmp_path):
    """The acceptance-criterion flow, at API level: a second figure1 run
    against the same store re-runs nothing and reproduces the same table."""
    path = tmp_path / "figure1.jsonl"
    kwargs = dict(benchmarks=["canrdr"], num_runs=1, access_scale=0.05, seed=2017)

    first = Campaign(store=ArtifactStore(path))
    baseline = run_figure1(campaign=first, **kwargs)

    executor = CountingExecutor()
    resumed = Campaign(executor=executor, store=ArtifactStore(path), resume=True)
    again = run_figure1(campaign=resumed, **kwargs)

    assert executor.executed == []
    assert resumed.last_report.all_reused
    assert again.slowdowns == baseline.slowdowns
    assert again.mean_cycles == baseline.mean_cycles
