"""CBA isolation jobs replayed from their sibling without CBA.

A campaign that holds a CBA isolation job and the same job without CBA
replays the first from the second's grant log instead of simulating it
(:func:`repro.campaign.jobs.derive_isolation`).  These tests hold the
replayed results to what :func:`run_job` returns for the same jobs, check
that the guard sends every case it does not cover to the simulator, and
that each campaign's own check sample catches a wrong replay.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign.campaign import Campaign, ReplayMismatchError
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.store import ArtifactStore
from repro.experiments.figure1 import run_figure1
from repro.obs.profiler import CampaignProfiler
from repro.platform import replay
from repro.platform.presets import cba_config, hcba_config, rp_config


class RecordingExecutor(SerialExecutor):
    """Serial executor that records the job IDs of each ``execute`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list[str]] = []

    def execute(self, jobs):
        self.batches.append([job.job_id for job in jobs])
        yield from super().execute(jobs)

    @property
    def executed(self) -> set[str]:
        return {job_id for batch in self.batches for job_id in batch}


class RecordingCampaign(Campaign):
    """A campaign that keeps the jobs and results of its last run."""

    def run(self, jobs):
        self.jobs = {job.job_id: job for job in jobs}
        self.results = super().run(jobs)
        return self.results


def _without_timing(result):
    return replace(result, elapsed_seconds=0.0)


def _iso_jobs(workload, *configs, num_runs=2, max_cycles=300_000):
    jobs = []
    for label, config in configs:
        jobs += seed_block_jobs(
            label, "isolation", seed=3, num_runs=num_runs,
            workload=workload, config=config, max_cycles=max_cycles,
        )
    return jobs


def _grid(workload, **config_updates):
    return _iso_jobs(
        workload,
        ("RP-ISO", rp_config().with_updates(**config_updates)),
        ("CBA-ISO", cba_config().with_updates(**config_updates)),
        ("H-CBA-ISO", hcba_config(4, favoured_core=0).with_updates(**config_updates)),
    )


@pytest.mark.parametrize("executor", [SerialExecutor, lambda: ParallelExecutor(2)])
def test_figure1_grid_is_bit_identical_to_simulating_every_job(executor):
    """The whole Figure 1 grid at a small scale: every result equals
    ``run_job`` for its job, ``elapsed_seconds`` aside, and the replayed
    jobs are the CBA and H-CBA isolation columns less one checked job each."""
    for seed in (1, 7):
        campaign = RecordingCampaign(executor=executor())
        run_figure1(num_runs=3, seed=seed, access_scale=0.1, campaign=campaign)
        assert campaign.last_report.derived_jobs == 2 * 4 * 3 - 2
        assert campaign.last_report.executed_jobs == len(campaign.jobs) == 72
        for job_id, job in campaign.jobs.items():
            assert _without_timing(campaign.results[job_id]) == _without_timing(
                run_job(job)
            ), job.label


def test_replayed_jobs_are_not_simulated_and_count_as_executed(tiny_workload):
    jobs = _grid(tiny_workload)
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor)
    results = campaign.run(jobs)
    checked = {
        min(job.job_id for job in jobs if job.label == label)
        for label in ("CBA-ISO", "H-CBA-ISO")
    }
    simulated = {job.job_id for job in jobs if job.label == "RP-ISO"} | checked
    assert executor.batches == [[job.job_id for job in jobs if job.job_id in simulated]]
    report = campaign.last_report
    assert (report.executed_jobs, report.derived_jobs) == (len(jobs), len(jobs) - 4)
    for job in jobs:
        assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))


def _refused(jobs, **campaign_options):
    """Run ``jobs`` and assert every CBA job was simulated, equal to
    ``run_job``; returns the campaign."""
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor, **campaign_options)
    results = campaign.run(jobs)
    assert campaign.last_report.derived_jobs == 0
    for job in jobs:
        if job.config.use_cba:
            assert job.job_id in executor.executed
            assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))
    return campaign


def test_store_buffer_is_simulated(tiny_workload):
    _refused(_grid(tiny_workload, store_buffer_entries=2))


def test_tdma_base_is_simulated(tiny_workload):
    _refused(_grid(tiny_workload, arbitration="tdma"))


def test_cba_job_without_a_sibling_is_simulated(tiny_workload):
    _refused([job for job in _grid(tiny_workload) if job.config.use_cba])


def test_truncated_sibling_sends_its_jobs_to_the_simulator(tiny_workload):
    jobs = _iso_jobs(
        tiny_workload, ("RP", rp_config()), ("CBA", cba_config()), max_cycles=400
    )
    assert all(run_job(job).truncated_runs for job in jobs)
    campaign = _refused(jobs)
    executor = campaign.executor
    # Refused at run time: the CBA job that is not the checked one follows
    # in a second dispatch.
    first, second = executor.batches
    cba = {job.job_id for job in jobs if job.config.use_cba}
    assert len(cba & set(first)) == 1 and cba - set(first) == set(second)


def test_replayed_end_past_the_cycle_budget_is_simulated(tiny_workload):
    (source,) = _iso_jobs(tiny_workload, ("RP", rp_config()), num_runs=1)
    (target,) = _iso_jobs(tiny_workload, ("CBA", cba_config()), num_runs=1)
    source_end = run_job(source).metrics[0]["total_cycles"]
    assert run_job(target).metrics[0]["total_cycles"] > source_end + 1
    jobs = [
        job.with_updates(max_cycles=int(source_end) + 1) for job in (source, target)
    ]
    assert run_job(jobs[1]).truncated_runs == 1
    _refused(jobs)


def test_sibling_served_from_the_store_leaves_the_job_to_the_simulator(
    tiny_workload, tmp_path
):
    jobs = _grid(tiny_workload)
    path = tmp_path / "store.jsonl"
    Campaign(store=ArtifactStore(path)).run([j for j in jobs if not j.config.use_cba])
    campaign = _refused(jobs, store=ArtifactStore(path), resume=True)
    assert campaign.last_report.reused_jobs == 2


def test_store_of_fully_simulated_jobs_resumes_with_nothing_executed(
    tiny_workload, tmp_path
):
    """A store whose every record was simulated (as before jobs were
    replayed) serves the whole grid: job IDs and records are unchanged."""
    jobs = _grid(tiny_workload)
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    for job in jobs:
        store.put(run_job(job))
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor, store=ArtifactStore(path), resume=True)
    campaign.run(jobs)
    assert campaign.last_report.all_reused
    assert executor.executed == set()


def test_replayed_records_match_simulated_records(tiny_workload, tmp_path):
    """A replayed result is stored like any other: its record is the
    simulated job's record, ``elapsed_seconds`` aside, and resuming from
    it executes nothing."""
    jobs = _grid(tiny_workload)
    path = tmp_path / "store.jsonl"
    Campaign(store=ArtifactStore(path)).run(jobs)
    records = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        records[record["job_id"]] = record
    assert set(records) == {job.job_id for job in jobs}
    for job in jobs:
        simulated = run_job(job).to_dict()
        stored = {k: v for k, v in records[job.job_id].items() if k in simulated}
        assert {**stored, "elapsed_seconds": 0} == {**simulated, "elapsed_seconds": 0}
    executor = RecordingExecutor()
    Campaign(executor=executor, store=ArtifactStore(path), resume=True).run(jobs)
    assert executor.executed == set()


def test_a_wrong_replay_fails_the_campaign(tiny_workload, monkeypatch):
    real = replay.cba_waits

    def off_by_one(log, params, master):
        waits = real(log, params, master)
        waits[-1] += 1
        return waits

    monkeypatch.setattr(replay, "cba_waits", off_by_one)
    jobs = _grid(tiny_workload)
    checked = min(job.job_id for job in jobs if job.label == "CBA-ISO")
    with pytest.raises(ReplayMismatchError, match=checked) as raised:
        Campaign().run(jobs)
    assert "samples" in str(raised.value) and "CBA-ISO" in str(raised.value)


def test_replays_reach_the_report_metrics_and_profile(tiny_workload, tmp_path):
    path = tmp_path / "metrics.jsonl"
    profiler = CampaignProfiler()
    jobs = _grid(tiny_workload)
    Campaign(metrics_path=path, profiler=profiler).run(jobs)
    counters = {
        row["name"]: row["value"]
        for line in path.read_text().splitlines()
        if (row := json.loads(line))["type"] == "counter" and not row["labels"]
    }
    assert counters["campaign.derived_jobs"] == len(jobs) - 4
    # One replay per CBA job, the two checked ones included.
    assert profiler.events["derive"] == len(jobs) - 2
    assert profiler.seconds["derive"] > 0.0
