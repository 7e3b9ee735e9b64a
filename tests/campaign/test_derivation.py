"""CBA isolation, maximum-contention and WCET-estimation jobs replayed from
their RP-ISO sibling.

A campaign that holds a CBA isolation job and the same job in isolation
without CBA replays the first from the second's grant log instead of
simulating it (:func:`repro.campaign.jobs.derive_job`).  A maximum-contention
or WCET-estimation job is replayed the same way, from a sibling the campaign
synthesises when the call does not simulate one.  These tests hold the
replayed results to what :func:`run_job` returns for the same jobs, check
that the guard sends every case it does not cover to the simulator, that
each campaign's own check sample catches a wrong replay, and how many jobs
the paper's grids and the MBPTA experiment replay and synthesise.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign.campaign import Campaign, ReplayMismatchError
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import run_job, seed_block_jobs
from repro.campaign.store import ArtifactStore
from repro.experiments.base_policy_sweep import run_base_policy_sweep
from repro.experiments.figure1 import run_figure1
from repro.experiments.mbpta_experiment import run_mbpta_experiment
from repro.obs.profiler import CampaignProfiler
from repro.platform import replay
from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.sim.config import MemoryConfig


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


def _iso_jobs(workload, *configs, num_runs=2, max_cycles=300_000, scenario="isolation"):
    jobs = []
    for label, config in configs:
        jobs += seed_block_jobs(
            label, scenario, seed=3, num_runs=num_runs,
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


def _con_grid(workload, scenario="max_contention", **config_updates):
    """The RP-ISO sibling and the RP, CBA and H-CBA contention columns."""
    return _iso_jobs(
        workload, ("RP-ISO", rp_config().with_updates(**config_updates))
    ) + _iso_jobs(
        workload,
        ("RP-CON", rp_config().with_updates(**config_updates)),
        ("CBA-CON", cba_config().with_updates(**config_updates)),
        ("H-CBA-CON", hcba_config(4, favoured_core=0).with_updates(**config_updates)),
        scenario=scenario,
    )


@pytest.mark.parametrize("executor", [SerialExecutor, lambda: ParallelExecutor(2)])
def test_figure1_grid_is_bit_identical_to_simulating_every_job(executor):
    """The whole Figure 1 grid at a small scale: every result equals
    ``run_job`` for its job, ``elapsed_seconds`` aside, and the replayed
    jobs are the CBA and H-CBA isolation columns and the three contention
    columns, less one checked job each."""
    for seed in (1, 7):
        campaign = RecordingCampaign(executor=executor())
        run_figure1(num_runs=3, seed=seed, access_scale=0.1, campaign=campaign)
        assert campaign.last_report.derived_jobs == 5 * 4 * 3 - 5
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
    """Run ``jobs`` and assert every job but the RP-ISO siblings was
    simulated, equal to ``run_job``; returns the campaign."""
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor, **campaign_options)
    results = campaign.run(jobs)
    assert campaign.last_report.derived_jobs == 0
    for job in jobs:
        if job.config.use_cba or job.scenario != "isolation":
            assert job.job_id in executor.executed
            assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))
    return campaign


def test_store_buffer_is_simulated(tiny_workload):
    _refused(_grid(tiny_workload, store_buffer_entries=2))


def test_tdma_base_is_simulated(tiny_workload):
    _refused(_grid(tiny_workload, arbitration="tdma"))


def test_cba_job_without_a_sibling_is_simulated(tiny_workload):
    _refused([job for job in _grid(tiny_workload) if job.config.use_cba])


@pytest.mark.parametrize("scenario", ["isolation", "max_contention"])
def test_truncated_sibling_sends_its_jobs_to_the_simulator(tiny_workload, scenario):
    jobs = _iso_jobs(tiny_workload, ("RP", rp_config()), max_cycles=400) + _iso_jobs(
        tiny_workload, ("CBA", cba_config()), max_cycles=400, scenario=scenario
    )
    assert all(run_job(job).truncated_runs for job in jobs)
    campaign = _refused(jobs)
    executor = campaign.executor
    # Refused at run time: the CBA job that is not the checked one follows
    # in a second dispatch.
    first, second = executor.batches
    cba = {job.job_id for job in jobs if job.config.use_cba}
    assert len(cba & set(first)) == 1 and cba - set(first) == set(second)


@pytest.mark.parametrize("scenario", ["isolation", "max_contention"])
def test_replayed_end_past_the_cycle_budget_is_simulated(tiny_workload, scenario):
    (source,) = _iso_jobs(tiny_workload, ("RP", rp_config()), num_runs=1)
    (target,) = _iso_jobs(
        tiny_workload, ("CBA", cba_config()), num_runs=1, scenario=scenario
    )
    source_end = run_job(source).metrics[0]["total_cycles"]
    assert run_job(target).metrics[0]["total_cycles"] > source_end + 1
    jobs = [
        job.with_updates(max_cycles=int(source_end) + 1) for job in (source, target)
    ]
    assert run_job(jobs[1]).truncated_runs == 1
    _refused(jobs)


def test_sibling_served_from_the_store_is_synthesised_for_contention_jobs_only(
    tiny_workload, tmp_path
):
    """A stored sibling keeps no grant log.  The CBA isolation jobs are
    simulated; the contention jobs are replayed from a synthesised source,
    which is neither returned nor stored again."""
    jobs = _grid(tiny_workload) + _con_grid(tiny_workload)[2:]
    path = tmp_path / "store.jsonl"
    siblings = [j for j in jobs if j.label == "RP-ISO"]
    Campaign(store=ArtifactStore(path)).run(siblings)
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor, store=ArtifactStore(path), resume=True)
    results = campaign.run(jobs)
    report = campaign.last_report
    assert report.reused_jobs == len(siblings) == 2
    assert (report.synthesised_sources, report.derived_jobs) == (2, 6 - 3)
    sibling_ids = {job.job_id for job in siblings}
    assert sibling_ids <= executor.executed
    for job in jobs:
        if job.scenario == "isolation" and job.config.use_cba:
            assert job.job_id in executor.executed
        assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))
    records = [json.loads(line)["job_id"] for line in path.read_text().splitlines()]
    assert sorted(records) == sorted(job.job_id for job in jobs)


@pytest.mark.parametrize("scenario", ["max_contention", "wcet_estimation"])
def test_contention_jobs_are_simulated_not_derived_outside_the_guard(
    tiny_workload, scenario
):
    for updates in (
        {"memory": MemoryConfig(model="banked", controller_policy="frfcfs")},
        {"store_buffer_entries": 2},
        {"arbitration": "tdma"},
    ):
        for jobs in (
            _con_grid(tiny_workload, scenario, **updates),
            _con_grid(tiny_workload, scenario, **updates)[2:],
        ):
            campaign = _refused(jobs)
            assert campaign.last_report.synthesised_sources == 0
    _refused(_con_grid(tiny_workload, scenario="mixed_criticality"))


def _derived(jobs, num_sources, **campaign_options):
    """Run ``jobs`` and assert that only ``num_sources`` synthesised sources,
    the RP-ISO siblings and one checked job per label were simulated, and
    that every returned result equals ``run_job``; returns the campaign."""
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor, **campaign_options)
    results = campaign.run(jobs)
    replayed = {job.label for job in jobs if job.label != "RP-ISO"}
    checked = {
        min(job.job_id for job in jobs if job.label == label) for label in replayed
    }
    siblings = {job.job_id for job in jobs if job.label == "RP-ISO"}
    simulated = set(executor.batches[0])
    assert len(simulated - siblings - checked) == num_sources
    assert siblings | checked <= simulated
    report = campaign.last_report
    assert report.synthesised_sources == num_sources
    assert report.derived_jobs == len(jobs) - len(siblings) - len(checked)
    assert set(results) == {job.job_id for job in jobs}
    for job in jobs:
        assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))
    return campaign


@pytest.mark.parametrize("scenario", ["max_contention", "wcet_estimation"])
def test_contention_job_without_an_iso_sibling_is_derived_from_a_synthesised_source(
    tiny_workload, scenario
):
    """One source per (seed, run), shared by the RP, CBA and H-CBA
    columns and dispatched before its first dependent."""
    jobs = [job for job in _con_grid(tiny_workload, scenario) if job.label != "RP-ISO"]
    campaign = _derived(jobs, num_sources=2)
    (dispatched,) = campaign.executor.batches
    ids = {job.job_id for job in jobs}
    assert dispatched[0] not in ids


def test_wcet_estimation_jobs_are_derived_from_a_simulated_sibling(tiny_workload):
    _derived(_con_grid(tiny_workload, "wcet_estimation"), num_sources=0)


def test_truncated_synthesised_source_sends_its_jobs_to_the_simulator(tiny_workload):
    jobs = _iso_jobs(
        tiny_workload, ("CBA", cba_config()), max_cycles=400, scenario="max_contention"
    )
    campaign = _refused(jobs)
    assert campaign.last_report.synthesised_sources == 2


def test_replayed_contention_jobs_are_not_simulated(tiny_workload):
    jobs = _con_grid(tiny_workload)
    executor = RecordingExecutor()
    campaign = Campaign(executor=executor)
    results = campaign.run(jobs)
    checked = {
        min(job.job_id for job in jobs if job.label == label)
        for label in ("RP-CON", "CBA-CON", "H-CBA-CON")
    }
    simulated = {job.job_id for job in jobs if job.label == "RP-ISO"} | checked
    assert executor.batches == [[job.job_id for job in jobs if job.job_id in simulated]]
    assert campaign.last_report.derived_jobs == len(jobs) - len(simulated)
    for job in jobs:
        assert _without_timing(results[job.job_id]) == _without_timing(run_job(job))


@pytest.mark.parametrize("num_runs", [1, 2])
def test_figure1_grid_replays_all_but_its_siblings_and_checks(num_runs):
    """Per run, 8 CBA/H-CBA isolation and 12 contention jobs are derivable;
    2 + 3 are checked.  A guard that refused every replay would change no
    result, only the campaign's speed: this count is what catches it."""
    campaign = Campaign()
    run_figure1(num_runs=num_runs, seed=5, access_scale=0.02, campaign=campaign)
    assert campaign.last_report.derived_jobs == 20 * num_runs - 5


def test_base_policy_sweep_replays_its_replayable_bases():
    """Round robin and random permutations, each with and without CBA:
    2 CBA isolation and 4 contention jobs per run, one of each (scenario,
    configuration) checked.  Lottery and TDMA are simulated."""
    num_runs = 2
    campaign = Campaign()
    run_base_policy_sweep(num_runs=num_runs, access_scale=0.02, campaign=campaign)
    assert campaign.last_report.derived_jobs == 6 * num_runs - 6


@pytest.mark.parametrize("executor", [SerialExecutor, lambda: ParallelExecutor(2)])
def test_mbpta_synthesises_a_source_per_run_and_derives_all_but_two_checks(executor):
    """N WCET-estimation and M operation runs: N + M synthesised sources,
    N + M - 2 derived jobs (one check per scenario), and every result equal
    to ``run_job``.  A guard that silently refused every replay would
    change no result, only the speed: these counts are what catch it."""
    num_runs, operation_runs = 20, 3
    campaign = RecordingCampaign(executor=executor())
    run_mbpta_experiment(
        num_runs=num_runs, operation_runs=operation_runs, access_scale=0.05,
        campaign=campaign,
    )
    report = campaign.last_report
    assert report.synthesised_sources == num_runs + operation_runs
    assert report.derived_jobs == num_runs + operation_runs - 2
    assert set(campaign.results) == set(campaign.jobs)
    for job_id, job in campaign.jobs.items():
        assert _without_timing(campaign.results[job_id]) == _without_timing(
            run_job(job)
        ), job.label


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


def test_a_wrong_contention_replay_fails_the_campaign(tiny_workload, monkeypatch):
    real = replay.bus_replay

    def one_more_completion(*args, **kwargs):
        replayed = real(*args, **kwargs)
        return replace(replayed, contender_requests=replayed.contender_requests + 1)

    monkeypatch.setattr(replay, "bus_replay", one_more_completion)
    jobs = _con_grid(tiny_workload)
    checked = min(job.job_id for job in jobs if job.label == "CBA-CON")
    with pytest.raises(ReplayMismatchError, match=checked) as raised:
        Campaign().run([job for job in jobs if job.label in ("RP-ISO", "CBA-CON")])
    assert "metrics" in str(raised.value) and "CBA-CON" in str(raised.value)


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
    assert counters["campaign.synthesised_sources"] == 0
    # One replay per CBA job, the two checked ones included.
    assert profiler.events["derive"] == len(jobs) - 2
    assert profiler.seconds["derive"] > 0.0


def test_synthesised_sources_reach_the_report_metrics(tiny_workload, tmp_path):
    path = tmp_path / "metrics.jsonl"
    jobs = [job for job in _con_grid(tiny_workload) if job.label != "RP-ISO"]
    campaign = Campaign(metrics_path=path)
    campaign.run(jobs)
    counters = {
        row["name"]: row["value"]
        for line in path.read_text().splitlines()
        if (row := json.loads(line))["type"] == "counter" and not row["labels"]
    }
    assert counters["campaign.synthesised_sources"] == 2
    assert counters["campaign.derived_jobs"] == len(jobs) - 3
    assert campaign.last_report.executed_jobs == len(jobs)
