"""CampaignJob content hashing and execution."""

from __future__ import annotations

import pytest

from repro.campaign.jobs import CampaignJob, run_job, seed_block_jobs
from repro.platform.presets import cba_config, rp_config
from repro.sim.errors import ConfigurationError


def _job(workload, **overrides):
    fields = dict(
        label="tiny/RP-CON",
        scenario="max_contention",
        seed=3,
        workload=workload,
        config=rp_config(),
        max_cycles=200_000,
    )
    fields.update(overrides)
    return CampaignJob(**fields)


def test_job_id_is_stable_across_equal_specs(tiny_workload):
    assert _job(tiny_workload).job_id == _job(tiny_workload).job_id


def test_job_id_ignores_presentation_label(tiny_workload):
    job = _job(tiny_workload)
    assert job.with_updates(label="renamed").job_id == job.job_id


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 4),
        ("run_start", 1),
        ("num_runs", 2),
        ("scenario", "isolation"),
        ("tua_core", 1),
        ("max_cycles", 100_000),
    ],
)
def test_job_id_depends_on_physics_fields(tiny_workload, field, value):
    job = _job(tiny_workload)
    assert job.with_updates(**{field: value}).job_id != job.job_id


def test_job_id_depends_on_workload_and_config(tiny_workload, quiet_workload):
    job = _job(tiny_workload)
    assert job.with_updates(workload=quiet_workload).job_id != job.job_id
    assert job.with_updates(config=cba_config()).job_id != job.job_id


def test_seed_block_jobs_cover_the_run_range(tiny_workload):
    jobs = seed_block_jobs(
        "tiny", "isolation", seed=1, num_runs=7,
        workload=tiny_workload, config=rp_config(), max_cycles=200_000,
    )
    assert [(j.run_start, j.num_runs) for j in jobs] == [(i, 1) for i in range(7)]
    covered = [index for j in jobs for index in j.run_indices]
    assert covered == list(range(7))
    assert len({j.job_id for j in jobs}) == len(jobs)


def test_run_job_collects_samples_and_metrics(tiny_workload):
    result = run_job(_job(tiny_workload, num_runs=2))
    assert len(result.samples) == 2
    assert all(s > 0 for s in result.samples)
    assert result.truncated_runs == 0
    for metrics in result.metrics:
        assert {"total_cycles", "tua_bandwidth_share", "contender_requests"} <= set(
            metrics
        )


def test_run_job_records_truncation_instead_of_raising(tiny_workload):
    result = run_job(_job(tiny_workload, max_cycles=50))
    assert result.truncated_runs == 1


def test_unknown_scenario_is_rejected(tiny_workload):
    job = _job(tiny_workload, scenario="not-a-scenario")
    with pytest.raises(ConfigurationError, match="unknown campaign scenario"):
        run_job(job)


def test_invalid_job_parameters_are_rejected(tiny_workload):
    with pytest.raises(ConfigurationError):
        _job(tiny_workload, num_runs=0)
    with pytest.raises(ConfigurationError):
        _job(tiny_workload, run_start=-1)
    with pytest.raises(ConfigurationError):
        seed_block_jobs("x", "isolation", seed=0, num_runs=0)
