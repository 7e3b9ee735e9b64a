"""CampaignJob content hashing and execution."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.jobs import CampaignJob, run_job, seed_block_jobs
from repro.platform.presets import cba_config, rp_config
from repro.sim.errors import ConfigurationError

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints, as one JSON object, content keys of fixed inputs: the job IDs that
#: name jobs in stores and worker caches, run stream seeds and draws, and the
#: fuzzer's iteration seeds and scenario encodings, and a stored record.
CONTENT_KEYS = """
import json
import tempfile
from pathlib import Path

from repro.campaign.jobs import CampaignJob, JobResult
from repro.campaign.store import ArtifactStore
from repro.fuzz.runner import fuzz_iteration, iteration_seed
from repro.fuzz.space import canonical_json, scenario_to_dict
from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.sim.rng import RandomStreams, derive_seed
from repro.workloads.registry import workload_by_name

def job_id(label, scenario, seed, workload, config):
    return CampaignJob(
        label=label,
        scenario=scenario,
        seed=seed,
        workload=workload_by_name(workload),
        config=config,
        max_cycles=200_000,
    ).job_id

def store_line(tmp):
    store = ArtifactStore(Path(tmp) / "store.jsonl")
    store.put(JobResult(
        job_id="abc123",
        label="canrdr/CBA-CON",
        scenario="max_contention",
        run_start=0,
        num_runs=2,
        samples=(1.0, 2.0),
        metrics=({"total_cycles": 10.0, "bus_wait": 3.0}, {"total_cycles": 20.0, "bus_wait": 4.0}),
        truncated_runs=0,
        payloads=({"rows": [1, 2], "cores": {"b": 1, "a": 2}}, None),
        elapsed_seconds=0.0,
    ))
    return store.path.read_text(encoding="utf-8")

with tempfile.TemporaryDirectory() as tmp:
    stored = store_line(tmp)

keys = {
    "job-cba-contention": job_id("canrdr/CBA-CON", "max_contention", 7, "canrdr", cba_config()),
    "job-rp-isolation": job_id("canrdr/RP-ISO", "isolation", 7, "canrdr", rp_config()),
    "job-hcba-contention": job_id("a2time/H-CBA-CON", "max_contention", 1, "a2time", hcba_config()),
    "job-cba-8-cores": job_id("canrdr/CBA-CON", "max_contention", 7, "canrdr", cba_config(8)),
    "seed-cache-placement": derive_seed(7, 3, "cache-placement", "core0"),
    "seed-string-labels": derive_seed(0, "fuzz", "bus", "x" * 40),
    "stream-draws": RandomStreams(seed=7, run_index=3).stream("bus").integers(2**32, size=4).tolist(),
    "fuzz-iteration-seed": iteration_seed(0, 5),
    "fuzz-scenario": canonical_json(scenario_to_dict(fuzz_iteration(3, 1))),
    "fuzz-scenario-other-seed": canonical_json(scenario_to_dict(fuzz_iteration(11, 4))),
    "store-record": stored,
}
print(json.dumps(keys, sort_keys=True))
"""


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


@pytest.fixture(scope="module")
def content_keys_by_process():
    """The keys of this process, then of two with other string-hash salts."""
    namespace = {"print": lambda text: keys.append(json.loads(text))}
    keys: list[dict] = []
    exec(CONTENT_KEYS, namespace)
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", CONTENT_KEYS],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        keys.append(json.loads(done.stdout))
    return keys


@pytest.mark.parametrize(
    "key",
    [
        "job-cba-contention", "job-rp-isolation", "job-hcba-contention", "job-cba-8-cores",
        "seed-cache-placement", "seed-string-labels", "stream-draws",
        "fuzz-iteration-seed", "fuzz-scenario", "fuzz-scenario-other-seed", "store-record",
    ],
)
def test_content_keys_do_not_depend_on_the_process(content_keys_by_process, key):
    """A job run in a worker, or resumed in a later process, keeps its keys:
    none may depend on the per-process string-hash salt."""
    here, *others = content_keys_by_process
    assert all(keys[key] == here[key] for keys in others)


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
