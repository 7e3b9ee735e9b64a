"""A finished platform is freed by reference counting.

Every measured run builds a fresh :class:`MulticoreSystem`; a campaign
builds and drops thousands.  Whoever builds one closes it, which cuts
every reference cycle through it, so the platform dies as soon as the
call that built it returns.  The tests run with the garbage collector
disabled: an object only a collector pass could free stays alive, and
its weak reference with it.
"""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import pytest

from repro.campaign.jobs import CampaignJob, run_job
from repro.fuzz import load_repro, run_mode
from repro.obs.record import record_contention
from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.platform.scenarios import (
    run_isolation,
    run_max_contention,
    run_mixed_criticality,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.system import MulticoreSystem
from repro.sim.config import KernelMode, MemoryConfig
from repro.sim.errors import ConfigurationError

CORPUS = sorted((Path(__file__).parents[1] / "fuzz" / "corpus").glob("*.json"))

CONFIGS = {
    "rp": rp_config(),
    "cba": cba_config(),
    "hcba": hcba_config(),
    "tdma": rp_config(arbitration="tdma"),
}


@pytest.fixture
def platforms(monkeypatch):
    """Weak references to every system, kernel, bus, core and contender run
    while the test holds the fixture, with the garbage collector disabled."""
    refs: list[weakref.ref] = []
    run = MulticoreSystem.run

    def recording_run(system, *args, **kwargs):
        parts = [system, system.kernel, system.bus]
        parts += [*system.cores.values(), *system.contenders.values()]
        refs.extend(weakref.ref(part) for part in parts)
        return run(system, *args, **kwargs)

    monkeypatch.setattr(MulticoreSystem, "run", recording_run)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def assert_all_freed(refs: list[weakref.ref]) -> None:
    assert refs, "no platform was run"
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert alive == [], f"still alive without a collector pass: {alive}"


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize(
    "runner", [run_isolation, run_max_contention, run_wcet_estimation, run_mixed_criticality]
)
def test_scenario_runners_free_their_platform(platforms, tiny_workload, runner, label):
    result = runner(tiny_workload, CONFIGS[label], seed=1)
    assert not result.truncated
    assert_all_freed(platforms)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_multiprogram_frees_its_platform(platforms, tiny_workload, label):
    workloads = {core: tiny_workload for core in range(4)}
    run_multiprogram(workloads, CONFIGS[label], seed=1)
    assert_all_freed(platforms)


def test_sixteen_core_banked_frfcfs_run_frees_its_platform(platforms, tiny_workload):
    config = rp_config(16).with_updates(
        memory=MemoryConfig(model="banked", controller_policy="frfcfs")
    )
    run_multiprogram({core: tiny_workload for core in range(16)}, config, seed=1)
    assert len(platforms) == 3 + 16
    assert_all_freed(platforms)


def test_campaign_job_frees_every_run(platforms, tiny_workload):
    job = CampaignJob(
        label="tiny/CBA-WCET",
        scenario="wcet_estimation",
        seed=3,
        workload=tiny_workload,
        config=cba_config(),
        num_runs=2,
        max_cycles=200_000,
    )
    assert len(run_job(job).samples) == 2
    assert len(platforms) == 2 * (3 + 4)
    assert_all_freed(platforms)


@pytest.mark.parametrize("mode", list(KernelMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_fuzz_run_mode_frees_its_platform(platforms, path, mode):
    scenario = load_repro(path)[0]
    run_mode(scenario, mode)
    assert_all_freed(platforms)


def test_obs_record_frees_its_platform(platforms, tmp_path):
    summary = record_contention(tmp_path, access_scale=0.02, seed=3)
    assert summary["trace_events"] > 0
    assert (tmp_path / "kernel_profile.json").exists()
    assert_all_freed(platforms)


def test_a_closed_system_refuses_to_run_or_reset(tiny_workload):
    with MulticoreSystem(rp_config(), seed=1) as system:
        system.add_task(0, tiny_workload)
        result = system.run()
    # The finished run stays readable after the close.
    assert system.kernel.clock.cycle == result.total_cycles
    assert system.cores[0].finished
    # The kernel and its components no longer reference each other.
    assert system.kernel.components == ()
    with pytest.raises(RuntimeError, match="not registered"):
        system.cores[0].kernel
    with pytest.raises(ConfigurationError, match="closed"):
        system.run()
    with pytest.raises(ConfigurationError, match="closed"):
        system.reset()
    system.close()  # idempotent


def test_an_open_system_resets_and_runs_again(tiny_workload):
    with MulticoreSystem(cba_config(), seed=1) as system:
        system.add_task(0, tiny_workload)
        system.run()
        system.reset()
        assert system.kernel.clock.cycle == 0
        assert not system.cores[0].finished
        rerun = system.run()
        assert system.cores[0].finished and not rerun.truncated


def test_dispatch_tables_live_only_while_a_run_is_under_way(tiny_workload):
    with MulticoreSystem(cba_config(), seed=1) as system:
        system.add_task(0, tiny_workload)
        system.add_greedy_contender(1)
        system.run()
        kernel = system.kernel
        assert kernel.cycles_skipped > 0  # the run took the due-only loop
        assert kernel._slot_catch_ups == kernel._synced == kernel._due_marks == []
