"""A reset platform replays its first run exactly.

``MulticoreSystem.reset`` returns every piece of run state to where it stood
at ``finalize``: the registered components (cores, contenders, bus, arbiter,
CBA credit bank), the L2 slave behind the bus (contents, memory controller,
DRAM rows) and every random stream the arbiter and the caches draw from.  A
run, a reset and a second run must therefore give equal results, in every
kernel mode.
"""

from __future__ import annotations

import pytest

from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.platform.system import MulticoreSystem
from repro.sim.config import KernelMode, MemoryConfig
from repro.workloads.base import AddressPattern, WorkloadSpec

TINY = WorkloadSpec(
    name="tiny",
    num_accesses=120,
    working_set_bytes=4 * 1024,
    mean_compute_gap=6.0,
    gap_variability=0.3,
    pattern=AddressPattern.SEQUENTIAL,
    write_fraction=0.2,
    hot_fraction=0.5,
    hot_region_bytes=1024,
)

RANDOM = TINY.with_updates(name="random", pattern=AddressPattern.RANDOM)


BANKED_16 = rp_config(16).with_updates(
    memory=MemoryConfig(model="banked", controller_policy="frfcfs")
)
CONTENDED = {
    "rp": rp_config(),
    "cba": cba_config(),
    "hcba": hcba_config(),
    "tdma": rp_config(arbitration="tdma"),
}


def _build(name: str, mode: KernelMode) -> MulticoreSystem:
    if name == "banked16":
        system = MulticoreSystem(BANKED_16, seed=1, mode=mode)
        for core in range(16):
            system.add_task(core, TINY if core % 2 else RANDOM)
        return system
    if name == "wcet":
        system = MulticoreSystem(cba_config(), seed=1, mode=mode)
        system.add_task(0, TINY)
        for core in range(1, 4):
            system.add_wcet_contender(core, tua_core=0)
        system.set_tua_initial_budget(0, 0)
        return system
    system = MulticoreSystem(CONTENDED[name], seed=1, mode=mode)
    system.add_task(0, TINY)
    for core in range(1, 4):
        system.add_greedy_contender(core)
    return system


@pytest.mark.parametrize("mode", list(KernelMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", [*CONTENDED, "wcet", "banked16"])
def test_reset_and_rerun_replays_the_first_run(name, mode):
    with _build(name, mode) as system:
        first = system.run()
        system.reset()
        second = system.run()
    assert not first.truncated
    assert second == first


@pytest.mark.parametrize("mode", list(KernelMode), ids=lambda mode: mode.value)
def test_reset_inside_a_drawn_block_of_windows_replays_the_first_run(mode):
    """The random-permutations arbiter draws its windows in blocks; a reset
    that finds one half used drops it, the stream rewinds, and the rerun
    draws the same windows again."""
    with _build("rp", mode) as system:
        first = system.run()
        assert system.base_arbiter._drawn
        system.reset()
        second = system.run()
    assert second == first


def test_reset_before_the_first_run_changes_nothing():
    with _build("cba", KernelMode.PRODUCTION) as system:
        system.reset()
        first = system.run()
    with _build("cba", KernelMode.PRODUCTION) as fresh:
        assert fresh.run() == first
