"""Fast-forward equivalence matrix.

Due-only dispatch promises that jumping over dead cycles is *bit-identical*
to stepping through them: same grant/completion cycles, same RNG draws, same
counters, same pWCET inputs.  These tests run every row in all three kernel
modes (stepping, fast-forward, production) across every arbitration policy,
both cache configurations (random placement + replacement vs deterministic
modulo + LRU), CBA on and off, and the scenarios that exercise every
component state (greedy contention, the WCET-estimation mode of Table I,
multiprogram runs with store buffers).
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import scale_workload
from repro.platform.presets import rp_config
from repro.platform.scenarios import (
    run_max_contention,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.system import MulticoreSystem
from repro.sim.config import CBAParameters, KernelMode, MemoryConfig, PlatformConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload
from repro.workloads.synthetic import cpu_bound_workload, streaming_workload

ARBITERS = [
    "fifo",
    "round_robin",
    "tdma",
    "lottery",
    "random_permutations",
    "fixed_priority",
]

MAX_CYCLES = 2_000_000


def _config(arbitration: str, random_caches: bool, use_cba: bool, **kwargs) -> PlatformConfig:
    return PlatformConfig(
        arbitration=arbitration,
        random_caches=random_caches,
        use_cba=use_cba,
        **kwargs,
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("random_caches", [True, False], ids=["random", "deterministic"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_max_contention_identical_with_and_without_skipping(
    arbitration: str, random_caches: bool, use_cba: bool, modes_agree
):
    """Greedy contenders keep the bus saturated — the stall-heavy case
    fast-forwarding exists for — across the full policy/cache/CBA matrix."""
    config = _config(arbitration, random_caches, use_cba)
    workload = streaming_workload(num_accesses=150)
    modes_agree(
        lambda mode: run_max_contention(
            workload, config, seed=11, run_index=2, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [True, False], ids=["cba", "plain"])
@pytest.mark.parametrize("arbitration", ["random_permutations", "tdma", "round_robin"])
def test_wcet_estimation_identical_with_and_without_skipping(
    arbitration: str, use_cba: bool, modes_agree
):
    """The Table I analysis-mode contenders gate on the TuA's request line and
    their own budget — the trickiest wake interaction (COMP-bit dynamics,
    zeroed TuA budget, budget refill wake-ups, the TuA's line rising)."""
    config = _config(arbitration, random_caches=True, use_cba=use_cba)
    workload = streaming_workload(num_accesses=120)
    modes_agree(
        lambda mode: run_wcet_estimation(
            workload, config, seed=5, run_index=7, max_cycles=MAX_CYCLES, mode=mode
        )
    )


#: H-CBA parameterisations (N = 4, MaxL = 56): heterogeneous replenishment
#: shares, and per-core budget caps above the full budget, under which a
#: granted core can stay eligible for part of its hold.
HCBA = {
    "shares": CBAParameters(replenish_shares=(1, 3, 1, 1)),
    "caps": CBAParameters(budget_caps=(224, 336, 280, 224)),
}


@pytest.mark.parametrize("store_buffer_entries", [0, 2], ids=["blocking", "buffered"])
@pytest.mark.parametrize("hcba", sorted(HCBA))
@pytest.mark.parametrize("arbitration", ["random_permutations", "tdma", "round_robin"])
def test_wcet_estimation_under_hcba_identical(
    arbitration: str, hcba: str, store_buffer_entries: int, modes_agree
):
    """The Table I contenders' wakes under H-CBA: per-core refill rates and
    caps move their ``eligible_from``, and with a store buffer the TuA's
    request line also rises inside the bus's tick (a deferred request
    released by a store drain), which the contenders see a cycle later."""
    config = _config(
        arbitration,
        random_caches=True,
        use_cba=True,
        cba=HCBA[hcba],
        store_buffer_entries=store_buffer_entries,
    )
    workload = WorkloadSpec(
        name="store_burst",
        num_accesses=100,
        working_set_bytes=8 * 1024,
        mean_compute_gap=2.0,
        write_fraction=0.5,
    )
    modes_agree(
        lambda mode: run_wcet_estimation(
            workload, config, seed=8, run_index=1, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ["round_robin", "tdma"])
def test_multiprogram_with_store_buffers_identical(
    arbitration: str, use_cba: bool, modes_agree
):
    """Real tasks on every core plus write buffers: exercises the buffered
    store drain, port-wait and store-stall states under fast-forwarding."""
    config = _config(arbitration, random_caches=True, use_cba=use_cba, store_buffer_entries=2)
    store_heavy = WorkloadSpec(
        name="store_heavy",
        num_accesses=120,
        working_set_bytes=64 * 1024,
        mean_compute_gap=2.0,
        write_fraction=0.6,
    )
    workloads = {
        0: streaming_workload(num_accesses=120),
        1: store_heavy,
        2: cpu_bound_workload(num_accesses=80),
    }
    modes_agree(
        lambda mode: run_multiprogram(
            workloads, config, seed=3, run_index=1, max_cycles=MAX_CYCLES, mode=mode
        )
    )


def test_sixteen_core_banked_frfcfs_multiprogram_identical(modes_agree):
    """The shape of the 16-core consolidation benchmark at small scale: one
    EEMBC task per core, banked DRAM with FR-FCFS reordering.  Stepping and
    due-only dispatch (where most cores lag behind the clock between their
    wakes) must agree bit for bit."""
    config = rp_config(16).with_updates(
        memory=MemoryConfig(model="banked", controller_policy="frfcfs")
    )
    workloads = {
        core: scale_workload(eembc_workload(FIGURE1_BENCHMARKS[core % 4]), 0.05)
        for core in range(16)
    }
    dispatched = modes_agree(
        lambda mode: run_multiprogram(
            workloads, config, seed=1, run_index=0, max_cycles=MAX_CYCLES, mode=mode
        )
    )
    assert dispatched.system.observability["cycles_skipped"] > 0


def _build_contention_system(mode: KernelMode, use_cba: bool) -> MulticoreSystem:
    config = _config("random_permutations", random_caches=True, use_cba=use_cba)
    system = MulticoreSystem(config, seed=23, run_index=4, mode=mode)
    system.add_task(0, streaming_workload(num_accesses=150))
    for core in range(1, config.num_cores):
        system.add_greedy_contender(core)
    return system


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
def test_internal_state_identical_and_skipping_not_vacuous(use_cba: bool):
    """Deep comparison below the SystemResult surface: raw bus statistics,
    windowed monitor accounting and credit-bank refill cycles — plus proof that the
    fast-forwarded run actually skipped cycles (the matrix must not pass
    vacuously because nothing was ever jumped)."""
    stepped = _build_contention_system(KernelMode.STEPPING, use_cba=use_cba)
    skipped = _build_contention_system(KernelMode.PRODUCTION, use_cba=use_cba)
    stepped.run(max_cycles=MAX_CYCLES)
    skipped.run(max_cycles=MAX_CYCLES)

    assert stepped.kernel.cycles_skipped == 0
    assert skipped.kernel.cycles_skipped > 0
    assert skipped.kernel.clock.cycle == stepped.kernel.clock.cycle

    assert skipped.bus.stats.as_dict() == stepped.bus.stats.as_dict()
    assert skipped.l2_slave.stats.as_dict() == stepped.l2_slave.stats.as_dict()
    assert skipped.memory_controller.stats.as_dict() == stepped.memory_controller.stats.as_dict()

    assert skipped.monitor.windows == stepped.monitor.windows
    assert skipped.monitor.total_busy_per_master == stepped.monitor.total_busy_per_master
    assert skipped.monitor.total_cycles_observed == stepped.monitor.total_cycles_observed

    if use_cba:
        assert skipped.cba is not None and stepped.cba is not None
        end = stepped.kernel.clock.cycle
        assert skipped.cba.budgets(end) == stepped.cba.budgets(end)
        assert skipped.cba.blocked_cycles == stepped.cba.blocked_cycles
        assert skipped.cba.credits.eligible_from == stepped.cba.credits.eligible_from


def test_fast_forward_skips_most_cycles_of_a_memory_bound_run():
    """The point of the PR: in a bus-stall-bound run nearly every cycle is
    dead time, and the kernel should jump it rather than step it."""
    system = _build_contention_system(KernelMode.PRODUCTION, use_cba=False)
    system.run(max_cycles=MAX_CYCLES)
    total = system.kernel.clock.cycle
    assert system.kernel.cycles_skipped > 0.8 * total
