"""Banked-DRAM equivalence matrix.

The banked DRAM model (row buffers, bank conflicts, FR-FCFS reordering) is
driven synchronously from the L2 bus slave at grant time, so it must be
*bit-identical* across every kernel mode — stepping, fast-forward and
production — exactly like the fixed-latency model it generalises.  These
tests enforce that for both controller policies under real multi-core
contention, and guard against vacuity: the banked model must actually
diverge from the fixed model, and FR-FCFS must actually reorder.

The geometry is chosen so victim writebacks alias with their replacement
fetches: the L2 partition (4 KiB) spans exactly ``num_banks × row_bytes``
(4 × 1 KiB), so a dirty victim and the line that evicts it land in the same
bank but different rows — the FR-FCFS-vs-in-order decision point.
"""

from __future__ import annotations

import pytest

from repro.platform.system import MulticoreSystem
from repro.sim.config import (
    BusTimings,
    CacheGeometry,
    KernelMode,
    MemoryConfig,
    PlatformConfig,
)
from repro.workloads.base import AddressPattern, WorkloadSpec

MAX_CYCLES = 2_000_000

DIRTY_STRIDER = WorkloadSpec(
    name="dirty-strider",
    num_accesses=400,
    working_set_bytes=64 * 1024,
    mean_compute_gap=1.0,
    pattern=AddressPattern.STRIDED,
    stride_bytes=32,
    write_fraction=0.8,
)


def _config(policy: str, random_caches: bool = True) -> PlatformConfig:
    return PlatformConfig(
        num_cores=4,
        arbitration="round_robin",
        bus_timings=BusTimings(memory_latency=28, bus_overhead=0, max_latency=56),
        l1_geometry=CacheGeometry(size_bytes=512, line_bytes=32, associativity=2),
        l2_geometry=CacheGeometry(size_bytes=16 * 1024, line_bytes=32, associativity=4),
        l2_partitioned=True,
        random_caches=random_caches,
        memory=MemoryConfig(
            model="banked",
            num_banks=4,
            row_bytes=1024,
            row_hit_latency=16,
            row_miss_latency=24,
            row_conflict_latency=28,
            controller_policy=policy,
        ),
    )


def _run(
    config: PlatformConfig,
    mode: KernelMode = KernelMode.PRODUCTION,
    seed: int = 11,
    cores: int | None = None,
):
    system = MulticoreSystem(config, seed=seed, run_index=0, label="dram", mode=mode)
    for core in range(cores if cores is not None else config.num_cores):
        system.add_task(core, DIRTY_STRIDER)
    return system.run(max_cycles=MAX_CYCLES)


def _agree(config: PlatformConfig, cores: int | None = None) -> dict:
    """Stepping's snapshot, asserted equal in the other two modes."""
    reference = _run(config, KernelMode.STEPPING, cores=cores).snapshot(0)
    for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
        assert _run(config, mode, cores=cores).snapshot(0) == reference, mode
    return reference


@pytest.mark.parametrize("policy", ["in_order", "frfcfs"])
def test_banked_dram_bit_identical_across_kernel_modes(policy):
    reference = _agree(_config(policy))
    assert reference["extra"]["memory"]["row_conflicts"] > 0  # DRAM truly contended


def test_banked_dram_deterministic_caches_bit_identical():
    _agree(_config("frfcfs", random_caches=False))


def test_reordering_bit_identical_across_kernel_modes():
    """The FR-FCFS decision itself must be mode-invariant.

    A single core's miss stream keeps its fetch row open between consecutive
    dirty misses (multi-core interleaving would close it), so this run
    actually reorders — and every mode must reorder identically.
    """
    reference = _agree(_config("frfcfs"), cores=1)
    assert reference["extra"]["memory"]["reordered_accesses"] > 0


def test_frfcfs_differs_from_in_order():
    in_order = _run(_config("in_order"), cores=1)
    frfcfs = _run(_config("frfcfs"), cores=1)
    assert in_order.total_cycles != frfcfs.total_cycles
    # Row hits recovered by reordering make the frfcfs schedule faster overall.
    assert frfcfs.extra["memory"]["row_hits"] > in_order.extra["memory"]["row_hits"]
    assert frfcfs.extra["memory"]["reordered_accesses"] > 0


def test_banked_differs_from_fixed():
    """Non-vacuity: the banked model changes timing relative to the fixed model."""
    banked = _run(_config("in_order"))
    fixed = _run(_config("in_order").with_updates(memory=MemoryConfig()))
    assert banked.total_cycles != fixed.total_cycles
    assert fixed.extra["memory"]["row_conflicts"] == 0
