"""Tests for the optional per-core write (store) buffer.

The paper's platform uses write-through L1 data caches, so every store
produces a bus transaction.  Real LEON3 pipelines hide the store latency with
a small write buffer; the core model exposes it as an option
(``store_buffer_entries``), disabled by default to match the configuration
used for the paper's experiments.
"""

import numpy as np
import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.cache.l1 import build_l1_cache
from repro.cpu.core_model import CoreModel
from repro.cpu.trace import KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
from repro.platform.presets import cba_config, rp_config
from repro.platform.scenarios import run_isolation
from repro.sim.config import CacheGeometry
from repro.sim.kernel import Kernel


def build_system(items, store_buffer_entries, bus_latency=6):
    kernel = Kernel()
    bus = SharedBus(
        "bus",
        num_masters=1,
        arbiter=RoundRobinArbiter(1),
        slave=FixedLatencySlave(bus_latency),
        max_latency=56,
    )
    l1 = build_l1_cache(
        "l1",
        CacheGeometry(size_bytes=1024, line_bytes=32, associativity=2),
        random_caches=False,
        rng=np.random.default_rng(0),
    )
    core = CoreModel(
        "core0", 0, as_trace(items), l1, bus,
        store_buffer_entries=store_buffer_entries,
    )
    kernel.register(core)
    kernel.register(bus)
    kernel.add_stop_condition(lambda: core.finished)
    return kernel, core, bus


def as_trace(items):
    """The columnar trace of a list of ``(gap, address, kind)`` items."""
    return MaterializedTrace(
        [gap for gap, _, _ in items],
        [address for _, address, _ in items],
        [kind for _, _, kind in items],
    )


def store_item(address, gap=0):
    return (gap, address, KIND_WRITE)


def run(kernel, core, max_cycles=20_000):
    kernel.run(max_cycles=max_cycles)
    assert core.finished
    return core


def test_negative_buffer_size_rejected():
    with pytest.raises(ValueError):
        build_system([], store_buffer_entries=-1)


def test_buffered_stores_do_not_block_the_pipeline():
    """With a buffer, a store plus trailing computation overlaps the bus
    transaction, so the run is shorter than in the blocking configuration."""
    items = [store_item(0x100), (30, 0, KIND_NONE)]
    kernel_b, core_b, _ = build_system(items, store_buffer_entries=2)
    run(kernel_b, core_b)
    kernel_a, core_a, _ = build_system(items, store_buffer_entries=0)
    run(kernel_a, core_a)
    assert core_b.execution_cycles < core_a.execution_cycles
    assert core_b.counters.buffered_stores == 1
    assert core_a.counters.buffered_stores == 0


def test_all_stores_still_reach_the_bus():
    items = [store_item(0x100 + i * 64, gap=2) for i in range(5)]
    kernel, core, bus = build_system(items, store_buffer_entries=2)
    run(kernel, core)
    assert core.counters.bus_requests == 5
    assert bus.stats.counter("requests_completed").value == 5


def test_task_only_finishes_after_the_buffer_drains():
    items = [store_item(0x100)]
    kernel, core, bus = build_system(items, store_buffer_entries=4, bus_latency=10)
    run(kernel, core)
    # The finish time covers the drained store (grant + 10-cycle hold).
    assert core.execution_cycles >= 10
    assert bus.stats.counter("requests_completed").value == 1


def test_full_buffer_stalls_the_core():
    # Three back-to-back stores with a 1-entry buffer: the third must stall.
    items = [store_item(0x100 + i * 64) for i in range(3)]
    kernel, core, _ = build_system(items, store_buffer_entries=1, bus_latency=20)
    run(kernel, core, max_cycles=50_000)
    assert core.counters.store_stall_cycles > 0
    assert core.counters.bus_requests == 3


def test_demand_read_waits_for_the_port_then_completes():
    items = [
        store_item(0x100),
        (0, 0x900, KIND_READ),
    ]
    kernel, core, bus = build_system(items, store_buffer_entries=2, bus_latency=15)
    run(kernel, core, max_cycles=50_000)
    assert core.counters.bus_requests == 2
    assert bus.stats.counter("requests_completed").value == 2
    # The read could not start before the store released the single port, so
    # the total run covers both transactions back to back.
    assert core.execution_cycles >= 30


def test_platform_config_threads_the_buffer_size_through(tiny_workload):
    config = rp_config().with_updates(store_buffer_entries=2)
    result = run_isolation(tiny_workload, config, seed=5)
    assert result.system.core_counters[0].buffered_stores > 0


def test_store_buffer_speeds_up_the_baseline_bus(tiny_workload):
    """Hiding store latency shortens execution on the RP bus.  Under CBA a
    bus-hungry task is budget-bound rather than latency-bound, so buffering
    cannot hurt it but does not buy much either — which is why the paper's
    configuration (no buffer) is kept as the default."""
    rp_plain = run_isolation(tiny_workload, rp_config(), seed=6).tua_cycles
    rp_buffered = run_isolation(
        tiny_workload, rp_config().with_updates(store_buffer_entries=4), seed=6
    ).tua_cycles
    assert rp_buffered <= rp_plain

    cba_plain = run_isolation(tiny_workload, cba_config(), seed=6).tua_cycles
    cba_buffered = run_isolation(
        tiny_workload, cba_config().with_updates(store_buffer_entries=4), seed=6
    ).tua_cycles
    assert cba_buffered <= cba_plain * 1.02
