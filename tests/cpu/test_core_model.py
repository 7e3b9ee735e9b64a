"""Tests for the trace-driven core model.

The core is exercised against a real bus with a fixed-latency slave so its
timing behaviour (compute, L1 hit, bus stall) can be checked cycle by cycle.
"""

import numpy as np
import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.cache.l1 import build_l1_cache
from repro.cpu.core_model import CoreModel, CoreState
from repro.cpu.trace import KIND_ATOMIC, KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
from repro.sim.config import CacheGeometry
from repro.sim.kernel import Kernel


def compute(gap):
    """A pure-compute ``(gap, address, kind)`` item."""
    return (gap, 0, KIND_NONE)


def access(address, kind=KIND_READ, gap=0):
    """``gap`` compute cycles, then one access of ``kind`` at ``address``."""
    return (gap, address, kind)


def as_trace(items):
    """The columnar trace of a list of ``(gap, address, kind)`` items."""
    return MaterializedTrace(
        [gap for gap, _, _ in items],
        [address for _, address, _ in items],
        [kind for _, _, kind in items],
    )


def build_system(items, bus_latency=4, num_masters=1):
    kernel = Kernel()
    bus = SharedBus(
        "bus",
        num_masters=num_masters,
        arbiter=RoundRobinArbiter(num_masters),
        slave=FixedLatencySlave(bus_latency),
        max_latency=56,
    )
    l1 = build_l1_cache(
        "l1",
        CacheGeometry(size_bytes=1024, line_bytes=32, associativity=2),
        random_caches=False,
        rng=np.random.default_rng(0),
    )
    core = CoreModel("core0", 0, as_trace(items), l1, bus)
    kernel.register(core)
    kernel.register(bus)
    return kernel, core, bus


def run_to_completion(kernel, core, max_cycles=10_000):
    kernel.add_stop_condition(lambda: core.finished)
    kernel.run(max_cycles=max_cycles)
    assert core.finished
    return core


def test_pure_compute_trace_finishes_without_bus_traffic():
    items = [compute(10), compute(5)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    assert core.counters.bus_requests == 0
    assert core.counters.compute_cycles == 15
    assert bus.stats.counter("requests_submitted").value == 0


def test_read_miss_generates_one_bus_request_and_hit_does_not():
    items = [access(0x100), access(0x100)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    assert core.counters.accesses == 2
    assert core.counters.bus_requests == 1
    assert core.counters.l1_hits == 1


def test_write_through_store_always_goes_to_bus():
    items = [access(0x80, KIND_WRITE), access(0x80, KIND_WRITE)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    assert core.counters.bus_requests == 2


def test_atomic_access_always_goes_to_bus():
    items = [access(0x40), access(0x40, KIND_ATOMIC)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    assert core.counters.bus_requests == 2


def test_core_blocks_while_request_in_flight():
    items = [access(0x100)]
    kernel, core, bus = build_system(items, bus_latency=10)
    kernel.step(3)  # L1 lookup done, request issued, waiting
    assert core.state is CoreState.WAITING_BUS
    assert core.request_ready()
    kernel.add_stop_condition(lambda: core.finished)
    kernel.run(max_cycles=100)
    assert core.finished


def test_execution_time_accounts_for_bus_latency():
    """One isolated miss costs: 1 cycle L1 + the bus hold time (grant is
    immediate on an idle bus) + 1 completion cycle."""
    items = [access(0x100)]
    kernel, core, bus = build_system(items, bus_latency=8)
    run_to_completion(kernel, core)
    assert core.counters.execution_cycles == pytest.approx(1 + 8 + 1, abs=1)
    assert core.counters.bus_hold_cycles == 8
    assert core.counters.bus_wait_cycles <= 2


def test_counters_latency_distribution_recorded():
    items = [access(0x100, gap=2), access(0x900, gap=2)]
    kernel, core, bus = build_system(items, bus_latency=6)
    run_to_completion(kernel, core)
    assert len(core.counters.request_latencies) == 2
    assert all(latency >= 6 for latency in core.counters.request_latencies)


def test_items_completed_counts_every_trace_item():
    items = [compute(1), access(0x100), compute(3)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    assert core.counters.items_completed == 3


def test_reset_restores_power_on_state():
    items = [access(0x100)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    core.reset()
    assert core.state is CoreState.COMPUTING
    assert core.counters.bus_requests == 0
    assert not core.finished


def test_reset_replays_the_same_trace():
    items = [compute(2), access(0x100, gap=1), access(0x900, KIND_WRITE), compute(3)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    first = core.counters.as_dict()
    kernel.reset()
    run_to_completion(kernel, core)
    assert core.counters.as_dict() == first
    assert core.counters.items_completed == len(items)


def test_reset_mid_run_rewinds_the_cursor():
    """A reset part-way through a run restarts the trace at its first item."""
    items = [compute(2), access(0x100, gap=1), access(0x900, KIND_WRITE), compute(3)]
    kernel, core, bus = build_system(items)
    run_to_completion(kernel, core)
    fresh = core.counters.as_dict()

    kernel, core, bus = build_system(items)
    kernel.step(5)
    assert core.counters.items_completed >= 1 and not core.finished
    kernel.reset()
    run_to_completion(kernel, core)
    assert core.counters.as_dict() == fresh


def test_empty_trace_finishes_immediately():
    kernel, core, bus = build_system([])
    kernel.step(2)
    assert core.finished
