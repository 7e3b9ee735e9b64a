"""Tests of the core's folded events.

Under due-only dispatch the core wakes once per bus-bound trace item, at the
access's final L1 cycle; ``CoreModel.fast_forward`` replays the transitions
it skipped (the boundary-item load at a stretch end, the compute cycles, the
begin-access cycle, the leading L1 cycles).  These tests pin the wake count
and check that a run cut anywhere inside such a window leaves exactly the
state stepping leaves there.
"""

import numpy as np
import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.cache.l1 import build_l1_cache
from repro.cpu.core_model import CoreModel, CoreState
from repro.cpu.trace import KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
from repro.experiments.runner import scale_workload
from repro.platform.presets import cba_config
from repro.platform.scenarios import run_max_contention
from repro.sim.config import CacheGeometry, KernelMode
from repro.sim.kernel import Kernel
from repro.workloads.eembc import eembc_workload

#: An L1 latency above one cycle, so a window has L1 cycles to stop inside.
LATENCY = 3

# One line per set under modulo placement (32-byte lines).
A, B, C = 0x000, 0x020, 0x040

#: Item 0 misses; items 1-2 (a hit and a pure-compute item) form a stretch
#: that stops at the write, item 3 (fold 2); item 4 misses after the write
#: completes (fold 1); items 5-6 hit, a stretch that stops at the miss on C,
#: item 7; item 8 is a stretch that ends the trace.
COLUMNS = (
    [0, 4, 3, 5, 6, 2, 2, 3, 1],
    [A, A, 0, A, B, A, B, C, 0],
    [
        KIND_READ,
        KIND_READ,
        KIND_NONE,
        KIND_WRITE,
        KIND_READ,
        KIND_READ,
        KIND_READ,
        KIND_READ,
        KIND_NONE,
    ],
)
STRETCH_ITEMS = {1, 2, 5, 6, 8}

#: Item 0 is a store that drains from the store buffer while item 1 computes
#: its long gap: the completion touches the core inside item 1's window.
#: Item 2's store drains while item 3's access is in its L1 cycles.
STORE_COLUMNS = (
    [0, 20, 1, 0, 2, 1],
    [A, B, C, A, B, C],
    [KIND_WRITE, KIND_READ, KIND_WRITE, KIND_READ, KIND_WRITE, KIND_READ],
)


def build(columns, mode: KernelMode, store_buffer_entries: int = 0):
    kernel = Kernel(mode=mode)
    bus = SharedBus(
        "bus",
        num_masters=1,
        arbiter=RoundRobinArbiter(1),
        slave=FixedLatencySlave(6),
        max_latency=56,
    )
    l1 = build_l1_cache(
        "l1",
        CacheGeometry(size_bytes=1024, line_bytes=32, associativity=2),
        random_caches=False,
        rng=np.random.default_rng(0),
        hit_latency=LATENCY,
    )
    core = CoreModel(
        "core0",
        0,
        MaterializedTrace(*columns),
        l1,
        bus,
        store_buffer_entries=store_buffer_entries,
        mode=mode,
    )
    kernel.register(core)
    kernel.register(bus)
    kernel.add_stop_condition(lambda: core.finished)
    return kernel, core


def state_of(kernel, core):
    cache = core.l1_data.cache
    return (
        kernel.clock.cycle,
        core.counters.as_dict(),
        core.counters.request_latencies,
        (cache.hits, cache.misses),
        cache.line_states(),
        core.state,
        core._cursor,
        core._compute_remaining,
        core._l1_remaining,
        core._pending_kind,
        # A stretch leaves the address of its last access behind.
        core._pending_address if core._pending_kind != KIND_NONE else None,
        list(core._store_buffer),
        core._store_in_flight,
    )


def phase_of(core, stretch_items) -> str:
    """Where the stepped core stands before its tick at the current cycle;
    ``stretch_items`` are the items production swallows in stretches."""
    if not core._started:
        return "start"
    state = core.state
    if core._cursor - 1 in stretch_items and state is not CoreState.FINISHED:
        return "stretch"
    if state is CoreState.COMPUTING and core._pending_kind != KIND_NONE:
        # A zero count means the tick at this cycle begins the access.
        return "compute" if core._compute_remaining else "begin_access"
    if state is CoreState.L1_ACCESS:
        return "after_begin" if core._l1_remaining == LATENCY else "l1"
    return state.value


def stepped_walk(columns, stretch_items=frozenset(), store_buffer_entries: int = 0):
    """Per-cycle phases of a stepped run, and the cycles a buffered store
    completed while the current item was inside its window."""
    kernel, core = build(columns, KernelMode.STEPPING, store_buffer_entries)
    phases = []
    touched_mid_window = []
    while not core.finished:
        phase = phase_of(core, stretch_items)
        phases.append(phase)
        in_flight = core._store_in_flight
        kernel.step()
        if in_flight and not core._store_in_flight and phase in (
            "compute",
            "begin_access",
            "after_begin",
            "l1",
        ):
            touched_mid_window.append(kernel.clock.cycle - 1)
    return phases, touched_mid_window


def run_until(columns, mode: KernelMode, budget: int, store_buffer_entries: int = 0):
    kernel, core = build(columns, mode, store_buffer_entries)
    kernel.run(max_cycles=budget)
    return state_of(kernel, core), kernel


def test_one_wake_per_bus_bound_item():
    """A full production run ticks the core once at start, once per bus
    request and once at the end of the stretch that ends the trace: the
    stretch ends in front of the write and the miss on C, and the compute
    end and begin-access cycle of every bus-bound item, are folded."""
    kernel, core = build(COLUMNS, KernelMode.PRODUCTION)
    ticks = []
    tick = core.tick

    def counting_tick():
        ticks.append(kernel.clock.cycle)
        tick()

    core.tick = counting_tick
    kernel.run(max_cycles=10_000)
    assert core.finished
    assert core.counters.bus_requests == 4
    assert core.batched_items == len(STRETCH_ITEMS)
    assert core.batch_stretches == 3
    assert len(ticks) == core.counters.bus_requests + 2
    stepped, _ = run_until(COLUMNS, KernelMode.STEPPING, 10_000)
    assert state_of(kernel, core) == stepped


@pytest.mark.parametrize(
    "phase", ["stretch", "compute", "begin_access", "after_begin", "l1"]
)
def test_truncated_run_matches_stepping_inside_a_fold(phase):
    """A run cut at its cycle budget inside a folded window (its final
    catch-up stops there) reports exactly the stepped partial state."""
    phases, _ = stepped_walk(COLUMNS, STRETCH_ITEMS)
    budgets = [cycle for cycle, where in enumerate(phases) if where == phase]
    assert budgets
    for budget in budgets:
        stepped, _ = run_until(COLUMNS, KernelMode.STEPPING, budget)
        for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
            partial, kernel = run_until(COLUMNS, mode, budget)
            assert kernel.truncated
            assert partial == stepped, (mode, budget)


def test_buffered_store_completion_inside_a_fold_matches_stepping():
    """A buffered store that completes while the core sits inside a folded
    window catches the core up mid-window; cutting the run at any cycle
    leaves exactly the stepped state."""
    phases, touched = stepped_walk(STORE_COLUMNS, store_buffer_entries=2)
    assert touched
    for budget in range(1, len(phases) + 1):
        stepped, _ = run_until(STORE_COLUMNS, KernelMode.STEPPING, budget, 2)
        for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
            partial, _ = run_until(STORE_COLUMNS, mode, budget, 2)
            assert partial == stepped, (mode, budget)


def test_matrix_cba_con_wakes_the_core_once_per_bus_request(monkeypatch):
    """On a paper workload the task's core ticks once at start, once per
    bus request (the final L1 cycle of each bus-bound item) and once where
    its last stretch ends the trace: nothing else wakes it."""
    ticks = 0
    tick = CoreModel.tick

    def counting_tick(core):
        nonlocal ticks
        ticks += 1
        tick(core)

    monkeypatch.setattr(CoreModel, "tick", counting_tick)
    workload = scale_workload(eembc_workload("matrix"), 0.1)
    result = run_max_contention(
        workload, cba_config(), seed=1, mode=KernelMode.PRODUCTION
    ).system
    counters = result.core_counters[0]
    assert counters.bus_requests == 164
    assert ticks == counters.bus_requests + 2
