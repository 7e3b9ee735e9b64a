"""Unit tests for the core's batch interpreter.

The integration matrix (tests/integration/test_columnar_equivalence.py)
proves whole-system bit-identity; these tests pin down the mechanism itself
against a minimal bus + deterministic cache: stretch boundaries, exact cycle
accounting, LRU timestamp stamping, trace-end finishing and the store-buffer
suspension.
"""

import numpy as np
import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.cache.l1 import build_l1_cache
from repro.cpu.core_model import CoreModel
from repro.cpu.trace import KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
from repro.sim.config import CacheGeometry, KernelMode
from repro.sim.kernel import Kernel


def build_system(
    trace: MaterializedTrace,
    batch: bool,
    fast_forward: bool = True,
    bus_latency: int = 4,
    store_buffer_entries: int = 0,
    lru: bool = True,
):
    kernel = Kernel(mode=KernelMode.PRODUCTION if fast_forward else KernelMode.STEPPING)
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
        random_caches=not lru,
        rng=np.random.default_rng(0),
    )
    core = CoreModel(
        "core0",
        0,
        trace,
        l1,
        bus,
        store_buffer_entries=store_buffer_entries,
        mode=KernelMode.PRODUCTION if batch else KernelMode.FAST_FORWARD,
    )
    kernel.register(core)
    kernel.register(bus)
    kernel.add_stop_condition(lambda: core.finished)
    return kernel, core


def run_both(trace_columns, fast_forward: bool = True, **kwargs):
    """Run the same trace with and without batching; return the two cores."""
    results = []
    for batch in (False, True):
        trace = MaterializedTrace(*trace_columns)
        kernel, core = build_system(
            trace, batch=batch, fast_forward=fast_forward, **kwargs
        )
        kernel.run(max_cycles=100_000)
        assert core.finished
        results.append((kernel, core))
    return results


def state_of(kernel, core):
    cache = core.l1_data.cache
    return (
        kernel.clock.cycle,
        core.counters.as_dict(),
        core.counters.request_latencies,
        (cache.hits, cache.misses),
        cache.line_states(),
    )


# One line per set under modulo placement (32-byte lines): addresses 0, 32,
# 64... land in sets 0, 1, 2...
A, B, C = 0x000, 0x020, 0x040


def test_hit_stretch_executes_in_one_batch():
    # Warm the cache with three misses, then a long run of hits.
    columns = (
        [0, 0, 0] + [3] * 9,
        [A, B, C] + [A, B, C] * 3,
        [KIND_READ] * 12,
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)
    assert batched.batched_items == 9
    # The nine hits form one stretch (entered when the third miss completes).
    assert batched.batch_stretches == 1
    assert plain.batched_items == 0


def test_stretch_ends_at_write_and_at_miss():
    columns = (
        [0, 2, 2, 2, 2, 2],
        [A, A, A, B, A, A],
        [KIND_READ, KIND_READ, KIND_WRITE, KIND_READ, KIND_READ, KIND_READ],
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)
    # Stretch 1: the hit on A before the write; the write goes to the bus;
    # B misses (the scan comes back empty there, not a stretch); stretch 2:
    # the final two hits on A.
    assert batched.batch_stretches == 2
    assert batched.batched_items == 3


def test_pure_compute_tail_finishes_at_identical_cycle():
    columns = (
        [0, 5, 7, 25],
        [A, 0, 0, 0],
        [KIND_READ, KIND_NONE, KIND_NONE, KIND_NONE],
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)
    assert plain.counters.finish_cycle == batched.counters.finish_cycle
    assert batched.batched_items == 3


def test_whole_trace_batchable_from_first_tick():
    columns = ([4, 4, 4], [0, 0, 0], [KIND_NONE] * 3)
    (k_plain, plain), (k_batch, batched) = run_both(columns)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)
    assert batched.batched_items == 3
    assert batched.batch_stretches == 1


@pytest.mark.parametrize("fast_forward", [False, True], ids=["stepped", "skipped"])
def test_stepped_and_skipped_batch_agree(fast_forward):
    columns = (
        [1, 0, 3, 2, 0, 4],
        [A, B, A, C, B, A],
        [KIND_READ, KIND_READ, KIND_READ, KIND_WRITE, KIND_READ, KIND_READ],
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns, fast_forward=fast_forward)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)


def test_lru_timestamps_match_exactly():
    """Batched hits must stamp last_used with the cycle the stepped L1
    pipeline would have completed them — LRU victim choice depends on it."""
    columns = (
        [0, 1, 2, 3, 4],
        [A, A, A, A, A],
        [KIND_READ] * 5,
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns, lru=True)
    plain_lines = [
        (tag, last_used)
        for valid, tag, _, last_used in plain.l1_data.cache.line_states()
        if valid
    ]
    batch_lines = [
        (tag, last_used)
        for valid, tag, _, last_used in batched.l1_data.cache.line_states()
        if valid
    ]
    assert plain_lines == batch_lines


def test_store_buffer_suspends_batching_without_divergence():
    columns = (
        [0, 1, 1, 1, 1, 1],
        [A, A, A, B, A, A],
        [KIND_READ, KIND_WRITE, KIND_READ, KIND_WRITE, KIND_READ, KIND_READ],
    )
    (k_plain, plain), (k_batch, batched) = run_both(columns, store_buffer_entries=2)
    assert state_of(k_plain, plain) == state_of(k_batch, batched)


@pytest.mark.parametrize("stop_at", [3, 7, 15, 29])
def test_budget_stop_stays_bit_identical(stop_at):
    """A run can end mid-run at its cycle budget ("stop at cycle X"); the
    batch interpreter keeps its eager effects below the run horizon, so the
    partial results stay bit-identical to per-cycle execution."""
    columns = ([0] + [3] * 9, [A] * 10, [KIND_READ] * 10)
    states = []
    for batch in (False, True):
        trace = MaterializedTrace(*columns)
        kernel, core = build_system(trace, batch=batch)
        kernel.run(max_cycles=stop_at)
        assert kernel.truncated
        states.append(state_of(kernel, core))
    assert states[0] == states[1]


def test_bare_stepping_gets_exact_partial_state():
    """Outside Kernel.run there is no run horizon, so batching stays off:
    kernel.step(N) must leave exactly the cycle-accurate partial state a
    non-batch core would have (no eagerly applied future work)."""
    columns = ([0] + [5] * 19, [A] * 20, [KIND_READ] * 20)
    partials = []
    for batch in (False, True):
        trace = MaterializedTrace(*columns)
        kernel, core = build_system(trace, batch=batch)
        kernel.step(30)
        partials.append(state_of(kernel, core))
        assert core.batched_items == 0
    assert partials[0] == partials[1]


def test_reset_clears_batch_state_and_replays_identically():
    columns = ([0, 2, 2], [A, A, A], [KIND_READ] * 3)
    trace = MaterializedTrace(*columns)
    kernel, core = build_system(trace, batch=True)
    kernel.run(max_cycles=10_000)
    first = (core.counters.as_dict(), core.batched_items)
    kernel.reset()
    assert core.batched_items == 0
    kernel.run(max_cycles=10_000)
    assert (core.counters.as_dict(), core.batched_items) == first
