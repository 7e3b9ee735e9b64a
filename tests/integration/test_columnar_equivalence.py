"""Columnar trace and batch interpreter equivalence matrix.

Every kernel mode walks each task's ``(gap, address, kind)`` trace columns
with the core's cursor, and in production the batch interpreter executes
whole bus-free stretches at once.  Both due-only modes promise a run
*bit-identical* to stepping's: same RNG draws, same cache outcomes, same
grant/completion cycles, same counters, same pWCET inputs.  Every row runs
in all three kernel modes (stepping, fast-forward, production) across every
arbitration policy, CBA on and off, and the scenarios that exercise every
consumption state (greedy contention, the Table I WCET-estimation mode,
multiprogram runs with store buffers, truncated runs, long L1-resident
stretches).  The trace-accounting rows check that the cursor consumes every
item exactly once in each mode.
"""

from __future__ import annotations

import pytest

from repro.cpu.trace import KIND_NONE
from repro.platform.scenarios import (
    run_isolation,
    run_max_contention,
    run_mixed_criticality,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.system import MulticoreSystem
from repro.sim.config import KernelMode, PlatformConfig
from repro.sim.trace import TraceRecorder
from repro.workloads.base import WorkloadSpec
from repro.workloads.synthetic import cpu_bound_workload, mixed_workload

ARBITERS = [
    "fifo",
    "round_robin",
    "tdma",
    "lottery",
    "random_permutations",
    "fixed_priority",
]

MAX_CYCLES = 2_000_000


def _config(
    arbitration: str, use_cba: bool, random_caches: bool = True, **kwargs
) -> PlatformConfig:
    return PlatformConfig(
        arbitration=arbitration, random_caches=random_caches, use_cba=use_cba, **kwargs
    )


def _store_buffer_workloads(tua: WorkloadSpec) -> dict[int, WorkloadSpec]:
    return {
        0: tua,
        1: WorkloadSpec(
            name="store_heavy",
            num_accesses=120,
            working_set_bytes=64 * 1024,
            mean_compute_gap=2.0,
            write_fraction=0.6,
        ),
        2: cpu_bound_workload(num_accesses=80),
    }


def _l1_resident(num_accesses: int, mean_compute_gap: float) -> WorkloadSpec:
    return WorkloadSpec(
        name="l1_resident",
        num_accesses=num_accesses,
        working_set_bytes=512,
        mean_compute_gap=mean_compute_gap,
        write_fraction=0.0,
    )


@pytest.fixture
def varied_workload() -> WorkloadSpec:
    """A workload exercising every access kind and the pure-compute tail."""
    return WorkloadSpec(
        name="varied",
        num_accesses=150,
        working_set_bytes=32 * 1024,
        mean_compute_gap=4.0,
        gap_variability=0.6,
        write_fraction=0.3,
        atomic_fraction=0.05,
        hot_fraction=0.4,
        hot_region_bytes=2 * 1024,
        tail_compute_cycles=25,
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_max_contention_identical_across_modes(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec, modes_agree
):
    """Greedy contention across the full policy/CBA matrix, with a workload
    that mixes reads, writes, atomics, hot-region reuse and a compute tail."""
    config = _config(arbitration, use_cba)
    modes_agree(
        lambda mode: run_max_contention(
            varied_workload, config, seed=11, run_index=2, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [True, False], ids=["cba", "plain"])
@pytest.mark.parametrize("arbitration", ["random_permutations", "tdma", "round_robin"])
def test_wcet_estimation_identical_across_modes(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec, modes_agree
):
    """The Table I analysis-mode scenario: the contenders observe the TuA's
    request line, which due-only dispatch and the batch interpreter must
    toggle on exactly the same cycles as stepping."""
    config = _config(arbitration, use_cba)
    modes_agree(
        lambda mode: run_wcet_estimation(
            varied_workload, config, seed=5, run_index=7, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ["round_robin", "tdma"])
def test_multiprogram_with_store_buffers_identical(
    arbitration: str, use_cba: bool, modes_agree
):
    """Real tasks on every core plus write buffers: exercises the buffered
    store drain, port-wait and store-stall states on the cursor path, and
    core wakes rescheduled from inside the bus's tick."""
    config = _config(arbitration, use_cba, store_buffer_entries=2)
    workloads = _store_buffer_workloads(mixed_workload(num_accesses=120))
    modes_agree(
        lambda mode: run_multiprogram(
            workloads, config, seed=3, run_index=1, max_cycles=MAX_CYCLES, mode=mode
        )
    )


# ----------------------------------------------------------------------
# Batch interpreter rows
# ----------------------------------------------------------------------
# The batch interpreter executes whole bus-free stretches (L1-hit reads and
# pure compute) in one call; production differs from fast-forward by it
# alone, so these rows pin it down across every arbiter and CBA on/off.


@pytest.mark.parametrize("random_caches", [True, False], ids=["random", "lru"])
@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_batch_interpreter_identical_across_arbiters(
    arbitration: str,
    use_cba: bool,
    random_caches: bool,
    varied_workload: WorkloadSpec,
    modes_agree,
):
    """Greedy contention across the full policy/CBA/cache matrix: the batch
    path must place every boundary bus access, grant and RNG draw on exactly
    the cycles the per-cycle columnar path produces — under random
    replacement, where batched hits skip their stamps, and under LRU, where
    each hit is stamped with the cycle stepping completes it."""
    config = _config(arbitration, use_cba, random_caches=random_caches)
    modes_agree(
        lambda mode: run_max_contention(
            varied_workload, config, seed=17, run_index=3, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_production_identical_across_arbiters(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec, modes_agree
):
    """A third seed of the greedy-contention matrix: production must wake
    the platform on exactly the cycles stepping acts on."""
    config = _config(arbitration, use_cba)
    modes_agree(
        lambda mode: run_max_contention(
            varied_workload, config, seed=13, run_index=5, max_cycles=MAX_CYCLES, mode=mode
        )
    )


@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_mixed_criticality_identical_across_arbiters(
    arbitration: str, use_cba: bool, varied_workload: WorkloadSpec, modes_agree
):
    """A critical task against real best-effort tasks on every other core:
    every core batches its own hit stretches and lags behind the clock
    between its wakes, and all of them finish."""
    config = _config(arbitration, use_cba)
    modes_agree(
        lambda mode: run_mixed_criticality(
            varied_workload,
            config,
            seed=29,
            run_index=1,
            max_cycles=MAX_CYCLES,
            best_effort=mixed_workload(num_accesses=100),
            mode=mode,
        )
    )


@pytest.mark.parametrize("max_cycles", [1_500, 3_000, 8_000, 12_345])
def test_batch_truncated_runs_identical(max_cycles: int, modes_agree):
    """A run truncated at its cycle budget mid-stretch must report exactly
    the partial work the stepped run reports: the batch interpreter bounds
    its eager effects by the kernel's run horizon, and a wake landing
    exactly on (or past) the horizon is never executed."""
    config = _config("round_robin", use_cba=False)
    workload = _l1_resident(2_000, mean_compute_gap=6.0)
    result = modes_agree(
        lambda mode: run_isolation(
            workload,
            config,
            seed=7,
            run_index=0,
            max_cycles=max_cycles,
            allow_truncation=True,
            mode=mode,
        )
    )
    assert result.truncated


def _longest_stretch(
    workload: WorkloadSpec, config: PlatformConfig, seed: int, run_index: int, max_cycles: int
) -> tuple[int, int, int]:
    """``(items, start, end cycle)`` of the longest stretch a production
    isolation run commits, read from its ``core.stretch`` trace events."""
    trace = TraceRecorder(kinds={"core.stretch"})
    system = MulticoreSystem(config, seed=seed, run_index=run_index, trace=trace)
    system.add_task(0, workload)
    system.run(max_cycles=max_cycles, allow_truncation=True)
    event = max(trace.events, key=lambda event: event.payload["items"])
    return event.payload["items"], event.cycle, event.cycle + event.payload["cycles"]


@pytest.mark.parametrize("arbitration", ["round_robin", "random_permutations"])
def test_long_resident_stretches_identical(arbitration: str, modes_agree):
    """An L1-resident, write-free workload makes the batch scan commit
    stretches of thousands of items in one go."""
    config = _config(arbitration, use_cba=False)
    workload = _l1_resident(4_000, mean_compute_gap=4.0)
    items, _, _ = _longest_stretch(workload, config, 19, 2, MAX_CYCLES)
    assert items >= 500
    modes_agree(
        lambda mode: run_isolation(
            workload, config, seed=19, run_index=2, max_cycles=MAX_CYCLES, mode=mode
        )
    )


def test_long_resident_stretch_truncated_identical(modes_agree):
    """A cycle budget that falls inside a long stretch cuts the stretch at
    the run horizon, and the partial work matches stepping's."""
    config = _config("round_robin", use_cba=False)
    workload = _l1_resident(4_000, mean_compute_gap=4.0)
    max_cycles = 12_000
    items, start, end = _longest_stretch(workload, config, 19, 2, MAX_CYCLES)
    assert items >= 500 and start < max_cycles < end
    result = modes_agree(
        lambda mode: run_isolation(
            workload,
            config,
            seed=19,
            run_index=2,
            max_cycles=max_cycles,
            allow_truncation=True,
            mode=mode,
        )
    )
    assert result.truncated


def test_batching_is_not_vacuous(varied_workload: WorkloadSpec):
    """The batch rows must actually exercise the batch path: an isolation run
    of the hot-region workload batches a substantial share of its items, and
    only in production."""
    config = _config("round_robin", use_cba=False)
    system = MulticoreSystem(config, seed=1, run_index=0)
    core = system.add_task(0, varied_workload)
    system.run(max_cycles=MAX_CYCLES)
    assert core.batch_stretches > 0
    assert core.batched_items > 0
    off_system = MulticoreSystem(config, seed=1, run_index=0, mode=KernelMode.FAST_FORWARD)
    off_core = off_system.add_task(0, varied_workload)
    off_system.run(max_cycles=MAX_CYCLES)
    assert off_core.batched_items == 0


def test_due_dispatch_is_not_vacuous(varied_workload: WorkloadSpec):
    """Production must actually schedule through the heap: the platform's
    components own live entries while the run progresses, and a stepping
    kernel enqueues nothing."""
    config = _config("round_robin", use_cba=False)
    system = MulticoreSystem(config, seed=1, run_index=0)
    core = system.add_task(0, varied_workload)
    system.finalize()
    kernel = system.kernel
    assert kernel.scheduled_wake(core) == 0  # primed from next_event
    system.run(max_cycles=MAX_CYCLES)
    assert kernel.cycles_skipped > 0
    off = MulticoreSystem(config, seed=1, run_index=0, mode=KernelMode.STEPPING)
    off_core = off.add_task(0, varied_workload)
    off.run(max_cycles=MAX_CYCLES)
    assert off.kernel.scheduled_wake(off_core) is None
    assert off.kernel.cycles_skipped == 0


@pytest.mark.parametrize("contenders", [0, 3], ids=["isolation", "greedy3"])
@pytest.mark.parametrize("store_buffer_entries", [0, 4], ids=["blocking", "buffered"])
@pytest.mark.parametrize("mode", list(KernelMode), ids=lambda mode: mode.value)
def test_cursor_consumes_every_trace_item_once(
    mode: KernelMode,
    store_buffer_entries: int,
    contenders: int,
    varied_workload: WorkloadSpec,
):
    """A finished core has walked its whole trace exactly once: an item the
    cursor (or a batch stretch) skipped or repeated would break the item,
    compute-cycle or access count."""
    config = _config(
        "round_robin", use_cba=False, store_buffer_entries=store_buffer_entries
    )
    system = MulticoreSystem(config, seed=23, run_index=0, mode=mode)
    core = system.add_task(0, varied_workload)
    for core_id in range(1, 1 + contenders):
        system.add_greedy_contender(core_id)
    assert not system.run(max_cycles=MAX_CYCLES).truncated
    trace = core.trace
    counters = core.counters
    assert core.finished
    assert counters.items_completed == len(trace)
    assert counters.compute_cycles == sum(trace.compute_gaps)
    assert counters.accesses == sum(kind != KIND_NONE for kind in trace.kinds)
