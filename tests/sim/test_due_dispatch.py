"""Due-only dispatch: ``Kernel.run`` ticks only the components whose wake is due.

Outside ``KernelMode.STEPPING`` the kernel ticks a component at its wake or
when another component touched it (:meth:`Kernel.touch`), and catches every
other cycle up lazily through ``fast_forward(start, cycles)``.  These tests
pin the contract against the stepping oracle: cross-slot calls in both
directions, truncated and stopped runs, every scenario runner taking the
due-only loop, the platform's tick savings, and a profiled run taking the
same path as an unprofiled one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

import pytest

from repro.experiments.runner import scale_workload
from repro.obs.profiler import KernelProfiler
from repro.cpu.core_model import CoreModel
from repro.platform.presets import cba_config, rp_config
from repro.platform.scenarios import (
    run_isolation,
    run_max_contention,
    run_mixed_criticality,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.system import MulticoreSystem
from repro.sim.component import Component
from repro.sim.config import KernelMode, MemoryConfig, ObservabilityConfig, PlatformConfig
from repro.workloads.base import WorkloadSpec
from repro.sim.kernel import Kernel
from repro.workloads.contender import WCETModeContender
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload


class Ledger(Component):
    """Acts every ``period`` cycles (at ``phase``); in between it only adds
    ``level * cycle`` to a running sum, which :meth:`fast_forward` replays in
    closed form from its ``start`` argument.  An action raises the level of
    every peer by ``push``, touching the peer first."""

    def __init__(self, name: str, period: int, phase: int, push: int) -> None:
        super().__init__(name)
        self.period = period
        self.phase = phase
        self.push = push
        self.peers: list[Ledger] = []
        self.level = 0
        self.weighted = 0
        self.cycles = 0
        #: ``(cycle, level)`` at every action.
        self.log: list[tuple[int, int]] = []
        #: Real ticks (not part of the compared state: stepping ticks always).
        self.ticks = 0

    def tick(self) -> None:
        now = self.now
        self.ticks += 1
        self.weighted += self.level * now
        self.cycles += 1
        if now % self.period == self.phase:
            self.log.append((now, self.level))
            for peer in self.peers:
                self._touch(peer)
                peer.level += self.push
            self.schedule_wake(now + self.period)

    def next_event(self, now: int) -> int | None:
        return now + (self.phase - now) % self.period

    def fast_forward(self, start: int, cycles: int) -> None:
        # The sum of level * c for c in [start, start + cycles).
        self.weighted += self.level * (cycles * start + cycles * (cycles - 1) // 2)
        self.cycles += cycles

    def state(self) -> tuple:
        return (self.level, self.weighted, self.cycles, tuple(self.log))


MODES = {
    "stepped": KernelMode.STEPPING,
    "fast_forward": KernelMode.FAST_FORWARD,
    "dispatched": KernelMode.PRODUCTION,
}


def _ledger_kernel(mode: str) -> tuple[Kernel, list[Ledger]]:
    """Three ledgers whose actions coincide at some cycles, wired so every
    slot calls into both an earlier and a later slot (or both later)."""
    kernel = Kernel(mode=MODES[mode])
    first = Ledger("first", period=12, phase=0, push=1)
    middle = Ledger("middle", period=7, phase=3, push=5)
    last = Ledger("last", period=4, phase=0, push=-2)
    first.peers = [middle, last]
    middle.peers = [first, last]
    last.peers = [first, middle]
    ledgers = [first, middle, last]
    kernel.register_all(ledgers)
    return kernel, ledgers


def _run_ledgers(mode: str, max_cycles: int, stop_after: int | None = None):
    kernel, ledgers = _ledger_kernel(mode)
    if stop_after is not None:
        kernel.add_stop_condition(lambda: len(ledgers[0].log) >= stop_after)
    kernel.run(max_cycles=max_cycles)
    return kernel, ledgers


@pytest.mark.parametrize("max_cycles", [1, 2, 11, 12, 13, 500, 1_003])
def test_cross_slot_calls_match_stepping(max_cycles: int):
    reference_kernel, reference = _run_ledgers("stepped", max_cycles)
    for mode in ("fast_forward", "dispatched"):
        kernel, ledgers = _run_ledgers(mode, max_cycles)
        assert kernel.clock.cycle == reference_kernel.clock.cycle
        assert [ledger.state() for ledger in ledgers] == [
            ledger.state() for ledger in reference
        ], mode


def test_dispatch_ticks_only_due_and_touched_components():
    kernel, ledgers = _run_ledgers("dispatched", 1_200)
    first, middle, last = ledgers
    assert kernel.cycles_skipped > 0
    executed = kernel.clock.cycle - kernel.cycles_skipped
    # ``first`` is in the earliest slot: a touch syncs it without a tick, so
    # it ticks at its own actions only.  ``middle`` also ticks when ``first``
    # calls into it; ``last`` ticks at its actions and whenever ``middle``
    # acts — which covers every executed cycle.
    assert first.ticks == len(first.log) == 100
    assert len(middle.log) < middle.ticks < executed
    assert last.ticks == executed
    # Every lagging cycle was caught up by the end of the run.
    assert all(ledger.cycles == 1_200 for ledger in ledgers)


@pytest.mark.parametrize("max_cycles", [5, 9, 250, 1_001])
def test_truncated_run_leaves_every_counter_synced(max_cycles: int):
    """The budget runs out mid-gap: no component is due, yet each one must
    account for every cycle up to the budget."""
    stepped_kernel, stepped = _run_ledgers("stepped", max_cycles)
    kernel, ledgers = _run_ledgers("dispatched", max_cycles)
    assert kernel.truncated and stepped_kernel.truncated
    assert all(ledger.cycles == max_cycles for ledger in ledgers)
    assert [ledger.state() for ledger in ledgers] == [ledger.state() for ledger in stepped]


def test_stopped_run_leaves_every_counter_synced():
    stepped_kernel, stepped = _run_ledgers("stepped", 10_000, stop_after=9)
    kernel, ledgers = _run_ledgers("dispatched", 10_000, stop_after=9)
    assert kernel.stop_condition_fired and stepped_kernel.stop_condition_fired
    assert kernel.clock.cycle == stepped_kernel.clock.cycle
    assert all(ledger.cycles == kernel.clock.cycle for ledger in ledgers)
    assert [ledger.state() for ledger in ledgers] == [ledger.state() for ledger in stepped]


def test_touch_outside_a_run_is_a_no_op():
    kernel, (first, middle, _) = _ledger_kernel("dispatched")
    first._touch(middle)
    kernel.touch(Ledger("unregistered", period=3, phase=0, push=1))
    assert middle.cycles == 0


# ----------------------------------------------------------------------
# The platform
# ----------------------------------------------------------------------


def _sixteen_core_system(scale: float, **kwargs) -> MulticoreSystem:
    """The shape of the 16-core consolidation benchmark, at small scale."""
    config = rp_config(16).with_updates(
        memory=MemoryConfig(model="banked", controller_policy="frfcfs")
    )
    system = MulticoreSystem(config, seed=1, run_index=0, **kwargs)
    for core in range(16):
        workload = eembc_workload(FIGURE1_BENCHMARKS[core % 4])
        system.add_task(core, scale_workload(workload, scale))
    return system


def _count_calls(system: MulticoreSystem, hook: str) -> Counter:
    """Wrap ``hook`` on every component instance with a call counter."""
    calls: Counter = Counter()
    for component in system.kernel.components:
        real = getattr(component, hook)

        def counted(*args, _real: Callable = real, _name: str = component.name):
            calls[_name] += 1
            return _real(*args)

        setattr(component, hook, counted)
    return calls


def test_sixteen_core_run_ticks_cores_on_few_executed_cycles():
    system = _sixteen_core_system(0.05)
    system.finalize()
    ticks = _count_calls(system, "tick")
    system.run(max_cycles=5_000_000)
    kernel = system.kernel
    executed = kernel.clock.cycle - kernel.cycles_skipped
    core_ticks = sum(ticks[core.name] for core in system.cores.values())
    assert executed > 0 and core_ticks > 0
    assert core_ticks <= 0.10 * executed * 16
    # The monitor is a view over the bus's holder log, not a kernel
    # component.  Everything was caught up.
    assert system.monitor not in kernel.components
    assert system.monitor.total_cycles_observed == kernel.clock.cycle
    assert system.bus.stats.counter("cycles_total").value == kernel.clock.cycle


def _wcet_system(scale: float, **kwargs) -> MulticoreSystem:
    """The WCET-estimation runs of the MBPTA pool, at small scale."""
    system = MulticoreSystem(cba_config(), seed=1, run_index=0, **kwargs)
    system.add_task(0, scale_workload(eembc_workload("canrdr"), scale))
    for core in range(1, 4):
        system.add_wcet_contender(core, tua_core=0)
    system.set_tua_initial_budget(0, 0)
    return system


@pytest.mark.parametrize(
    "build",
    [lambda **kw: _sixteen_core_system(0.03, **kw), lambda **kw: _wcet_system(0.1, **kw)],
    ids=["sixteen_core", "wcet_estimation"],
)
def test_profiled_run_ticks_the_same_components(build):
    plain = build()
    plain.finalize()
    plain_ticks = _count_calls(plain, "tick")
    plain_catch_ups = _count_calls(plain, "fast_forward")
    plain.run(max_cycles=5_000_000)

    profiled = build(obs=ObservabilityConfig(profile_kernel=True))
    profiled.run(max_cycles=5_000_000)
    profiler = profiled.profiler
    assert isinstance(profiler, KernelProfiler)
    profiled_calls = profiler._calls

    for component in plain.kernel.components:
        name = component.name
        assert profiled_calls.get((name, "tick"), 0) == plain_ticks[name], name
        assert profiled_calls.get((name, "fast_forward"), 0) == plain_catch_ups[name], name
    assert profiled.kernel.cycles_skipped == plain.kernel.cycles_skipped
    assert profiler.executed_cycles == plain.kernel.clock.cycle - plain.kernel.cycles_skipped


def test_wcet_contenders_tick_on_few_executed_cycles():
    """The Table I contenders push their wakes: each ticks when the TuA's
    request line rises, when its budget refills and when it issues — not
    on every executed cycle."""
    system = _wcet_system(0.1)
    system.finalize()
    ticks = _count_calls(system, "tick")
    result = system.run(max_cycles=5_000_000)
    kernel = system.kernel
    executed = kernel.clock.cycle - kernel.cycles_skipped
    contender_ticks = sum(ticks[c.name] for c in system.contenders.values())
    assert all(isinstance(c, WCETModeContender) for c in system.contenders.values())
    assert sum(result.extra["contender_requests"].values()) > 0
    assert 0 < contender_ticks <= 0.35 * executed * len(system.contenders)


_SCENARIO_WORKLOAD = scale_workload(eembc_workload("canrdr"), 0.05)
SCENARIO_RUNNERS: dict[str, Callable] = {
    "isolation": lambda mode: run_isolation(_SCENARIO_WORKLOAD, cba_config(), mode=mode),
    "max_contention": lambda mode: run_max_contention(
        _SCENARIO_WORKLOAD, cba_config(), mode=mode
    ),
    "wcet_estimation": lambda mode: run_wcet_estimation(
        _SCENARIO_WORKLOAD, cba_config(), mode=mode
    ),
    "multiprogram": lambda mode: run_multiprogram(
        {core: _SCENARIO_WORKLOAD for core in range(4)}, cba_config(), mode=mode
    ),
    "mixed_criticality": lambda mode: run_mixed_criticality(
        _SCENARIO_WORKLOAD, cba_config(), mode=mode
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIO_RUNNERS))
def test_every_scenario_runner_takes_due_only_dispatch(scenario, monkeypatch):
    """Production runs every shipped scenario on the due-only loop (no
    component forces stepping); stepping runs it on the stepping loop."""
    loops: list[str] = []
    for name in ("_run_due", "_run_stepping"):
        real = getattr(Kernel, name)

        def spy(kernel, limit, _real=real, _name=name):
            loops.append(_name)
            return _real(kernel, limit)

        monkeypatch.setattr(Kernel, name, spy)
    run = SCENARIO_RUNNERS[scenario]
    production = run(KernelMode.PRODUCTION)
    assert loops == ["_run_due"]
    assert production.system.observability["cycles_skipped"] > 0
    loops.clear()
    stepping = run(KernelMode.STEPPING)
    assert loops == ["_run_stepping"]
    assert stepping.snapshot() == production.snapshot()


def test_tdma_under_cba_wakes_exactly_at_the_refilled_slot():
    """A budget-blocked master's wake is its base policy's first chance once
    refilled (its next TDMA slot), not the refill itself: due-only dispatch
    executes no no-op cycle there, so it skips exactly 29,637 cycles (a
    refill wake would execute one more; the cores' folded compute-end and
    begin-access cycles and the contenders' re-issue cycles, which the bus
    admits from their posts, are skipped too), and every counter still
    equals stepping."""
    workload = scale_workload(eembc_workload("cacheb"), 0.1)
    config = PlatformConfig(arbitration="tdma", random_caches=True, use_cba=True)
    results = {
        name: run_max_contention(
            workload, config, seed=2, run_index=0, max_cycles=3_000_000, mode=mode
        ).system
        for name, mode in MODES.items()
    }
    skipped = {mode: result.observability["cycles_skipped"] for mode, result in results.items()}
    assert skipped["stepped"] == 0
    assert skipped["dispatched"] == 29_637
    assert 0 < skipped["fast_forward"] < skipped["dispatched"]  # no batched stretches
    assert results["stepped"].cba_blocked_cycles > 0
    for mode in ("fast_forward", "dispatched"):
        assert results[mode].snapshot(0) == results["stepped"].snapshot(0), mode


def test_run_ending_in_a_store_drain_stops_on_the_stepped_cycle(monkeypatch):
    """The platform stops on a count of finished cores kept at the
    transitions.  The last core here finishes through its store buffer's
    drain (the trace is exhausted first), and the run stops on the same
    cycle as stepping; re-running after a reset counts afresh."""
    drained: list[bool] = []
    finish = CoreModel._finish

    def recording_finish(core):
        drained.append(bool(core._store_buffer or core._store_in_flight))
        finish(core)

    monkeypatch.setattr(CoreModel, "_finish", recording_finish)
    stores = WorkloadSpec(
        name="stores",
        num_accesses=80,
        working_set_bytes=64 * 1024,
        mean_compute_gap=1.0,
        write_fraction=1.0,
    )
    config = PlatformConfig(arbitration="round_robin", store_buffer_entries=4)
    results = {
        name: run_isolation(stores, config, seed=3, run_index=0, mode=mode).system
        for name, mode in MODES.items()
    }
    assert drained and drained[0]
    for mode in ("fast_forward", "dispatched"):
        assert results[mode].snapshot(0) == results["stepped"].snapshot(0), mode

    reruns = {}
    for name, mode in MODES.items():
        system = MulticoreSystem(config, seed=3, run_index=0, mode=mode)
        system.add_task(0, stores)
        assert system.run().total_cycles == results["stepped"].total_cycles
        system.kernel.reset()
        assert not system._all_tasks_finished()
        rerun = system.run()
        assert system._all_tasks_finished() and not rerun.truncated
        reruns[name] = rerun.snapshot(0)
    # A reset replays each trace's pre-drawn sequence in every mode.
    for mode in ("fast_forward", "dispatched"):
        assert reruns[mode] == reruns["stepped"], mode
