"""Tests for the contender agents used in contention scenarios."""

import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.core.cba import CreditBasedArbiter
from repro.sim.component import Component
from repro.sim.config import CBAParameters, KernelMode
from repro.sim.kernel import Kernel
from repro.workloads.contender import GreedyContender, WCETModeContender


def build_bus(use_cba=False, num_masters=2, latency=56, mode=KernelMode.PRODUCTION):
    kernel = Kernel(mode=mode)
    base = RoundRobinArbiter(num_masters)
    arbiter = base
    cba = None
    if use_cba:
        cba = CreditBasedArbiter(base, CBAParameters(max_latency=56, num_cores=num_masters))
        arbiter = cba
    bus = SharedBus(
        "bus", num_masters=num_masters, arbiter=arbiter,
        slave=FixedLatencySlave(latency), max_latency=56,
    )
    return kernel, bus, cba


class TestGreedyContender:
    def test_keeps_exactly_one_request_outstanding(self):
        kernel, bus, _ = build_bus()
        contender = GreedyContender("c1", 1, bus)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(200)
        # 200 cycles / 56-cycle transactions -> 3 completed, a 4th in flight.
        assert contender.requests_completed == 3
        assert contender.requests_issued == 4

    def test_saturates_an_otherwise_idle_bus(self):
        kernel, bus, _ = build_bus()
        contender = GreedyContender("c1", 1, bus)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(300)
        assert bus.utilization() > 0.95

    def test_reset_clears_progress(self):
        kernel, bus, _ = build_bus()
        contender = GreedyContender("c1", 1, bus)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(60)
        contender.reset()
        assert contender.requests_issued == 0
        assert contender.requests_completed == 0


class TestWCETModeContender:
    def test_does_not_compete_while_tua_is_silent(self):
        kernel, bus, cba = build_bus(use_cba=True)
        contender = WCETModeContender("c1", 1, bus, tua_request_ready=lambda: False, cba=cba)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(100)
        assert contender.requests_issued == 0
        assert bus.utilization() == 0.0

    def test_competes_when_tua_has_a_request_and_budget_is_full(self):
        kernel, bus, cba = build_bus(use_cba=True)
        contender = WCETModeContender("c1", 1, bus, tua_request_ready=lambda: True, cba=cba)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(60)
        assert contender.requests_issued >= 1
        assert contender.requests_completed >= 1

    def test_budget_gating_limits_request_rate_under_cba(self):
        """After a 56-cycle grant the contender must wait for its budget to
        refill before competing again.  With two cores the net drain is one
        scaled unit per busy cycle, so the sustainable period is about
        56 (use) + 57 (recovery) cycles per request."""
        kernel, bus, cba = build_bus(use_cba=True)
        contender = WCETModeContender("c1", 1, bus, tua_request_ready=lambda: True, cba=cba)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(1000)
        assert contender.requests_completed <= 1000 // 110 + 1
        # ...and well below the unconstrained rate of one per 56 cycles.
        assert contender.requests_completed < 1000 // 56

    def test_without_cba_budget_condition_is_trivially_true(self):
        kernel, bus, _ = build_bus(use_cba=False)
        contender = WCETModeContender("c1", 1, bus, tua_request_ready=lambda: True, cba=None)
        kernel.register(contender)
        kernel.register(bus)
        kernel.step(300)
        assert contender.requests_completed >= 4


class RequestLine(Component):
    """A stand-in for the task under analysis: its request line follows
    ``edges`` (``(cycle, level)`` pairs), switched in its own tick, and each
    edge notifies the observers as a core does."""

    def __init__(self, name: str, edges: list[tuple[int, bool]]) -> None:
        super().__init__(name)
        self.edges = edges
        self.ready = False
        self.observers: list = []
        self._next = 0

    def tick(self) -> None:
        now = self.now
        while self._next < len(self.edges) and self.edges[self._next][0] == now:
            self.ready = self.edges[self._next][1]
            self._next += 1
            for observer in self.observers:
                observer()
        wake = self.next_event(now + 1)
        if wake is None:
            self.cancel_wake()
        else:
            self.schedule_wake(wake)

    def next_event(self, now: int) -> int | None:
        return self.edges[self._next][0] if self._next < len(self.edges) else None


EDGES = [(10, True), (40, False), (200, True), (203, False), (400, True)]


def run_wcet_contender(mode: KernelMode, use_cba: bool, line_first: bool):
    """One WCET-mode contender watching a request line registered before
    it (raised in an earlier slot, as a core's own tick does) or after it
    (raised in a later slot, as a bus callback does)."""
    kernel, bus, cba = build_bus(use_cba=use_cba, mode=mode)
    line = RequestLine("tua", list(EDGES))
    contender = WCETModeContender(
        "c1", 1, bus, tua_request_ready=lambda: line.ready, cba=cba
    )
    line.observers.append(contender.on_tua_line)
    ticks: list[int] = []
    real_tick = contender.tick

    def counted_tick() -> None:
        ticks.append(kernel.clock.cycle)
        real_tick()

    contender.tick = counted_tick
    order = [line, contender] if line_first else [contender, line]
    kernel.register_all([*order, bus])
    kernel.run(max_cycles=1_000)
    grants = list(bus.holder_log)
    return grants, contender.requests_issued, len(ticks), kernel


class TestWCETModeContenderWakes:
    @pytest.mark.parametrize("line_first", [True, False], ids=["earlier", "later"])
    @pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
    def test_due_only_dispatch_grants_on_the_stepped_cycles(self, use_cba, line_first):
        """The contender sees a rising line on the cycle stepping does — the
        same cycle from an earlier slot, the next one from a later slot —
        and refills, issues and re-arms on the stepped cycles."""
        stepped = run_wcet_contender(KernelMode.STEPPING, use_cba, line_first)
        for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
            grants, issued, ticks, kernel = run_wcet_contender(mode, use_cba, line_first)
            assert (grants, issued) == stepped[:2], mode
            assert issued > 0
            assert kernel.cycles_skipped > 0
            assert ticks < 1_000 - kernel.cycles_skipped

    def test_a_line_raised_in_a_later_slot_is_seen_next_cycle(self):
        early = run_wcet_contender(KernelMode.PRODUCTION, False, line_first=True)
        late = run_wcet_contender(KernelMode.PRODUCTION, False, line_first=False)
        # The first grant follows the first rising edge (cycle 10).
        assert early[0][:2] == [10, 1]
        assert late[0][:2] == [11, 1]

    def test_silent_line_never_wakes_the_contender(self):
        kernel, bus, cba = build_bus(use_cba=True)
        contender = WCETModeContender("c1", 1, bus, tua_request_ready=lambda: False, cba=cba)
        kernel.register(contender)
        kernel.register(bus)
        kernel.run(max_cycles=500)
        assert kernel.scheduled_wake(contender) is None
        assert kernel.cycles_skipped == 500
        assert contender.requests_issued == 0


@pytest.mark.parametrize("mode", [KernelMode.FAST_FORWARD, KernelMode.PRODUCTION])
def test_completions_touch_cores_but_not_greedy_contenders(tiny_workload, mode):
    """A greedy contender ticks before the bus and has no catch-up hook, so
    a completion calls it without touching it; the task core, which has
    lagging cycles to account, is touched at every completion."""
    from collections import Counter

    from repro.platform.presets import cba_config
    from repro.platform.system import MulticoreSystem

    touched: Counter[str] = Counter()
    with MulticoreSystem(cba_config(), seed=1, mode=mode) as system:
        system.add_task(0, tiny_workload)
        for core in (1, 2, 3):
            system.add_greedy_contender(core)
        touch = system.kernel.touch

        def counting_touch(component):
            touched[type(component).__name__] += 1
            touch(component)

        system.kernel.touch = counting_touch  # bound by each component at finalize
        result = system.run(max_cycles=300_000)
    assert touched["GreedyContender"] == 0
    assert sum(result.extra["contender_requests"].values()) > 0
    assert touched["CoreModel"] >= result.core_counters[0].bus_requests > 0
