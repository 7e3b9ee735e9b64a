"""Unit tests for the kernel's event-aware fast-forwarding."""

from repro.sim.component import Component
from repro.sim.config import KernelMode
from repro.sim.kernel import Kernel


class PeriodicWorker(Component):
    """Acts every ``period`` cycles, sleeps (with a pushed wake) in between."""

    def __init__(self, name: str, period: int) -> None:
        super().__init__(name)
        self.period = period
        self.action_cycles: list[int] = []
        self.idle_cycles_seen = 0
        self.fast_forwarded = 0

    def tick(self) -> None:
        if self.now % self.period == 0:
            self.action_cycles.append(self.now)
            self.schedule_wake(self.now + self.period)
        else:
            self.idle_cycles_seen += 1

    def next_event(self, now: int) -> int | None:
        if now % self.period == 0:
            return now
        return now + (self.period - now % self.period)

    def fast_forward(self, start: int, cycles: int) -> None:
        self.fast_forwarded += cycles


class Sleeper(Component):
    """A component with no self-scheduled events at all."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1

    def next_event(self, now: int) -> int | None:
        return None


class DefaultHinter(Component):
    """Overrides tick but pushes no wakes: the default ``next_event`` keeps
    it due on every cycle."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1


def test_run_jumps_between_events_and_replays_accounting():
    kernel = Kernel()
    worker = kernel.register(PeriodicWorker("w", period=100))
    kernel.run(max_cycles=1000)
    assert kernel.clock.cycle == 1000
    # The worker acted on exactly the cycles plain stepping would have...
    assert worker.action_cycles == list(range(0, 1000, 100))
    # ...and every dead cycle was jumped, not stepped.
    assert worker.idle_cycles_seen == 0
    assert kernel.cycles_skipped == worker.fast_forwarded == 1000 - 10


def test_component_with_default_hint_disables_skipping():
    kernel = Kernel()
    worker = kernel.register(PeriodicWorker("w", period=100))
    plain = kernel.register(DefaultHinter("plain"))
    kernel.run(max_cycles=500)
    assert kernel.cycles_skipped == 0
    assert plain.ticks == 500
    assert worker.action_cycles == list(range(0, 500, 100))


def test_stepping_mode_disables_skipping():
    kernel = Kernel(mode=KernelMode.STEPPING)
    worker = kernel.register(PeriodicWorker("w", period=100))
    kernel.run(max_cycles=500)
    assert kernel.cycles_skipped == 0
    assert worker.idle_cycles_seen == 500 - 5


def test_all_quiescent_jumps_straight_to_the_cycle_budget():
    kernel = Kernel()
    sleeper = kernel.register(Sleeper("s"))
    executed = kernel.run(max_cycles=12345)
    assert executed == 12345
    assert kernel.cycles_skipped == 12345
    assert sleeper.ticks == 0
    assert kernel.truncated


def test_state_based_stop_condition_checked_after_each_jump():
    kernel = Kernel()
    worker = kernel.register(PeriodicWorker("w", period=50))
    kernel.add_stop_condition(lambda: len(worker.action_cycles) >= 3)
    kernel.run(max_cycles=10_000)
    # Actions at 0, 50 and 100; the predicate flips during the cycle-100 step
    # and is observed right after it — never later, despite the jumps.
    assert kernel.clock.cycle == 101
    assert kernel.stop_condition_fired


def test_reset_clears_skip_accounting():
    kernel = Kernel()
    kernel.register(Sleeper("s"))
    kernel.run(max_cycles=100)
    assert kernel.cycles_skipped == 100
    kernel.reset()
    assert kernel.cycles_skipped == 0
