"""Unit tests for the kernel's heap-based event queue.

Components push their wakes into the queue, with lazy generation-based
invalidation.  These tests pin the contracts the platform relies on: wakes
persist until superseded, staleness biases toward execution (never toward
skipping), a component that does not push is due on every cycle, and the
``run_horizon``/truncation/resumption behaviour of ``run`` is identical in
every mode.
"""

import pytest

from repro.sim.component import Component
from repro.sim.config import KernelMode
from repro.sim.errors import SchedulingError
from repro.sim.kernel import EventQueue, Kernel


class PeriodicPusher(Component):
    """Acts every ``period`` cycles, pushing its next wake from each action."""

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

    def reset(self) -> None:
        self.action_cycles = []
        self.idle_cycles_seen = 0
        self.fast_forwarded = 0


class PolledWorker(Component):
    """The same periodic behaviour without pushed wakes: the default
    ``next_event`` and no ``fast_forward``."""

    def __init__(self, name: str, period: int) -> None:
        super().__init__(name)
        self.period = period
        self.action_cycles: list[int] = []
        self.idle_cycles_seen = 0

    def tick(self) -> None:
        if self.now % self.period == 0:
            self.action_cycles.append(self.now)
        else:
            self.idle_cycles_seen += 1


class OneShot(Component):
    """Schedules a single wake at a fixed cycle and records its ticks."""

    def __init__(self, name: str, wake: int) -> None:
        super().__init__(name)
        self.wake = wake
        self.ticked_at: list[int] = []

    def tick(self) -> None:
        self.ticked_at.append(self.now)
        if self.now >= self.wake:
            self.cancel_wake()

    def next_event(self, now: int) -> int | None:
        return self.wake if now <= self.wake else None

    def fast_forward(self, start: int, cycles: int) -> None:
        pass


# ----------------------------------------------------------------------
# EventQueue mechanics
# ----------------------------------------------------------------------


def test_schedule_and_next_wake():
    queue = EventQueue()
    a, b = queue.add_slot(), queue.add_slot()
    queue.schedule(a, 50)
    queue.schedule(b, 20)
    assert queue.next_wake() == 20
    assert queue.scheduled_cycle(a) == 50
    assert queue.scheduled_cycle(b) == 20


def test_reschedule_supersedes_earlier_entry():
    queue = EventQueue()
    slot = queue.add_slot()
    queue.schedule(slot, 10)
    queue.schedule(slot, 30)  # the 10-entry is now stale
    assert queue.next_wake() == 30
    queue.schedule(slot, 5)
    assert queue.next_wake() == 5


def test_cancel_invalidates_lazily():
    queue = EventQueue()
    slot = queue.add_slot()
    queue.schedule(slot, 10)
    queue.cancel(slot)
    assert queue.next_wake() is None
    assert queue.scheduled_cycle(slot) is None
    # Cancelling an empty slot is a no-op.
    queue.cancel(slot)
    assert queue.next_wake() is None


def test_same_cycle_reschedule_is_deduplicated():
    queue = EventQueue()
    slot = queue.add_slot()
    queue.schedule(slot, 10)
    for _ in range(100):
        queue.schedule(slot, 10)
    assert len(queue) == 1  # no heap churn for re-confirmations
    assert queue.next_wake() == 10


def test_entries_persist_until_superseded():
    queue = EventQueue()
    slot = queue.add_slot()
    queue.schedule(slot, 10)
    # next_wake leaves the live entry in place; asking again returns it.
    assert queue.next_wake() == 10
    assert queue.next_wake() == 10


def test_clear_drops_everything():
    queue = EventQueue()
    slots = [queue.add_slot() for _ in range(3)]
    for i, slot in enumerate(slots):
        queue.schedule(slot, 10 + i)
    queue.clear()
    assert queue.next_wake() is None
    assert all(queue.scheduled_cycle(slot) is None for slot in slots)
    # Slots survive a clear and can be rescheduled.
    queue.schedule(slots[1], 7)
    assert queue.next_wake() == 7


def test_stale_entries_are_discarded_on_peek():
    queue = EventQueue()
    slot = queue.add_slot()
    # Each schedule supersedes the previous, earlier-cycle entry, so the
    # stale ones pile up at the heap top...
    for cycle in range(1, 101):
        queue.schedule(slot, cycle)
    assert len(queue) == 100
    # ...and one peek pops all 99 of them on its way to the live entry.
    assert queue.next_wake() == 100
    assert len(queue) == 1


# ----------------------------------------------------------------------
# Kernel integration
# ----------------------------------------------------------------------


def test_pushed_wakes_jump_between_events():
    kernel = Kernel()
    worker = kernel.register(PeriodicPusher("w", period=100))
    kernel.run(max_cycles=1000)
    assert worker.action_cycles == list(range(0, 1000, 100))
    assert worker.idle_cycles_seen == 0
    assert kernel.cycles_skipped == worker.fast_forwarded == 1000 - 10


@pytest.mark.parametrize("mode", [KernelMode.FAST_FORWARD, KernelMode.PRODUCTION])
def test_component_without_pushed_wakes_is_due_every_cycle(mode):
    """A component that pushes nothing keeps the wake its default
    ``next_event`` seeds, and a stale wake re-arms at the next cycle: due-only
    dispatch ticks it on every cycle, so nothing is skipped, while the pusher
    still ticks only on its own wakes."""
    kernel = Kernel(mode=mode)
    pusher = kernel.register(PeriodicPusher("push", period=100))
    polled = kernel.register(PolledWorker("poll", period=60))
    kernel.run(max_cycles=600)
    assert kernel.cycles_skipped == 0
    assert polled.action_cycles == list(range(0, 600, 60))
    assert polled.idle_cycles_seen == 600 - 10
    assert pusher.action_cycles == list(range(0, 600, 100))
    assert pusher.idle_cycles_seen == 0
    assert pusher.fast_forwarded == 600 - 6


def test_stepping_and_due_only_modes_execute_identically():
    results = []
    for mode in KernelMode:
        kernel = Kernel(mode=mode)
        first = kernel.register(PeriodicPusher("first", period=70))
        second = kernel.register(PeriodicPusher("second", period=45))
        kernel.run(max_cycles=1500)
        results.append(
            (
                first.action_cycles,
                second.action_cycles,
                first.idle_cycles_seen + first.fast_forwarded,
                kernel.clock.cycle,
            )
        )
    assert results[0] == results[1] == results[2]


def test_wake_exactly_on_run_horizon_is_not_executed():
    """A wake landing exactly on ``start + max_cycles`` belongs to the first
    cycle that may never run: the run must end at the horizon without ticking
    it, in both due-only modes."""
    for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
        kernel = Kernel(mode=mode)
        component = kernel.register(OneShot("edge", wake=500))
        executed = kernel.run(max_cycles=500)
        assert executed == 500
        assert kernel.clock.cycle == 500
        assert component.ticked_at == []  # the horizon tick never ran
        assert kernel.truncated


def test_wake_one_cycle_before_horizon_is_executed():
    kernel = Kernel()
    component = kernel.register(OneShot("edge", wake=499))
    kernel.run(max_cycles=500)
    assert component.ticked_at == [499]


def test_simultaneous_wakes_tick_once_in_registration_order():
    """Two components waking on the same cycle share one executed cycle."""
    order: list[str] = []

    class Ordered(OneShot):
        def tick(self) -> None:
            order.append(self.name)
            super().tick()

    kernel = Kernel()
    first = kernel.register(Ordered("first", wake=123))
    second = kernel.register(Ordered("second", wake=123))
    kernel.run(max_cycles=1000)
    assert first.ticked_at == second.ticked_at == [123]
    assert order == ["first", "second"]
    assert kernel.cycles_skipped == 1000 - 1


def test_stale_wake_degrades_to_stepping_never_to_skipping():
    """A live entry whose component stopped rescheduling forces execution
    from its cycle on — the safe direction (a tick too many is uniform
    bookkeeping; a tick too few would change behaviour)."""

    class Stale(Component):
        def __init__(self) -> None:
            super().__init__("stale")
            self.ticks = 0

        def tick(self) -> None:
            self.ticks += 1  # never reschedules, never cancels

        def next_event(self, now: int) -> int | None:
            return 10

    kernel = Kernel()
    component = kernel.register(Stale())
    kernel.run(max_cycles=20)
    # Cycles 0..9 were skipped; from the stale wake at 10 every cycle ran.
    assert kernel.cycles_skipped == 10
    assert component.ticks == 10


def test_step_after_run_still_raises_and_reset_resumes():
    """The finished guard survives the event-queue rewrite: resumption goes
    through reset(), which re-primes the heap from the components' hints and
    reproduces the run exactly."""
    kernel = Kernel()
    worker = kernel.register(PeriodicPusher("w", period=50))
    kernel.run(max_cycles=400)
    first = (list(worker.action_cycles), kernel.cycles_skipped)
    with pytest.raises(SchedulingError):
        kernel.step()
    with pytest.raises(SchedulingError):
        kernel.run(max_cycles=1)
    kernel.reset()
    assert kernel.scheduled_wake(worker) == 0  # re-primed from next_event(0)
    kernel.run(max_cycles=400)
    assert (list(worker.action_cycles), kernel.cycles_skipped) == first


def test_step_outside_run_ignores_the_queue():
    """Bare step() drives every cycle regardless of scheduled wakes."""
    kernel = Kernel()
    worker = kernel.register(PeriodicPusher("w", period=100))
    kernel.step(5)
    assert worker.action_cycles == [0]
    assert worker.idle_cycles_seen == 4
    assert kernel.cycles_skipped == 0


def test_schedule_wake_on_unbound_component_is_safe():
    component = PeriodicPusher("loose", period=10)
    component.schedule_wake(5)  # no kernel: must not raise
    component.cancel_wake()


def test_stepping_mode_ignores_pushes():
    """Stepping ticks every cycle; pushes are accepted and ignored, so a
    pushing component behaves identically."""
    kernel = Kernel(mode=KernelMode.STEPPING)
    worker = kernel.register(PeriodicPusher("w", period=100))
    kernel.run(max_cycles=1000)
    assert worker.action_cycles == list(range(0, 1000, 100))
    assert worker.idle_cycles_seen == 1000 - 10
    assert kernel.cycles_skipped == 0
    assert kernel.scheduled_wake(worker) is None  # nothing was enqueued
