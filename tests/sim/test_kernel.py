"""Tests for the cycle-driven kernel."""

from typing import ClassVar

import pytest

from repro.sim.component import Component
from repro.sim.errors import SchedulingError
from repro.sim.kernel import Kernel


class TickCounter(Component):
    """Counts its tick invocations and the cycles it saw."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.ticks = 0
        self.seen_cycles: list[int] = []

    def tick(self) -> None:
        self.ticks += 1
        self.seen_cycles.append(self.now)

    def reset(self) -> None:
        self.ticks = 0
        self.seen_cycles = []


class OrderProbe(Component):
    """Records the global order in which components were evaluated."""

    order: ClassVar[list[str]] = []

    def tick(self) -> None:
        OrderProbe.order.append(self.name)


def test_step_ticks_every_component_once_per_cycle():
    kernel = Kernel()
    a, b = TickCounter("a"), TickCounter("b")
    kernel.register_all([a, b])
    kernel.step(3)
    assert a.ticks == b.ticks == 3
    assert kernel.clock.cycle == 3
    assert a.seen_cycles == [0, 1, 2]


def test_components_ticked_in_registration_order():
    OrderProbe.order = []
    kernel = Kernel()
    kernel.register(OrderProbe("first"))
    kernel.register(OrderProbe("second"))
    kernel.step()
    assert OrderProbe.order == ["first", "second"]


def test_duplicate_component_name_rejected():
    kernel = Kernel()
    kernel.register(TickCounter("dup"))
    with pytest.raises(SchedulingError):
        kernel.register(TickCounter("dup"))


def test_component_lookup_by_name():
    kernel = Kernel()
    component = TickCounter("x")
    kernel.register(component)
    assert kernel.component("x") is component
    with pytest.raises(KeyError):
        kernel.component("missing")


def test_unbound_component_has_no_kernel():
    component = TickCounter("loose")
    with pytest.raises(RuntimeError):
        _ = component.kernel


def test_run_stops_on_condition():
    kernel = Kernel()
    counter = TickCounter("c")
    kernel.register(counter)
    kernel.add_stop_condition(lambda: counter.ticks >= 10)
    executed = kernel.run(max_cycles=1000)
    assert executed == 10
    assert kernel.finished


def test_run_respects_max_cycles():
    kernel = Kernel()
    kernel.register(TickCounter("c"))
    executed = kernel.run(max_cycles=25)
    assert executed == 25


def test_finished_kernel_cannot_run_or_step_again():
    kernel = Kernel()
    kernel.register(TickCounter("c"))
    kernel.run(max_cycles=1)
    with pytest.raises(SchedulingError):
        kernel.run(max_cycles=1)
    with pytest.raises(SchedulingError):
        kernel.step()


def test_reset_restores_clock_and_components():
    kernel = Kernel()
    counter = TickCounter("c")
    kernel.register(counter)
    kernel.run(max_cycles=5)
    kernel.reset()
    assert kernel.clock.cycle == 0
    assert counter.ticks == 0
    assert not kernel.finished


def test_kernel_exposes_named_random_streams():
    kernel = Kernel(seed=42, run_index=1)
    first = kernel.streams.stream("demo").integers(0, 1 << 30)
    again = Kernel(seed=42, run_index=1).streams.stream("demo").integers(0, 1 << 30)
    assert first == again
