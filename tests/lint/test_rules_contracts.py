"""Positive/negative fixtures for the component-contract (CON) rules."""

from __future__ import annotations


class TestNextEventWake:
    def test_next_event_without_wake_flagged(self, harness):
        source = """
            class Sleeper(Component):
                def tick(self):
                    self.count = self.count + 1

                def next_event(self, now):
                    return None
        """
        assert harness.rule_ids(source) == ["CON001"]

    def test_indirect_subclass_flagged(self, harness):
        source = """
            class QuietBus(SharedBus):
                def next_event(self, now):
                    return now + 10
        """
        assert harness.rule_ids(source) == ["CON001"]

    def test_next_event_with_schedule_wake_ok(self, harness):
        source = """
            class Waker(Component):
                def start(self):
                    self.schedule_wake(self.clock.cycle + 4)

                def next_event(self, now):
                    return now + 4
        """
        assert harness.rule_ids(source) == []

    def test_next_event_with_private_wake_helper_ok(self, harness):
        source = """
            class Waker(Component):
                def start(self):
                    self._wake_schedule(4)

                def next_event(self, now):
                    return 4
        """
        assert harness.rule_ids(source) == []

    def test_next_event_with_push_wake_ok(self, harness):
        source = """
            class Waker(Component):
                def on_complete(self, request, cycle):
                    self._push_wake(cycle + 1)

                def next_event(self, now):
                    return None
        """
        assert harness.rule_ids(source) == []

    def test_pure_observer_pragma_silences(self, harness):
        source = """
            class Observer(Component):
                # repro-lint: allow[CON001]
                def next_event(self, now):
                    return None
        """
        assert harness.rule_ids(source) == []

    def test_component_with_default_next_event_not_flagged(self, harness):
        source = """
            class Poller(Component):
                def tick(self):
                    pass
        """
        assert harness.rule_ids(source) == []


class TestFastForwardHint:
    def test_fast_forward_without_next_event_flagged(self, harness):
        source = """
            class Skipper:
                def fast_forward(self, start, cycles):
                    self.total = self.total + cycles
        """
        assert harness.rule_ids(source) == ["CON002"]

    def test_fast_forward_with_next_event_ok(self, harness):
        source = """
            class Skipper:
                def fast_forward(self, start, cycles):
                    self.total = self.total + cycles

                def next_event(self):
                    return None
        """
        assert harness.rule_ids(source) == []


class TestFastForwardClock:
    def test_fast_forward_reading_now_flagged(self, harness):
        source = """
            class Lagger:
                def next_event(self, now):
                    return None

                def fast_forward(self, start, cycles):
                    self.window_end = self.now + cycles
        """
        assert harness.rule_ids(source) == ["CON004"]

    def test_fast_forward_reading_clock_flagged(self, harness):
        source = """
            class Lagger:
                def next_event(self, now):
                    return None

                def fast_forward(self, start, cycles):
                    self.advance(self.clock.cycle, cycles)
                    self.stamp = self._clock.cycle
        """
        assert harness.rule_ids(source) == ["CON004", "CON004"]

    def test_fast_forward_using_start_ok(self, harness):
        source = """
            class Lagger:
                def next_event(self, now):
                    return now

                def fast_forward(self, start, cycles):
                    self.window_end = start + cycles
                    self.peer.now_cached = self.peer.now
        """
        assert harness.rule_ids(source) == []

    def test_clock_read_outside_fast_forward_ok(self, harness):
        source = """
            class Ticker:
                def tick(self):
                    self.last = self.now
        """
        assert harness.rule_ids(source) == []


class TestSlottedValueClass:
    def test_unslotted_dataclass_flagged(self, harness):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Request:
                address: int
        """
        assert harness.rule_ids(source, value_class=True) == ["CON003"]

    def test_slots_true_ok(self, harness):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Request:
                address: int
        """
        assert harness.rule_ids(source, value_class=True) == []

    def test_manual_slots_ok(self, harness):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Request:
                __slots__ = ("address",)
                address: int
        """
        assert harness.rule_ids(source, value_class=True) == []

    def test_outside_value_class_modules_not_flagged(self, harness):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Report:
                title: str
        """
        assert harness.rule_ids(source, value_class=False) == []

    def test_plain_class_not_flagged(self, harness):
        source = """
            class Request:
                def __init__(self, address):
                    self.address = address
        """
        assert harness.rule_ids(source, value_class=True) == []
