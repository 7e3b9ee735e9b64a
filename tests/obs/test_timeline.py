"""Tests for the Chrome trace export of recorded timelines."""

import json
from collections import Counter

from repro.obs.timeline import chrome_trace, write_chrome_trace
from repro.platform.system import MulticoreSystem
from repro.sim.config import ObservabilityConfig
from repro.sim.trace import TraceEvent


class TestChromeTrace:
    def test_span_events_become_complete_slices(self):
        events = [
            TraceEvent(10, "bus", "bus.grant", {"master": 1, "duration": 5}),
            TraceEvent(20, "core0", "core.stretch", {"items": 3, "cycles": 7}),
            TraceEvent(40, "kernel", "kernel.jump", {"cycles": 12}),
        ]
        document = chrome_trace(events)
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert [span["name"] for span in spans] == [
            "bus.grant", "core.stretch", "kernel.jump",
        ]
        assert spans[0]["ts"] == 10 and spans[0]["dur"] == 5
        assert spans[1]["dur"] == 7

    def test_bus_grants_get_per_master_tracks(self):
        events = [
            TraceEvent(10, "bus", "bus.grant", {"master": 0, "duration": 5}),
            TraceEvent(20, "bus", "bus.grant", {"master": 1, "duration": 5}),
        ]
        document = chrome_trace(events)
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert {"bus/master0", "bus/master1"} <= names

    def test_cba_balances_become_counter_tracks(self):
        events = [TraceEvent(5, "cba", "cba.drain", {"master": 0, "balances": [3, 9]})]
        document = chrome_trace(events)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "cba.budgets"
        assert counters[0]["args"] == {"core0": 3, "core1": 9}

    def test_other_events_become_instants(self):
        document = chrome_trace([TraceEvent(5, "bus", "bus.request", {"master": 2})])
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["args"] == {"master": 2}

    def test_late_recorded_events_are_exported_in_cycle_order(self):
        events = [
            TraceEvent(10, "bus", "bus.request", {"master": 0}),
            TraceEvent(30, "bus", "bus.request", {"master": 1}),
            TraceEvent(20, "cba", "cba.refill", {"eligible": [0], "balances": [1, 2]}),
            TraceEvent(30, "cba", "cba.refill", {"eligible": [1], "balances": [2, 1]}),
        ]
        document = chrome_trace(events)
        records = [e for e in document["traceEvents"] if e["ph"] != "M"]
        assert [(e["name"], e["ts"]) for e in records] == [
            ("bus.request", 10),
            ("cba.budgets", 20),
            ("cba.refill", 20),
            ("bus.request", 30),
            ("cba.budgets", 30),
            ("cba.refill", 30),
        ]
        # Tracks are still numbered in recording order.
        tracks = {e["args"]["name"]: e["tid"] for e in document["traceEvents"] if e["ph"] == "M"}
        assert tracks == {"repro-sim": 0, "bus": 1, "cba": 2}

    def test_payloads_are_forced_to_plain_json_types(self):
        document = chrome_trace(
            [TraceEvent(1, "bus", "bus.request", {"pending": (1, 2), "who": object()})]
        )
        json.dumps(document)  # must not raise


class TestContentionRecording:
    """Acceptance: a 4-core contention run yields a valid Chrome trace with
    spans for at least three component types."""

    def run_system(self, config, workload, obs, max_cycles=60_000):
        system = MulticoreSystem(config, seed=7, obs=obs)
        system.add_task(0, workload)
        for core in range(1, 4):
            system.add_greedy_contender(core)
        system.run(max_cycles=max_cycles)
        return system

    def test_contention_trace_has_spans_for_three_component_types(
        self, tmp_path, rp_platform, tiny_workload
    ):
        obs = ObservabilityConfig(timeline=True)
        system = self.run_system(rp_platform, tiny_workload, obs)
        target = write_chrome_trace(system.kernel.trace.events, tmp_path / "t.json")

        document = json.loads(target.read_text())
        assert isinstance(document["traceEvents"], list)
        span_kinds = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert {"bus.grant", "core.stretch", "kernel.jump"} <= span_kinds

    def test_cba_run_traces_credit_dynamics(self, cba_platform, tiny_workload):
        obs = ObservabilityConfig(timeline=True)
        system = self.run_system(cba_platform, tiny_workload, obs)
        kinds = {event.kind for event in system.kernel.trace.events}
        assert "cba.drain" in kinds
        assert "cba.refill" in kinds

    def test_cba_export_is_in_cycle_order_and_keeps_every_event(self, cba_platform, tiny_workload):
        obs = ObservabilityConfig(timeline=True)
        system = self.run_system(cba_platform, tiny_workload, obs)
        events = system.kernel.trace.events
        cycles = [event.cycle for event in events]
        # The recorder keeps CBA's late refill events where they were recorded.
        assert any(later < earlier for earlier, later in zip(cycles, cycles[1:]))

        records = [e for e in chrome_trace(events)["traceEvents"] if e["ph"] != "M"]
        stamps = [record["ts"] for record in records]
        assert stamps == sorted(stamps)
        exported = Counter(
            (record["name"], record["ts"]) for record in records if record["ph"] != "C"
        )
        assert exported == Counter((event.kind, event.cycle) for event in events)
        budgets = Counter(record["ts"] for record in records if record["ph"] == "C")
        assert budgets == Counter(event.cycle for event in events if "balances" in event.payload)

    def test_ring_mode_bounds_the_recording(self, rp_platform, tiny_workload):
        obs = ObservabilityConfig(timeline=True, timeline_capacity=50)
        system = self.run_system(rp_platform, tiny_workload, obs)
        trace = system.kernel.trace
        assert len(trace.events) == 50
        assert trace.dropped > 0
