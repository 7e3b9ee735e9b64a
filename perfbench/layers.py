"""Per-layer span tracing from outside the simulator.

:class:`LayerTracer` times the calls into each layer's public functions by
swapping class attributes (and two module-level functions of
``repro.mbpta.protocol``) for timing wrappers while a ``with
tracer.active():`` block runs, and restoring the originals afterwards.
Nothing under ``src/`` is edited.

Two rules keep the traced run on the same code path as the untraced one:

* only methods a class defines in its *own* ``__dict__`` are wrapped, so
  identity checks of the form ``type(obj).hook is not Base.hook`` (the
  kernel's hook filtering, the bus's ``_arbiter_is_stateful``) see the same
  answer; ``Arbiter.cycle_update`` — the base no-op those checks compare
  against — is never wrapped;
* wrappers only measure: they forward every argument and return value.

Every wrapped call becomes one span tagged with the id of the simulated run
(one :class:`~repro.platform.system.MulticoreSystem`) it belongs to.  A
layer's self time is its spans' durations minus the time covered by their
child spans, accumulated on the fly.  Spans are kept in memory up to a cap
and written once, as Chrome trace-event JSON, by :meth:`write_chrome_trace`.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Spans kept for the Chrome trace; the aggregates cover every call.
SPAN_CAPACITY = 200_000

#: System counters harvested after every traced ``MulticoreSystem.run``.
COUNTER_NAMES = (
    "runs",
    "total_cycles",
    "skipped_cycles",
    "bus_grants",
    "bus_idle_pending_cycles",
    "cba_blocked_cycles",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_misses",
    "trace_items",
    "batched_items",
    "dram_accesses",
    "dram_row_hits",
    "reordered_accesses",
)


def _targets() -> list[tuple[str, str, object, str, str]]:
    """``(layer, family, owner, attribute, label)`` for every wrapped callable.

    ``family`` groups calls whose *outermost* inclusive time is a metric
    (``arbitrate`` covers both the CBA filter and the base policy it
    delegates to, but nested calls are counted once).
    """
    from repro.arbiters.base import Arbiter
    from repro.arbiters.fifo import FIFOArbiter
    from repro.arbiters.lottery import LotteryArbiter
    from repro.arbiters.priority import FixedPriorityArbiter
    from repro.arbiters.random_permutations import RandomPermutationsArbiter
    from repro.arbiters.round_robin import RoundRobinArbiter
    from repro.arbiters.tdma import TDMAArbiter
    from repro.bus.bus import SharedBus
    from repro.bus.monitor import BusMonitor
    from repro.cache.l1 import L1Cache
    from repro.cache.l2 import L2BusSlave
    from repro.core.cba import CreditBasedArbiter
    from repro.cpu.core_model import CoreModel
    from repro.mbpta import protocol
    from repro.mbpta.pwcet import PWCETCurve
    from repro.memory.controller import MemoryController
    from repro.platform.system import MulticoreSystem
    from repro.sim.kernel import Kernel
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.contender import GreedyContender, WCETModeContender

    arbiter_methods = (
        "arbitrate",
        "on_grant",
        "on_request",
        "cycle_update",
        "next_grant_opportunity",
        "advance_cycles",
    )
    policy_family = {"arbitrate": "arbitrate", "next_grant_opportunity": "next_grant"}
    cba_family = {**policy_family, "cycle_update": "cba_update", "advance_cycles": "cba_update"}
    targets: list[tuple[str, str, object, str, str]] = []

    def add(layer: str, family: str, owner: Any, names: tuple[str, ...]) -> None:
        for name in names:
            if name in vars(owner):
                targets.append((layer, family, owner, name, f"{owner.__name__}.{name}"))

    add("sim", "kernel", Kernel, ("run",))
    add("cpu", "core", CoreModel, ("tick", "fast_forward", "on_grant", "on_complete"))
    for contender in (GreedyContender, WCETModeContender):
        add(
            "workloads",
            "contender",
            contender,
            ("tick", "next_event", "fast_forward", "on_grant", "on_complete"),
        )
    add("workloads", "trace_build", WorkloadSpec, ("build_trace",))
    add("bus", "bus", SharedBus, ("tick", "fast_forward", "submit"))
    add("bus.monitor", "monitor", BusMonitor, ("tick", "fast_forward"))
    for name in arbiter_methods:
        add("core", cba_family.get(name, "cba"), CreditBasedArbiter, (name,))
    for policy in (
        RandomPermutationsArbiter,
        RoundRobinArbiter,
        FIFOArbiter,
        LotteryArbiter,
        FixedPriorityArbiter,
        TDMAArbiter,
    ):
        for name in arbiter_methods:
            add("arbiters", policy_family.get(name, "policy"), policy, (name,))
    # The base class's own defaults, except the cycle_update no-op the bus
    # compares against to pick its per-cycle path.
    add("arbiters", "next_grant", Arbiter, ("next_grant_opportunity",))
    add("arbiters", "policy", Arbiter, ("on_grant", "on_request", "advance_cycles"))
    add("cache", "l2_resolve", L2BusSlave, ("resolve",))
    add("cache", "l1", L1Cache, ("access", "commit_read_hits"))
    add("memory", "memory", MemoryController, ("access", "transaction"))
    add(
        "platform",
        "build",
        MulticoreSystem,
        (
            "__init__",
            "add_task",
            "add_greedy_contender",
            "add_wcet_contender",
            "set_tua_initial_budget",
            "finalize",
        ),
    )
    add("platform", "system_run", MulticoreSystem, ("run",))
    targets.append(("mbpta", "iid", protocol, "iid_test_battery", "mbpta.iid_test_battery"))
    targets.append(("mbpta", "evt_fit", protocol, "fit_evt", "mbpta.fit_evt"))
    add("mbpta", "pwcet", PWCETCurve, ("wcet_at", "exceedance_of", "points"))
    return targets


class LayerTracer:
    """Span recorder with per-layer self time and per-family inclusive time."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.layers: list[str] = []
        self.families: list[str] = []
        self.op_self: list[float] = []
        self.family_calls: dict[str, int] = {}
        self.family_inclusive: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.spans: list[tuple[int, float, float, int]] = []
        self.dropped_spans = 0
        self._run_id = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, op: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        family = self.families[op]
        stack: list[list[float]] = self._stack
        depth = self._depth
        op_self = self.op_self
        family_calls = self.family_calls
        family_inclusive = self.family_inclusive
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            depth[family] += 1
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                stack.pop()
                depth[family] -= 1
                if stack:
                    stack[-1][0] += duration
                op_self[op] += duration - frame[0]
                if not depth[family]:
                    family_inclusive[family] += duration
                    family_calls[family] += 1
                if len(spans) < SPAN_CAPACITY:
                    spans.append((op, started, duration, self._run_id))
                else:
                    self.dropped_spans += 1

        return traced

    def _wrap_system_init(self, op: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``MulticoreSystem.__init__``: a new simulated run starts."""
        timed = self._wrap(op, fn)

        @functools.wraps(fn)
        def init(*args: Any, **kwargs: Any) -> Any:
            self._run_id += 1
            return timed(*args, **kwargs)

        return init

    def _wrap_system_run(self, op: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``MulticoreSystem.run``: harvest the run's counters afterwards."""
        timed = self._wrap(op, fn)

        @functools.wraps(fn)
        def run(system: Any, *args: Any, **kwargs: Any) -> Any:
            result = timed(system, *args, **kwargs)
            self._harvest(system)
            return result

        return run

    def _harvest(self, system: Any) -> None:
        counters = self.counters
        kernel = system.kernel
        bus_stats = system.bus.stats
        counters["runs"] += 1
        counters["total_cycles"] += kernel.clock.cycle
        counters["skipped_cycles"] += kernel.cycles_skipped
        counters["bus_grants"] += bus_stats.counter("grants").value
        counters["bus_idle_pending_cycles"] += bus_stats.counter(
            "cycles_idle_with_pending"
        ).value
        if system.cba is not None:
            counters["cba_blocked_cycles"] += system.cba.blocked_cycles
        for core in system.cores.values():
            counters["l1_accesses"] += core.counters.accesses
            counters["l1_hits"] += core.counters.l1_hits
            counters["trace_items"] += core.counters.items_completed
            counters["batched_items"] += core.batched_items
        for partition in system.l2.partitions:
            counters["l2_accesses"] += partition.accesses
            counters["l2_misses"] += partition.misses
        dram = system.dram.stats
        counters["dram_accesses"] += dram.counter("reads").value + dram.counter("writes").value
        counters["dram_row_hits"] += dram.counter("row_hits").value
        counters["reordered_accesses"] += system.memory_controller.stats.counter(
            "reordered_accesses"
        ).value

    @contextmanager
    def active(self) -> Iterator["LayerTracer"]:
        """Install the wrappers for the duration of the block."""
        saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        try:
            for layer, family, owner, name, label in _targets():
                op = len(self.labels)
                self.labels.append(label)
                self.layers.append(layer)
                self.families.append(family)
                self.op_self.append(0.0)
                self._depth.setdefault(family, 0)
                self.family_calls.setdefault(family, 0)
                self.family_inclusive.setdefault(family, 0.0)
                original = vars(owner)[name]
                if label == "MulticoreSystem.__init__":
                    wrapper = self._wrap_system_init(op, original)
                elif label == "MulticoreSystem.run":
                    wrapper = self._wrap_system_run(op, original)
                else:
                    wrapper = self._wrap(op, original)
                saved.append((owner, name, original))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        """Seconds spent in ``layer``'s own code (children excluded)."""
        return sum(s for s, name in zip(self.op_self, self.layers, strict=True) if name == layer)

    def self_of(self, family: str) -> float:
        """Self seconds of every op in ``family``."""
        return sum(
            s for s, name in zip(self.op_self, self.families, strict=True) if name == family
        )

    def inclusive(self, family: str) -> float:
        """Seconds of the outermost calls of ``family`` (children included)."""
        return self.family_inclusive.get(family, 0.0)

    def calls(self, family: str) -> int:
        return self.family_calls.get(family, 0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: Path, process_name: str) -> Path:
        """Write the kept spans as Chrome trace-event JSON (µs timestamps)."""
        origin = min((start for _, start, _, _ in self.spans), default=0.0)
        events: list[dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "serial replay"}},
        ]
        for op, start, duration, run_id in self.spans:
            events.append(
                {
                    "name": self.labels[op],
                    "cat": self.layers[op],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"run": run_id},
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": process_name,
                "time_unit": "host_us",
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped_spans,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
        return path
