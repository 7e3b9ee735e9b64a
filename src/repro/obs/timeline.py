"""Timeline export: Chrome trace-event JSON from recorded trace events.

:func:`chrome_trace` converts recorded :class:`~repro.sim.trace.TraceEvent`
sequences into the Chrome trace-event JSON format (the ``traceEvents`` array
understood by Perfetto / ``chrome://tracing``).  Simulated cycles map 1:1 to
trace microseconds — timestamps stay exact integers and Perfetto's time axis
reads directly in cycles.  Three families of visual objects are produced:

* **complete spans** (``"ph": "X"``) for events that carry a duration — bus
  transactions (``bus.grant``), batch stretches (``core.stretch``) and kernel
  fast-forward jumps (``kernel.jump``), each on its own named track;
* **counter tracks** (``"ph": "C"``) for CBA budget balances
  (``cba.drain`` / ``cba.refill`` payloads carry the scaled balances);
* **instants** (``"ph": "i"``) for everything else, on the emitting
  component's track.

The exported events are in cycle order (a stable sort, so same-cycle events
keep their recording order), after the process and track names.  Recording
order is not cycle order: CBA records the ``cba.refill`` events of past
cycles only when the arbiter next syncs its trace, and the bus records the
``bus.request`` of a request a greedy contender posted when it admits it,
stamped with the request's issue cycle.
"""

from __future__ import annotations

import json
import numbers
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from ..sim.trace import TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace"]


def _plain(value: object) -> object:
    """Force a payload value into JSON-serialisable plain types."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return str(value)


def _plain_args(payload: dict[str, object]) -> dict[str, object]:
    return {key: _plain(value) for key, value in payload.items()}


#: ``kind -> payload key`` of events that describe a span starting at their
#: cycle and covering that many cycles.
_SPAN_DURATION_KEYS = {
    "bus.grant": "duration",
    "core.stretch": "cycles",
    "kernel.jump": "cycles",
}

#: Kinds whose payload carries per-core CBA budget balances.
_BALANCE_KINDS = ("cba.drain", "cba.refill")


def chrome_trace(
    events: Sequence[TraceEvent], process_name: str = "repro-sim"
) -> dict[str, object]:
    """Convert trace events into a Chrome trace-event JSON document."""
    trace_events: list[dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": process_name}},
    ]
    records: list[dict[str, object]] = []
    tids: dict[str, int] = {}

    def tid_for(track: str) -> int:
        tid = tids.get(track)
        if tid is None:
            tid = len(tids) + 1
            tids[track] = tid
            trace_events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": track}}
            )
        return tid

    for event in events:
        payload = event.payload
        kind = event.kind
        category = kind.partition(".")[0]
        duration_key = _SPAN_DURATION_KEYS.get(kind)
        if duration_key is not None and duration_key in payload:
            track = event.source
            if kind == "bus.grant":
                track = f"{event.source}/master{payload.get('master', '?')}"
            records.append(
                {
                    "name": kind,
                    "cat": category,
                    "ph": "X",
                    "ts": int(event.cycle),
                    "dur": max(1, int(payload[duration_key])),  # type: ignore[call-overload]
                    "pid": 1,
                    "tid": tid_for(track),
                    "args": _plain_args(payload),
                }
            )
            continue
        if kind in _BALANCE_KINDS and "balances" in payload:
            balances = payload["balances"]
            if isinstance(balances, (list, tuple)):
                records.append(
                    {
                        "name": "cba.budgets",
                        "cat": "cba",
                        "ph": "C",
                        "ts": int(event.cycle),
                        "pid": 1,
                        "tid": 0,
                        "args": {f"core{i}": int(b) for i, b in enumerate(balances)},
                    }
                )
        records.append(
            {
                "name": kind,
                "cat": category,
                "ph": "i",
                "ts": int(event.cycle),
                "pid": 1,
                "tid": tid_for(event.source),
                "s": "t",
                "args": _plain_args(payload),
            }
        )
    records.sort(key=itemgetter("ts"))
    trace_events.extend(records)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": process_name, "time_unit": "cycle"},
    }


def write_chrome_trace(
    events: Sequence[TraceEvent], path: str | Path, process_name: str = "repro-sim"
) -> Path:
    """Convert ``events`` and write the JSON document to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(events, process_name=process_name)
    target.write_text(json.dumps(document), encoding="utf-8")
    return target
