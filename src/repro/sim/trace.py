"""Lightweight event tracing.

A :class:`TraceRecorder` collects timestamped events emitted by components
(bus grants, cache misses, budget updates...).  Tracing is disabled by default
because recording every bus cycle of a long run is expensive; experiments and
tests enable it selectively to inspect fine-grained behaviour, e.g. to verify
the per-cycle signal behaviour of Table I.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["TraceEvent", "TraceRecorder", "NullTraceRecorder"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced event.

    Attributes
    ----------
    cycle:
        Cycle at which the event occurred.
    source:
        Name of the component that emitted the event.
    kind:
        Short event-type string, e.g. ``"bus.grant"`` or ``"cache.miss"``.
    payload:
        Free-form event data (small dictionary of plain values).
    """

    cycle: int
    source: str
    kind: str
    payload: dict[str, object] = field(default_factory=dict)


class TraceRecorder:
    """Collects :class:`TraceEvent` objects with optional kind filtering.

    Storage is a :class:`collections.deque`: with a ``capacity`` it is a ring
    that keeps the most recent events in O(1) per event, so a bounded
    recording of an arbitrarily long run costs bounded memory.
    """

    def __init__(self, kinds: Iterable[str] | None = None, capacity: int | None = None):
        """Create a recorder.

        Parameters
        ----------
        kinds:
            If given, only events whose ``kind`` is in this set are kept.
        capacity:
            If given, only the most recent ``capacity`` events are kept.
        """
        self._kinds = set(kinds) if kinds is not None else None
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: Events dropped off the head of a bounded ring (observability: a
        #: summary can say "showing the last N of M events").
        self.dropped = 0
        self.enabled = True

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first (a fresh list)."""
        return list(self._ring)

    def record(self, cycle: int, source: str, kind: str, **payload: object) -> None:
        """Record one event (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self._kinds is not None and kind not in self._kinds:
            return
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(TraceEvent(cycle=cycle, source=source, kind=kind, payload=payload))

    def filter(
        self,
        kind: str | None = None,
        source: str | None = None,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ) -> list[TraceEvent]:
        """Return events matching all given criteria."""
        out = []
        for event in self._ring:
            if kind is not None and event.kind != kind:
                continue
            if source is not None and event.source != source:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)


class NullTraceRecorder(TraceRecorder):
    """A recorder that drops everything — used when tracing is disabled."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def record(self, cycle: int, source: str, kind: str, **payload: object) -> None:  # noqa: D102
        return
