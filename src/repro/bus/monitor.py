"""Bus monitor.

A passive observer that samples the bus every cycle and keeps per-master
occupancy and waiting statistics beyond what the bus itself accumulates.
Experiments attach a monitor when they need windowed bandwidth shares (e.g.
to show how CBA converges to a fair share over time) without burdening the
bus model itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.component import Component
from .bus import SharedBus

__all__ = ["BandwidthWindow", "BusMonitor"]


@dataclass(frozen=True, slots=True)
class BandwidthWindow:
    """Bandwidth accounting over one fixed-length window of cycles."""

    start_cycle: int
    end_cycle: int
    busy_cycles_per_master: tuple[int, ...]
    idle_cycles: int

    @property
    def length(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def shares(self) -> tuple[float, ...]:
        """Per-master share of the window's *busy* cycles (0s if bus idle)."""
        busy = sum(self.busy_cycles_per_master)
        if not busy:
            return tuple(0.0 for _ in self.busy_cycles_per_master)
        return tuple(c / busy for c in self.busy_cycles_per_master)

    @property
    def utilization(self) -> float:
        if not self.length:
            return 0.0
        return sum(self.busy_cycles_per_master) / self.length


class BusMonitor(Component):
    """Samples bus occupancy every cycle and aggregates it into windows."""

    #: Event-queue protocol: the monitor is a pure observer and never pushes
    #: a wake at all — the absence of a heap entry is exactly its permanent
    #: ``next_event`` answer of ``None``.  Declaring it event-driven removes
    #: it from the kernel's poll fallback.  The bus syncs it before every
    #: holder change (:meth:`SharedBus.watch`), so under due-only dispatch it
    #: never ticks: :meth:`fast_forward` replays its samples lazily, each
    #: with the holder its cycle had.
    event_driven = True  # repro-lint: allow[CON001]

    def __init__(self, name: str, bus: SharedBus, window_cycles: int = 1000) -> None:
        super().__init__(name)
        if window_cycles <= 0:
            raise ValueError("window length must be positive")
        self.bus = bus
        self.window_cycles = window_cycles
        self.windows: list[BandwidthWindow] = []
        self._window_start = 0
        self._busy = [0] * bus.num_masters
        self._idle = 0
        self.total_busy_per_master = [0] * bus.num_masters
        self.total_cycles_observed = 0
        bus.watch(self)

    def tick(self) -> None:
        holder = self.bus.holder
        if holder is None:
            self._idle += 1
        else:
            self._busy[holder] += 1
            self.total_busy_per_master[holder] += 1
        self.total_cycles_observed += 1
        boundary = self.now + 1
        if boundary - self._window_start >= self.window_cycles:
            self._close_window(boundary)

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> int | None:
        """The monitor is a pure observer: it never forces a wake-up.

        Window boundaries crossed inside a jump are reproduced exactly by
        :meth:`fast_forward`, so no hint is needed for them either.
        """
        return None

    def fast_forward(self, start: int, cycles: int) -> None:
        """Sample ``cycles`` skipped cycles of constant bus occupancy in bulk,
        closing windows at the exact boundaries plain stepping would have."""
        holder = self.bus.holder
        cursor = start
        end = start + cycles
        while cursor < end:
            window_end = self._window_start + self.window_cycles
            chunk_end = window_end if window_end < end else end
            span = chunk_end - cursor
            if holder is None:
                self._idle += span
            else:
                self._busy[holder] += span
                self.total_busy_per_master[holder] += span
            self.total_cycles_observed += span
            if chunk_end == window_end:
                self._close_window(window_end)
            cursor = chunk_end

    def _close_window(self, end_cycle: int) -> None:
        window = BandwidthWindow(
            start_cycle=self._window_start,
            end_cycle=end_cycle,
            busy_cycles_per_master=tuple(self._busy),
            idle_cycles=self._idle,
        )
        self.windows.append(window)
        trace = self.kernel.trace
        if trace.enabled:
            trace.record(
                end_cycle,
                self.name,
                "bus.window",
                start=window.start_cycle,
                busy=sum(window.busy_cycles_per_master),
                idle=window.idle_cycles,
                utilization=round(window.utilization, 6),
            )
        self._window_start = end_cycle
        self._busy = [0] * self.bus.num_masters
        self._idle = 0

    def overall_shares(self) -> list[float]:
        """Per-master share of all observed busy cycles."""
        busy = sum(self.total_busy_per_master)
        if not busy:
            return [0.0] * self.bus.num_masters
        return [c / busy for c in self.total_busy_per_master]

    def reset(self) -> None:
        self.windows.clear()
        self._window_start = 0
        self._busy = [0] * self.bus.num_masters
        self._idle = 0
        self.total_busy_per_master = [0] * self.bus.num_masters
        self.total_cycles_observed = 0
