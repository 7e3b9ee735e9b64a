"""Bus monitor.

A passive observer of per-master bus occupancy beyond what the bus itself
accumulates.  Experiments read a monitor when they need windowed bandwidth
shares (e.g. to show how CBA converges to a fair share over time) without
burdening the bus model itself.

The monitor is a view: the bus appends every holder change to its
:attr:`~repro.bus.bus.SharedBus.holder_log`, and the monitor derives its
windows and totals from that log and the bus's ``cycles_total`` counter when
they are read.  It is not a kernel component and never ticks, so it costs
nothing while the simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class BusMonitor:
    """Per-master occupancy of a bus, in fixed-length windows and in total.

    A plain view over the bus, not a kernel component.  Its view starts at
    the bus cycle of its last :meth:`reset` (cycle 0 for a fresh bus), and
    windows are aligned to that cycle.
    """

    def __init__(self, name: str, bus: SharedBus, window_cycles: int = 1000) -> None:
        if window_cycles <= 0:
            raise ValueError("window length must be positive")
        self.name = name
        self.bus = bus
        self.window_cycles = window_cycles
        self._origin = 0
        self.reset()

    def reset(self) -> None:
        """Start the view at the bus's current cycle."""
        self._origin = self._end()

    # ------------------------------------------------------------------
    # The derived view
    # ------------------------------------------------------------------
    def _end(self) -> int:
        """First bus cycle not yet accounted by the bus."""
        return self.bus.stats.counter("cycles_total").value

    def _segments(self) -> list[tuple[int, int, int]]:
        """``(start, end, holder)`` runs covering the observed cycles, holder
        -1 where the bus idled."""
        origin = self._origin
        end = self._end()
        if end <= origin:
            return []
        log = self.bus.holder_log
        segments: list[tuple[int, int, int]] = []
        cursor = origin
        holder = -1
        for index in range(0, len(log), 2):
            cycle = log[index]
            if cycle >= end:
                break
            if cycle > cursor:
                segments.append((cursor, cycle, holder))
                cursor = cycle
            holder = log[index + 1]
        segments.append((cursor, end, holder))
        return segments

    @property
    def windows(self) -> list[BandwidthWindow]:
        """Every complete window observed so far, oldest first."""
        length = self.window_cycles
        masters = self.bus.num_masters
        windows: list[BandwidthWindow] = []
        start = self._origin
        busy = [0] * masters
        idle = 0
        for seg_start, seg_end, holder in self._segments():
            cursor = seg_start
            while cursor < seg_end:
                boundary = start + length
                chunk_end = boundary if boundary < seg_end else seg_end
                if holder < 0:
                    idle += chunk_end - cursor
                else:
                    busy[holder] += chunk_end - cursor
                cursor = chunk_end
                if chunk_end == boundary:
                    windows.append(BandwidthWindow(start, boundary, tuple(busy), idle))
                    start = boundary
                    busy = [0] * masters
                    idle = 0
        return windows

    @property
    def total_busy_per_master(self) -> list[int]:
        """Observed busy cycles of each master."""
        busy = [0] * self.bus.num_masters
        for start, end, holder in self._segments():
            if holder >= 0:
                busy[holder] += end - start
        return busy

    @property
    def total_cycles_observed(self) -> int:
        return max(0, self._end() - self._origin)

    def overall_shares(self) -> list[float]:
        """Per-master share of all observed busy cycles."""
        totals = self.total_busy_per_master
        busy = sum(totals)
        if not busy:
            return [0.0] * self.bus.num_masters
        return [c / busy for c in totals]
