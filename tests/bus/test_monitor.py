"""Tests for the passive bus monitor."""

import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.monitor import BusMonitor
from repro.bus.ports import FixedLatencySlave
from repro.bus.transaction import BusRequest
from repro.sim.kernel import Kernel


def make_monitored_bus(window=10, latency=4):
    kernel = Kernel()
    bus = SharedBus(
        "bus",
        num_masters=2,
        arbiter=RoundRobinArbiter(2),
        slave=FixedLatencySlave(latency),
        max_latency=56,
    )
    monitor = BusMonitor("monitor", bus, window_cycles=window)
    kernel.register(bus)
    return kernel, bus, monitor


def test_window_length_must_be_positive():
    kernel, bus, _ = make_monitored_bus()
    with pytest.raises(ValueError):
        BusMonitor("bad", bus, window_cycles=0)


def test_idle_bus_produces_idle_windows():
    kernel, bus, monitor = make_monitored_bus(window=5)
    kernel.step(10)
    assert len(monitor.windows) == 2
    assert monitor.windows[0].idle_cycles == 5
    assert monitor.windows[0].utilization == 0.0
    assert monitor.overall_shares() == [0.0, 0.0]


def test_busy_cycles_attributed_to_holder():
    kernel, bus, monitor = make_monitored_bus(window=10, latency=4)
    bus.submit(BusRequest(master_id=1, address=0, issue_cycle=0))
    kernel.step(10)
    window = monitor.windows[0]
    assert window.busy_cycles_per_master == (0, 4)
    assert window.shares == (0.0, 1.0)
    assert window.utilization == pytest.approx(0.4)
    assert monitor.overall_shares() == [0.0, 1.0]


def test_windows_cover_consecutive_ranges():
    kernel, bus, monitor = make_monitored_bus(window=7)
    kernel.step(21)
    starts = [w.start_cycle for w in monitor.windows]
    ends = [w.end_cycle for w in monitor.windows]
    assert starts == [0, 7, 14]
    assert ends == [7, 14, 21]
    assert all(w.length == 7 for w in monitor.windows)


def test_reset_clears_windows_and_totals():
    kernel, bus, monitor = make_monitored_bus(window=5)
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    kernel.step(10)
    monitor.reset()
    assert monitor.windows == []
    assert monitor.total_busy_per_master == [0, 0]
    assert monitor.total_cycles_observed == 0


@pytest.mark.parametrize("latency", [1, 2, 3])
def test_view_matches_per_cycle_sampling(latency):
    """Windows and totals derived from the holder log equal a sample of the
    bus holder taken after every cycle, including one-cycle transactions
    back to back and a release and a grant in the same cycle."""
    kernel, bus, monitor = make_monitored_bus(window=4, latency=latency)
    held = []
    for cycle in range(60):
        for master in (0, 1):
            wants = (cycle * (master + 3)) % 7 < 3
            if wants and not bus.has_pending(master) and bus.holder != master:
                bus.submit(BusRequest(master_id=master, address=0, issue_cycle=cycle))
        kernel.step(1)
        held.append(bus.holder)
    windows = []
    for start in range(0, len(held) - 3, 4):
        chunk = held[start:start + 4]
        busy = tuple(chunk.count(master) for master in (0, 1))
        windows.append((start, start + 4, busy, chunk.count(None)))
    assert [
        (w.start_cycle, w.end_cycle, w.busy_cycles_per_master, w.idle_cycles)
        for w in monitor.windows
    ] == windows
    assert monitor.total_busy_per_master == [held.count(0), held.count(1)]
    assert monitor.total_cycles_observed == len(held)


def test_unregistered_monitor_restarts_with_its_bus_on_kernel_reset():
    """The monitor is a view, not a kernel component: a kernel reset resets
    the bus it reads, so its windows and totals restart at cycle 0 without
    the monitor being reset itself."""
    kernel, bus, monitor = make_monitored_bus(window=5)
    assert monitor not in kernel.components
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    kernel.step(10)
    assert monitor.total_busy_per_master == [4, 0]
    kernel.reset()
    assert monitor.windows == []
    assert monitor.total_cycles_observed == 0
    bus.submit(BusRequest(master_id=1, address=0, issue_cycle=0))
    kernel.step(5)
    assert [w.busy_cycles_per_master for w in monitor.windows] == [(0, 4)]
