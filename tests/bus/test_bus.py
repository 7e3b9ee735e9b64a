"""Tests for the non-split shared bus."""

import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import CallbackMaster, FixedLatencySlave
from repro.bus.transaction import BusRequest
from repro.sim.errors import ProtocolError
from repro.sim.kernel import Kernel


def make_bus(num_masters=2, latency=4, max_latency=56):
    kernel = Kernel()
    bus = SharedBus(
        "bus",
        num_masters=num_masters,
        arbiter=RoundRobinArbiter(num_masters),
        slave=FixedLatencySlave(latency),
        max_latency=max_latency,
    )
    kernel.register(bus)
    return kernel, bus


def test_single_request_is_granted_and_completed():
    kernel, bus = make_bus(latency=4)
    completions = []
    bus.connect_master(0, CallbackMaster(on_complete=lambda req, cyc: completions.append(cyc)))
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    kernel.step(1)
    assert bus.busy
    assert bus.holder == 0
    kernel.step(3)
    assert bus.busy  # still in flight during its last hold cycle
    kernel.step(1)
    assert not bus.busy
    assert completions == [4]


def test_request_records_grant_and_completion_cycles():
    kernel, bus = make_bus(latency=3)
    request = BusRequest(master_id=0, address=0, issue_cycle=0)
    bus.submit(request)
    kernel.step(5)
    assert request.grant_cycle == 0
    assert request.duration == 3
    assert request.complete_cycle == 3
    assert request.total_latency == 3


def test_non_split_bus_serialises_competing_masters():
    kernel, bus = make_bus(num_masters=2, latency=5)
    first = BusRequest(master_id=0, address=0, issue_cycle=0)
    second = BusRequest(master_id=1, address=0, issue_cycle=0)
    bus.submit(first)
    bus.submit(second)
    kernel.step(12)
    assert first.complete_cycle == 5
    # The second master is granted only once the first transaction releases
    # the bus (non-split semantics).
    assert second.grant_cycle == 5
    assert second.complete_cycle == 10


def test_same_master_cannot_have_two_outstanding_requests():
    kernel, bus = make_bus()
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    with pytest.raises(ProtocolError):
        bus.submit(BusRequest(master_id=0, address=4, issue_cycle=0))


def test_unknown_master_rejected():
    kernel, bus = make_bus(num_masters=2)
    with pytest.raises(ProtocolError):
        bus.submit(BusRequest(master_id=5, address=0))


@pytest.mark.parametrize("master_id", [7, -1])
def test_stat_reads_reject_unknown_master_without_new_counters(master_id):
    kernel, bus = make_bus(num_masters=4)
    keys = set(bus.stats.as_dict())
    with pytest.raises(ProtocolError):
        bus.grants(master_id)
    with pytest.raises(ProtocolError):
        bus.cycles_granted(master_id)
    assert set(bus.stats.as_dict()) == keys


def test_slave_duration_outside_bounds_rejected():
    kernel = Kernel()
    bus = SharedBus(
        "bus",
        num_masters=1,
        arbiter=RoundRobinArbiter(1),
        slave=FixedLatencySlave(100),
        max_latency=56,
    )
    kernel.register(bus)
    bus.submit(BusRequest(master_id=0, address=0))
    with pytest.raises(ProtocolError):
        kernel.step()


def test_arbiter_size_mismatch_rejected():
    with pytest.raises(ProtocolError):
        SharedBus(
            "bus",
            num_masters=4,
            arbiter=RoundRobinArbiter(2),
            slave=FixedLatencySlave(4),
        )


def test_bandwidth_accounting_per_master():
    kernel, bus = make_bus(num_masters=2, latency=4)
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    bus.submit(BusRequest(master_id=1, address=0, issue_cycle=0))
    kernel.step(10)
    assert bus.grants(0) == 1
    assert bus.grants(1) == 1
    assert bus.cycles_granted(0) == 4
    assert bus.cycles_granted(1) == 4
    assert bus.bandwidth_shares() == [0.5, 0.5]


def test_utilization_counts_busy_cycles():
    kernel, bus = make_bus(latency=4)
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    kernel.step(8)
    assert bus.utilization() == pytest.approx(0.5)


def test_back_to_back_grants_have_no_idle_gap():
    kernel, bus = make_bus(num_masters=2, latency=5)
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    bus.submit(BusRequest(master_id=1, address=0, issue_cycle=0))
    kernel.step(10)
    assert bus.stats.counter("cycles_busy").value == 10


def test_reset_clears_state_and_stats():
    kernel, bus = make_bus(latency=4)
    bus.submit(BusRequest(master_id=0, address=0, issue_cycle=0))
    kernel.step(2)
    bus.reset()
    assert not bus.busy
    assert bus.pending_masters == []
    assert bus.stats.counter("cycles_total").value == 0
