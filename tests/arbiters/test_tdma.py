"""Tests for TDMA arbitration."""

import pytest

from repro.arbiters.tdma import TDMAArbiter
from repro.sim.errors import ArbitrationError


def test_slot_owner_follows_schedule():
    arbiter = TDMAArbiter(4, slot_cycles=10)
    assert arbiter.slot_owner(0) == 0
    assert arbiter.slot_owner(9) == 0
    assert arbiter.slot_owner(10) == 1
    assert arbiter.slot_owner(39) == 3
    assert arbiter.slot_owner(40) == 0


def test_grant_only_at_slot_start_for_owner():
    arbiter = TDMAArbiter(2, slot_cycles=5)
    assert arbiter.arbitrate([0, 1], 0) == 0
    # Not the first cycle of the slot: the request must wait (paper semantics).
    assert arbiter.arbitrate([0, 1], 2) is None
    # Wrong owner at the next slot start.
    assert arbiter.arbitrate([0], 5) is None
    assert arbiter.arbitrate([1], 5) == 1


def test_work_conserving_variant_grants_within_slot():
    arbiter = TDMAArbiter(2, slot_cycles=5, issue_only_at_slot_start=False)
    assert arbiter.arbitrate([0], 2) == 0


def test_custom_schedule_with_repeated_owner():
    arbiter = TDMAArbiter(3, slot_cycles=4, schedule=[0, 1, 0, 2])
    assert arbiter.slot_owner(0) == 0
    assert arbiter.slot_owner(4) == 1
    assert arbiter.slot_owner(8) == 0
    assert arbiter.slot_owner(12) == 2


def test_invalid_construction_rejected():
    with pytest.raises(ArbitrationError):
        TDMAArbiter(2, slot_cycles=0)
    with pytest.raises(ArbitrationError):
        TDMAArbiter(2, schedule=[])
    with pytest.raises(ArbitrationError):
        TDMAArbiter(2, schedule=[0, 5])


def test_bandwidth_waste_with_short_requests():
    """A request shorter than the slot leaves the remainder of the slot idle:
    only one grant can happen per slot, which is the inefficiency the paper
    describes for TDMA with heterogeneous request durations."""
    arbiter = TDMAArbiter(2, slot_cycles=56)
    grants = 0
    for cycle in range(0, 112):
        choice = arbiter.arbitrate([0, 1], cycle)
        if choice is not None:
            arbiter.on_grant(choice, 5, cycle)
            grants += 1
    assert grants == 2  # one per slot, despite 5-cycle requests
