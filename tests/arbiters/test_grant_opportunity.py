"""Unit tests for the arbiters' fast-forward hooks.

``next_grant_opportunity`` bounds how far the kernel may jump while the bus
idles with pending requests; ``advance_cycles`` must replay per-cycle state
(CBA's blocked accounting) in bulk, exactly.
"""

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.tdma import TDMAArbiter
from repro.core.cba import CreditBasedArbiter
from repro.sim.config import CBAParameters


class TestDefaultOpportunity:
    def test_always_granting_policy_reports_now(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.next_grant_opportunity([1, 2], cycle=37) == 37


class TestTDMAOpportunity:
    def test_slot_start_with_pending_owner_is_now(self):
        arbiter = TDMAArbiter(4, slot_cycles=10)
        assert arbiter.next_grant_opportunity([0], cycle=0) == 0
        assert arbiter.next_grant_opportunity([2], cycle=20) == 20

    def test_mid_slot_waits_for_next_owned_boundary(self):
        arbiter = TDMAArbiter(4, slot_cycles=10)
        # Cycle 3 sits in master 0's slot; master 0 may only start at a
        # boundary, so its next chance is its next slot at cycle 40.
        assert arbiter.next_grant_opportunity([0], cycle=3) == 40
        # Master 1's slot starts at cycle 10.
        assert arbiter.next_grant_opportunity([1], cycle=3) == 10
        # Several pending masters: the earliest owned boundary wins.
        assert arbiter.next_grant_opportunity([3, 1], cycle=3) == 10

    def test_work_conserving_variant_grants_mid_slot(self):
        arbiter = TDMAArbiter(4, slot_cycles=10, issue_only_at_slot_start=False)
        assert arbiter.next_grant_opportunity([0], cycle=3) == 3
        assert arbiter.next_grant_opportunity([1], cycle=3) == 10

    def test_master_outside_schedule_never_gets_a_chance(self):
        arbiter = TDMAArbiter(4, slot_cycles=10, schedule=[0, 1])
        assert arbiter.next_grant_opportunity([3], cycle=5) is None

    def test_opportunity_agrees_with_arbitrate(self):
        """The hint must name a cycle where arbitrate() really grants, and
        arbitrate() must decline every cycle before it."""
        arbiter = TDMAArbiter(3, slot_cycles=7, schedule=[2, 0, 1])
        for start in range(40):
            opportunity = arbiter.next_grant_opportunity([1], cycle=start)
            assert opportunity is not None
            for cycle in range(start, opportunity):
                assert arbiter.arbitrate([1], cycle) is None
            assert arbiter.arbitrate([1], opportunity) == 1


def _cba(initial: int | None = None) -> CreditBasedArbiter:
    params = CBAParameters(max_latency=8, num_cores=2, initial_budget=initial)
    return CreditBasedArbiter(RoundRobinArbiter(2), params)


class TestCBAOpportunity:
    def test_eligible_pending_master_is_granted_now(self):
        arbiter = _cba()
        assert arbiter.next_grant_opportunity([0, 1], cycle=4) == 4

    def test_blocked_masters_wake_at_the_earliest_refill(self):
        arbiter = _cba()
        arbiter.set_initial_budget(0, 0, cycle=100)
        # Full budget is scale * MaxL = 16, replenishment 1/cycle per core.
        assert arbiter.next_grant_opportunity([0], cycle=100) == 116

    def test_advance_cycles_matches_per_cycle_updates_while_holding(self):
        bulk = _cba(initial=3)
        bulk.on_grant(1, 5, 0)
        bulk.advance_cycles(0, 5, holder=1, idle_requestors=())
        # Core 0 earns 1 a cycle; the holder pays a net 1 a cycle, floored.
        assert bulk.budgets(5) == [8, 0]
        assert bulk.credits.eligible_from == [13, 21]

    def test_advance_cycles_accounts_blocked_idle_requestors(self):
        bulk = _cba(initial=0)
        stepped = _cba(initial=0)
        for cycle in range(6):
            assert stepped.arbitrate([0, 1], cycle) is None
        bulk.advance_cycles(0, 6, holder=None, idle_requestors=[0, 1])
        assert bulk.blocked_cycles == stepped.blocked_cycles == 6
        assert bulk.budgets(6) == stepped.budgets(6) == [6, 6]

