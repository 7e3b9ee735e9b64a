"""Tests for the credit (budget) accounts."""

import pytest

from repro.core.credit import CreditAccount, CreditBank
from repro.core.hcba import budget_cap_parameters, heterogeneous_share_parameters
from repro.sim.config import CBAParameters
from repro.sim.errors import BudgetError


def make_account(balance=224, cap=224, share=1, drain=4):
    return CreditAccount(
        core_id=0,
        full_budget=224,
        cap=cap,
        replenish_share=share,
        drain_per_cycle=drain,
        balance=balance,
    )


class TestCreditAccount:
    def test_full_budget_is_eligible(self):
        assert make_account(balance=224).eligible

    def test_below_full_budget_is_not_eligible(self):
        assert not make_account(balance=223).eligible

    def test_deficit_and_cycles_until_eligible(self):
        account = make_account(balance=200)
        assert account.deficit == 24
        assert account.cycles_until_eligible() == 24
        assert make_account(balance=224).cycles_until_eligible() == 0

    def test_cycles_until_eligible_with_larger_share(self):
        account = make_account(balance=200, share=3)
        assert account.cycles_until_eligible() == 8

    def test_reset_restores_balance(self):
        account = make_account(balance=100)
        account.reset()
        assert account.balance == 224
        account.reset(balance=0)
        assert account.balance == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(BudgetError):
            make_account(cap=100)
        with pytest.raises(BudgetError):
            make_account(balance=300)
        with pytest.raises(BudgetError):
            make_account(share=0)
        with pytest.raises(BudgetError):
            CreditAccount(0, full_budget=0, cap=1, replenish_share=1, drain_per_cycle=1)

    def test_share_above_drain_rejected(self):
        """The holder's closed form is exact only while ``share <= drain``."""
        with pytest.raises(BudgetError):
            make_account(share=5, drain=4)
        assert make_account(share=4, drain=4).replenish_share == 4

    def test_reset_outside_cap_rejected(self):
        with pytest.raises(BudgetError):
            make_account().reset(balance=500)


class TestCreditBank:
    def test_paper_parameters_produce_224_budgets(self, cba_params):
        bank = CreditBank(cba_params)
        assert len(bank) == 4
        assert bank.balances(0) == [224, 224, 224, 224]
        assert bank.eligible_cores(0) == [0, 1, 2, 3]

    def test_grant_replenishes_everyone_and_drains_holder(self, cba_params):
        bank = CreditBank(cba_params)
        bank.grant(2, 0, 1)
        # Holder: the +1 saturates (already full), then -4; others stay at 224.
        assert bank.balances(1) == [224, 224, 220, 224]

    def test_idle_cycles_only_replenish(self, cba_params):
        bank = CreditBank(cba_params)
        bank.set_initial_budget(1, 100)
        assert bank.balance(1, 1) == 101

    def test_replenishment_saturates_at_cap(self, cba_params):
        bank = CreditBank(cba_params)
        bank.set_initial_budget(0, 223)
        assert bank.balance(0, 1) == 224
        assert bank.balance(0, 2) == 224

    def test_holder_balance_floors_at_zero(self, cba_params):
        bank = CreditBank(cba_params)
        bank.set_initial_budget(0, 2)
        bank.grant(0, 0, 3)
        # 2 + 1 - 4 floors at 0; each later cycle earns 1 and pays it.
        assert [bank.balance(0, cycle) for cycle in range(5)] == [2, 0, 0, 0, 1]

    def test_one_maxl_transaction_drains_most_of_the_budget(self, cba_params):
        """Holding the bus for MaxL consecutive cycles drains a net
        ``MaxL * (N-1) + 1`` (the +1 replenishment of the first busy cycle is
        lost to saturation): 224 - (56*3 + 1) = 55 with the paper parameters."""
        bank = CreditBank(cba_params)
        bank.grant(0, 0, 56)
        assert bank.balance(0, 56) == 224 - (56 * 3 + 1)
        assert not bank.eligible(0, 56)
        assert bank.eligible_from[0] == 56 + 56 * 3 + 1

    def test_set_initial_budget(self, cba_params):
        bank = CreditBank(cba_params)
        bank.set_initial_budget(0, 0)
        assert bank[0].balance == 0
        assert bank.eligible_cores(0) == [1, 2, 3]

    def test_reset_restores_initial_budgets(self, cba_params):
        bank = CreditBank(cba_params)
        bank.grant(0, 0, 1)
        bank.reset()
        assert bank.balances(0) == [224] * 4

    def test_heterogeneous_shares(self):
        params = CBAParameters(max_latency=56, num_cores=4, replenish_shares=(3, 1, 1, 1))
        bank = CreditBank(params)
        assert bank[0].replenish_share == 3
        assert bank[0].drain_per_cycle == 6
        assert bank[0].full_budget == 6 * 56


class TestClosedForms:
    """The bank's closed forms against Equation 1 stepped per cycle (two
    cores, MaxL 8: full budget 16, share 1, drain 2)."""

    @pytest.mark.parametrize("holder", [None, 0, 1])
    @pytest.mark.parametrize("initial", [0, 5, 16])
    def test_grant_equals_repeated_steps(self, stepped, holder, initial):
        params = CBAParameters(max_latency=8, num_cores=2, initial_budget=initial)
        bank = CreditBank(params)
        if holder is not None:
            bank.grant(holder, 0, 37)
        states = stepped(params, [holder] * 37)
        for cycle in range(38):
            assert bank.balances(cycle) == states[cycle]

    def test_idle_reads_saturate_like_single_steps(self, stepped):
        params = CBAParameters(max_latency=8, num_cores=2, initial_budget=10)
        bank = CreditBank(params)
        states = stepped(params, [None] * 50)  # far past the cap
        assert [bank.balance(0, cycle) for cycle in range(51)] == [s[0] for s in states]

    @pytest.mark.parametrize(
        "build",
        [heterogeneous_share_parameters, budget_cap_parameters],
        ids=["shares", "cap"],
    )
    def test_hcba_grants_equal_repeated_steps(self, stepped, build):
        """Both H-CBA builders (four cores, MaxL 8, core 0 favoured): the
        favoured core drains from a full cap, then another core holds while
        it refills, then it holds again."""
        params = build(4, 8, favoured_core=0)
        stretches = [(0, 8), (None, 5), (2, 8), (None, 40), (0, 8), (None, 60)]
        holders = [holder for holder, length in stretches for _ in range(length)]
        states = stepped(params, holders)
        bank = CreditBank(params)
        start = 0
        for holder, length in stretches:
            # A grant is read only at or after its first cycle.
            if holder is not None:
                bank.grant(holder, start, length)
            for cycle in range(start, start + length):
                assert bank.balances(cycle) == states[cycle]
            start += length
        assert bank.balances(start) == states[start]
