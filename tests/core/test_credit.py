"""Tests for the credit (budget) accounts."""

import pytest

from repro.core.credit import CreditAccount, CreditBank
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

    def test_replenish_saturates_at_cap(self):
        account = make_account(balance=223)
        account.replenish()
        assert account.balance == 224
        account.replenish()
        assert account.balance == 224
        assert account.total_replenished == 1

    def test_drain_subtracts_drain_per_cycle(self):
        account = make_account(balance=224)
        account.drain()
        assert account.balance == 220
        assert account.total_drained == 4

    def test_drain_floors_at_zero(self):
        account = make_account(balance=2)
        account.drain()
        assert account.balance == 0
        assert account.total_drained == 2

    def test_deficit_and_cycles_until_eligible(self):
        account = make_account(balance=200)
        assert account.deficit == 24
        assert account.cycles_until_eligible() == 24
        assert make_account(balance=224).cycles_until_eligible() == 0

    def test_cycles_until_eligible_with_larger_share(self):
        account = make_account(balance=200, share=3)
        assert account.cycles_until_eligible() == 8

    def test_reset_restores_balance_and_totals(self):
        account = make_account(balance=100)
        account.drain()
        account.reset()
        assert account.balance == 224
        assert account.total_drained == 0
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

    def test_reset_outside_cap_rejected(self):
        with pytest.raises(BudgetError):
            make_account().reset(balance=500)


class TestCreditBank:
    def test_paper_parameters_produce_224_budgets(self, cba_params):
        bank = CreditBank(cba_params)
        assert len(bank) == 4
        assert bank.balances(0) == [224, 224, 224, 224]
        assert bank.eligible_cores(0) == [0, 1, 2, 3]

    def test_step_replenishes_everyone_and_drains_holder(self, cba_params):
        bank = CreditBank(cba_params)
        bank.step(holder=2)
        # Holder: the +1 saturates (already full), then -4; others stay at 224.
        assert bank.balances(1) == [224, 224, 220, 224]

    def test_step_without_holder_only_replenishes(self, cba_params):
        bank = CreditBank(cba_params)
        bank[1].reset(balance=100)
        bank.step(holder=None)
        assert bank[1].balance == 101

    def test_one_maxl_transaction_drains_most_of_the_budget(self, cba_params):
        """Holding the bus for MaxL consecutive cycles drains a net
        ``MaxL * (N-1) + 1`` (the +1 replenishment of the first busy cycle is
        lost to saturation): 224 - (56*3 + 1) = 55 with the paper parameters."""
        bank = CreditBank(cba_params)
        for _ in range(56):
            bank.step(holder=0)
        assert bank[0].balance == 224 - (56 * 3 + 1)
        assert not bank[0].eligible

    def test_set_initial_budget(self, cba_params):
        bank = CreditBank(cba_params)
        bank.set_initial_budget(0, 0)
        assert bank[0].balance == 0
        assert bank.eligible_cores(0) == [1, 2, 3]

    def test_reset_restores_initial_budgets(self, cba_params):
        bank = CreditBank(cba_params)
        bank.step(holder=0)
        bank.reset()
        assert bank.balances(0) == [224] * 4

    def test_heterogeneous_shares(self):
        params = CBAParameters(max_latency=56, num_cores=4, replenish_shares=(3, 1, 1, 1))
        bank = CreditBank(params)
        assert bank[0].replenish_share == 3
        assert bank[0].drain_per_cycle == 6
        assert bank[0].full_budget == 6 * 56
