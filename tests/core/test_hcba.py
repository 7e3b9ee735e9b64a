"""Tests for the heterogeneous CBA variants."""

from fractions import Fraction

import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.hcba import (
    bandwidth_fractions,
    budget_cap_parameters,
    heterogeneous_share_parameters,
    make_hcba_arbiter,
)
from repro.sim.errors import ConfigurationError


class TestShareParameters:
    def test_paper_half_allocation(self):
        """The paper's H-CBA: the TuA recovers 1/2 cycle per cycle and each
        other core 1/6 — scaled shares 3 and 1 over a scale of 6."""
        params = heterogeneous_share_parameters(4, 56, favoured_core=0)
        assert params.replenish_shares == (3, 1, 1, 1)
        assert params.scale == 6
        assert params.scaled_full_budget == 6 * 56
        fractions = bandwidth_fractions(params)
        assert fractions[0] == Fraction(1, 2)
        assert fractions[1] == Fraction(1, 6)

    def test_other_favoured_core(self):
        params = heterogeneous_share_parameters(4, 56, favoured_core=2)
        assert params.replenish_shares == (1, 1, 3, 1)

    def test_arbitrary_fraction(self):
        params = heterogeneous_share_parameters(4, 56, 0, favoured_fraction=0.4)
        fractions = bandwidth_fractions(params)
        assert fractions[0] == Fraction(2, 5)
        assert sum(fractions) == 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_share_parameters(4, 56, favoured_core=7)
        with pytest.raises(ConfigurationError):
            heterogeneous_share_parameters(1, 56, favoured_core=0)
        with pytest.raises(ConfigurationError):
            heterogeneous_share_parameters(4, 56, 0, favoured_fraction=1.0)
        with pytest.raises(ConfigurationError):
            heterogeneous_share_parameters(4, 56, 0, favoured_fraction=0.0)


class TestBudgetCapParameters:
    def test_cap_doubles_only_for_favoured_core(self):
        params = budget_cap_parameters(4, 56, favoured_core=1, cap_multiplier=2)
        full = 4 * 56
        assert params.budget_caps == (full, 2 * full, full, full)
        assert params.scale == 4

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            budget_cap_parameters(4, 56, favoured_core=9)
        with pytest.raises(ConfigurationError):
            budget_cap_parameters(4, 56, favoured_core=0, cap_multiplier=0)


class TestMakeHCBAArbiter:
    def test_shares_variant(self):
        arbiter = make_hcba_arbiter(RoundRobinArbiter(4), 4, 56, favoured_core=0)
        assert arbiter.params.replenish_shares == (3, 1, 1, 1)

    def test_cap_variant(self):
        arbiter = make_hcba_arbiter(
            RoundRobinArbiter(4), 4, 56, favoured_core=0, variant="cap", cap_multiplier=3
        )
        assert arbiter.params.budget_caps[0] == 3 * 4 * 56

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            make_hcba_arbiter(RoundRobinArbiter(4), 4, 56, variant="nope")

    def test_cap_variant_allows_back_to_back_maxl_requests(self):
        """With a 2x budget cap the favoured core can pay for two back-to-back
        maximum-length transactions, which homogeneous CBA cannot."""
        arbiter = make_hcba_arbiter(
            RoundRobinArbiter(4), 4, 56, favoured_core=0, variant="cap", cap_multiplier=2
        )
        credits = arbiter.credits
        # Let the favoured core accumulate up to its doubled cap.
        start = 4 * 56 * 2
        assert credits.balance(0, start) == 2 * 4 * 56
        # First MaxL transaction.
        arbiter.on_grant(0, 56, start)
        assert credits.eligible(0, start + 56)  # still at or above the full budget
        # Second MaxL transaction straight away.
        arbiter.on_grant(0, 56, start + 56)
        assert not credits.eligible(0, start + 112)


class TestShareDynamics:
    def test_favoured_core_recovers_faster(self):
        arbiter = make_hcba_arbiter(RoundRobinArbiter(4), 4, 56, favoured_core=0)
        # Drain both core 0 and core 1 by a 6-cycle transaction each.
        arbiter.on_grant(0, 6, 0)
        arbiter.on_grant(1, 6, 6)
        credits = arbiter.credits
        assert not credits.eligible(0, 12) and not credits.eligible(1, 12)
        assert credits.eligible_from[0] < credits.eligible_from[1]
