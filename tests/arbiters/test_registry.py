"""Tests for the arbiter registry/factory."""

import numpy as np
import pytest

from repro.arbiters import (
    FIFOArbiter,
    FixedPriorityArbiter,
    LotteryArbiter,
    RandomPermutationsArbiter,
    RoundRobinArbiter,
    TDMAArbiter,
    available_policies,
    create_arbiter,
)
from repro.sim.errors import ConfigurationError


def test_available_policies_lists_all_six():
    assert set(available_policies()) == {
        "round_robin",
        "fifo",
        "tdma",
        "lottery",
        "random_permutations",
        "fixed_priority",
    }


@pytest.mark.parametrize(
    "policy, expected_type",
    [
        ("round_robin", RoundRobinArbiter),
        ("fifo", FIFOArbiter),
        ("tdma", TDMAArbiter),
        ("lottery", LotteryArbiter),
        ("random_permutations", RandomPermutationsArbiter),
        ("fixed_priority", FixedPriorityArbiter),
    ],
)
def test_factory_builds_expected_type(policy, expected_type, rng):
    arbiter = create_arbiter(policy, 4, rng=rng)
    assert isinstance(arbiter, expected_type)
    assert arbiter.num_masters == 4


def test_unknown_policy_rejected(rng):
    with pytest.raises(ConfigurationError):
        create_arbiter("does_not_exist", 4, rng=rng)


def test_tdma_options_forwarded(rng):
    arbiter = create_arbiter("tdma", 2, rng=rng, slot_cycles=7, schedule=[1, 0])
    assert arbiter.slot_cycles == 7
    assert arbiter.schedule == [1, 0]


def test_lottery_tickets_forwarded(rng):
    arbiter = create_arbiter("lottery", 2, rng=rng, tickets=[3, 1])
    assert arbiter.tickets == [3, 1]


def test_priority_option_forwarded(rng):
    arbiter = create_arbiter("fixed_priority", 3, rng=rng, priorities=[1, 3, 2])
    assert arbiter.priorities == [1, 3, 2]


def test_default_rng_allows_omitting_generator():
    arbiter = create_arbiter("lottery", 2)
    assert arbiter.arbitrate([0, 1], 0) in (0, 1)


def _grants(arbiter, num_masters):
    """Winners over 200 two-cycle slots of a shifting request pattern."""
    winners = []
    for cycle in range(0, 400, 2):
        requestors = [m for m in range(num_masters) if (cycle // 2 + m) % 3 != 0] or [0]
        winner = arbiter.arbitrate(requestors, cycle)
        if winner is not None:
            arbiter.on_grant(winner, 2, cycle)
        winners.append(winner)
    return winners


@pytest.mark.parametrize("num_masters", [2, 4])
@pytest.mark.parametrize("policy", available_policies())
def test_default_generator_is_the_documented_fixed_stream(policy, num_masters):
    """Without an ``rng`` every build draws what ``default_rng(0)`` draws."""
    seeded = _grants(create_arbiter(policy, num_masters, rng=np.random.default_rng(0)), num_masters)
    assert _grants(create_arbiter(policy, num_masters), num_masters) == seeded
    assert _grants(create_arbiter(policy, num_masters), num_masters) == seeded
