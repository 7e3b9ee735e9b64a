"""Tests for the CBA arbitration filter."""

import pytest

from repro.arbiters.fifo import FIFOArbiter
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.cba import CreditBasedArbiter
from repro.sim.config import CBAParameters
from repro.sim.errors import ArbitrationError


def make_cba(max_latency=56, num_cores=4, base=None):
    params = CBAParameters(max_latency=max_latency, num_cores=num_cores)
    base = base if base is not None else RoundRobinArbiter(num_cores)
    return CreditBasedArbiter(base, params)


def test_base_size_must_match_parameters():
    params = CBAParameters(max_latency=56, num_cores=4)
    with pytest.raises(ArbitrationError):
        CreditBasedArbiter(RoundRobinArbiter(2), params)


def test_all_cores_start_eligible_and_delegate_to_base():
    cba = make_cba()
    assert cba.eligible_cores(0) == [0, 1, 2, 3]
    assert cba.arbitrate([1, 3], 0) in (1, 3)


def test_budget_blocked_core_is_filtered_out():
    cba = make_cba()
    cba.set_initial_budget(0, 0)
    assert cba.arbitrate([0, 1], 0) == 1


def test_no_eligible_requestor_blocks_the_bus_and_is_counted():
    cba = make_cba()
    cba.set_initial_budget(2, 0)
    assert cba.arbitrate([2], 0) is None
    assert cba.blocked_cycles == 1


def test_holder_budget_drains_and_recovers():
    cba = make_cba()
    # A 6-cycle transaction by core 1.  The net drain is 3 per busy cycle
    # plus 1 for the saturated first cycle: deficit 19.  A read at cycle t
    # sees the updates of cycles 0 .. t-1.
    cba.on_grant(1, 6, 0)
    assert cba.budget(1, 6) == 224 - (6 * 3 + 1)
    assert not cba.credits.eligible(1, 6)
    assert not cba.credits.eligible(1, 6 + 18)
    assert cba.credits.eligible(1, 25)


def test_recovery_time_scales_with_transaction_length():
    cba = make_cba()
    cba.on_grant(3, 56, 0)
    deficit = 224 - cba.budget(3, 56)
    assert deficit == 56 * 3 + 1
    assert cba.credits.cycles_until_any_eligible([3], 56) == deficit


def test_on_grant_and_on_request_are_forwarded_to_base():
    base = FIFOArbiter(4)
    cba = make_cba(base=base)
    cba.on_request(2, cycle=5)
    cba.on_request(1, cycle=7)
    assert cba.arbitrate([1, 2], 8) == 2
    cba.on_grant(2, 10, 8)
    assert base.grants_per_master[2] == 1
    assert cba.grants_per_master[2] == 1


def test_grant_accounting_tracks_cycles():
    cba = make_cba()
    cba.on_grant(0, 56, 0)
    cba.on_grant(1, 5, 60)
    assert cba.cycles_granted_per_master == [56, 5, 0, 0]


def test_reset_restores_budgets_and_counters():
    cba = make_cba()
    cba.on_grant(0, 56, 0)
    cba.set_initial_budget(1, 0)
    cba.arbitrate([1], 11)
    cba.reset()
    assert cba.budgets(0) == [224] * 4
    assert cba.blocked_cycles == 0
    assert cba.grants_per_master == [0, 0, 0, 0]


def _saturated_cycle_shares(use_cba: bool, seed: int = 5) -> list[float]:
    """Drive a simple saturated bus loop and return per-core cycle shares.

    Core 0 issues 7-cycle requests, cores 1-3 issue 56-cycle requests; every
    core is always pending.  The base policy is random permutations, as on
    the paper's platform.
    """
    import numpy as np

    from repro.arbiters.random_permutations import RandomPermutationsArbiter

    base = RandomPermutationsArbiter(4, np.random.default_rng(seed))
    arbiter = base
    if use_cba:
        arbiter = CreditBasedArbiter(base, CBAParameters(max_latency=56, num_cores=4))
    durations = {0: 7, 1: 56, 2: 56, 3: 56}
    holder = None
    remaining = 0
    cycles_used = [0, 0, 0, 0]
    for cycle in range(60_000):
        if remaining == 0:
            holder = None
            choice = arbiter.arbitrate([0, 1, 2, 3], cycle)
            if choice is not None:
                arbiter.on_grant(choice, durations[choice], cycle)
                holder = choice
                remaining = durations[choice]
        if holder is not None:
            cycles_used[holder] += 1
            remaining -= 1
    total = sum(cycles_used)
    return [c / total for c in cycles_used]


def test_sustained_saturation_shares_cycles_fairly():
    """Under saturation with unequal request lengths, CBA moves the bandwidth
    split from slot fairness (the short-request core gets ~4% of the cycles)
    towards cycle fairness — the paper's central claim."""
    without_cba = _saturated_cycle_shares(use_cba=False)
    with_cba = _saturated_cycle_shares(use_cba=True)
    # Request-fair baseline: the short-request core receives roughly
    # 7 / (7 + 3*56) ~ 4% of the bus cycles.
    assert without_cba[0] < 0.06
    # CBA raises its share several-fold and bounds the imbalance.
    assert with_cba[0] > 2.5 * without_cba[0]
    assert with_cba[0] > 0.10
    assert max(with_cba) < 0.35
    assert max(with_cba) / min(with_cba) < 3.5
