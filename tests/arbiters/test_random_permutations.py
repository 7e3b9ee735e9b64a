"""Tests for random-permutations arbitration."""

import numpy as np
import pytest

from repro.arbiters.random_permutations import MAX_BLOCK, RandomPermutationsArbiter
from repro.sim.errors import ArbitrationError


def saturated_grants(arbiter, rounds, num_masters):
    order = []
    for _ in range(rounds):
        choice = arbiter.arbitrate(list(range(num_masters)), 0)
        arbiter.on_grant(choice, 1, 0)
        order.append(choice)
    return order


def test_only_requestors_granted(rng):
    arbiter = RandomPermutationsArbiter(4, rng)
    for _ in range(100):
        choice = arbiter.arbitrate([0, 2], 0)
        assert choice in (0, 2)
        arbiter.on_grant(choice, 1, 0)


def test_no_requestors_returns_none(rng):
    assert RandomPermutationsArbiter(4, rng).arbitrate([], 0) is None


@pytest.mark.parametrize("requestors", [[1, 7, -1], [-1, 7], [0, 4]])
def test_out_of_range_requestor_names_the_first_bad_master(rng, requestors):
    first_bad = next(m for m in requestors if not 0 <= m < 4)
    with pytest.raises(ArbitrationError, match=f"requestor {first_bad} out of range"):
        RandomPermutationsArbiter(4, rng).arbitrate(requestors, 0)


def test_under_saturation_each_window_grants_each_master_once(rng):
    arbiter = RandomPermutationsArbiter(4, rng)
    order = saturated_grants(arbiter, 40, 4)
    for start in range(0, 40, 4):
        window = order[start : start + 4]
        assert sorted(window) == [0, 1, 2, 3]


def test_bounded_distance_between_grants_to_same_master(rng):
    """A master never waits more than 2N-1 grants between consecutive grants
    under saturation — the property that makes RP attractive for MBPTA."""
    num_masters = 4
    arbiter = RandomPermutationsArbiter(num_masters, rng)
    order = saturated_grants(arbiter, 400, num_masters)
    last_seen = {m: None for m in range(num_masters)}
    for position, master in enumerate(order):
        if last_seen[master] is not None:
            assert position - last_seen[master] <= 2 * num_masters - 1
        last_seen[master] = position


def test_sequences_reproducible_for_fixed_seed():
    a = RandomPermutationsArbiter(4, np.random.default_rng(3))
    b = RandomPermutationsArbiter(4, np.random.default_rng(3))
    assert saturated_grants(a, 40, 4) == saturated_grants(b, 40, 4)


def test_long_run_slot_fairness(rng):
    arbiter = RandomPermutationsArbiter(4, rng)
    saturated_grants(arbiter, 1000, 4)
    assert arbiter.grants_per_master == [250, 250, 250, 250]


def test_reset_clears_permutation_window(rng):
    arbiter = RandomPermutationsArbiter(4, rng)
    saturated_grants(arbiter, 2, 4)
    arbiter.reset()
    assert arbiter.grants_per_master == [0, 0, 0, 0]
    order = saturated_grants(arbiter, 4, 4)
    assert sorted(order) == [0, 1, 2, 3]


#: Every block size the arbiter draws, in order, then the capped size again.
BLOCK_SIZES = [1 << k for k in range(MAX_BLOCK.bit_length())] + [MAX_BLOCK]


@pytest.mark.parametrize("num_masters", [2, 3, 4, 8, 16])
def test_block_drawn_windows_equal_per_call_permutations(num_masters):
    """The windows are exactly those of one ``rng.permutation(N)`` call per
    window, and a used-up block leaves the generator exactly where those
    calls would, for every block size."""
    assert BLOCK_SIZES[:2] == [1, 2] and BLOCK_SIZES[-2:] == [MAX_BLOCK, MAX_BLOCK]
    for seed in range(100):
        arbiter = RandomPermutationsArbiter(num_masters, np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        for block in BLOCK_SIZES:
            for _ in range(block):
                arbiter._refill_window()
                assert arbiter._window == reference.permutation(num_masters).tolist()
            assert not arbiter._drawn
            assert arbiter._rng.bit_generator.state == reference.bit_generator.state


def test_reset_drops_the_drawn_block():
    arbiter = RandomPermutationsArbiter(4, np.random.default_rng(9))
    first = saturated_grants(arbiter, 40, 4)
    assert arbiter._drawn  # stopped inside a block
    arbiter.reset()
    arbiter._rng = np.random.default_rng(9)
    assert saturated_grants(arbiter, 40, 4) == first
