"""Tests for cache replacement policies.

A policy picks a victim from the cache's flat ``last_used`` stamps: the
ways of the set starting at flat index ``base`` are
``last_used[base:base + assoc]``.
"""

import numpy as np

from repro.cache.replacement import LRUReplacement, RandomReplacement

# Two 4-way sets; the second set (base 4) is the one under test, so a
# policy that ignored ``base`` would read the first set's stamps.
OTHER_SET = [0, 0, 0, 0]


def stamps(last_used):
    return OTHER_SET + list(last_used)


class TestLRU:
    def test_selects_least_recently_used(self):
        assert LRUReplacement().select_victim(stamps([10, 3, 7, 9]), base=4, assoc=4) == 1

    def test_touching_a_way_updates_recency(self):
        last_used = stamps([1, 2, 3, 4])
        last_used[4 + 0] = 100
        assert LRUReplacement().select_victim(last_used, base=4, assoc=4) == 1

    def test_sequence_of_touches_cycles_through_victims(self):
        policy = LRUReplacement()
        last_used = stamps([0, 0, 0, 0])
        for cycle, way in enumerate([0, 1, 2, 3], start=1):
            last_used[4 + way] = cycle
        assert policy.select_victim(last_used, base=4, assoc=4) == 0

    def test_ties_evict_the_lowest_way(self):
        assert LRUReplacement().select_victim(stamps([5, 2, 2, 9]), base=4, assoc=4) == 1


class TestRandom:
    def test_victim_always_in_range(self, rng):
        policy = RandomReplacement(rng)
        last_used = stamps([1, 2, 3, 4])
        for _ in range(100):
            assert 0 <= policy.select_victim(last_used, base=4, assoc=4) < 4

    def test_every_way_eventually_chosen(self, rng):
        policy = RandomReplacement(rng)
        last_used = stamps([1, 2, 3, 4])
        chosen = {policy.select_victim(last_used, base=4, assoc=4) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}

    def test_reproducible_with_same_seed(self):
        last_used = stamps([1, 2, 3, 4])
        a = RandomReplacement(np.random.default_rng(9))
        b = RandomReplacement(np.random.default_rng(9))
        seq_a = [a.select_victim(last_used, 4, 4) for _ in range(50)]
        seq_b = [b.select_victim(last_used, 4, 4) for _ in range(50)]
        assert seq_a == seq_b

    def test_draws_one_integer_per_victim_from_the_stream(self):
        """The victim is ``rng.integers(0, assoc)``: the same stream draw a
        per-line cache makes, so seeded runs keep their victims."""
        policy = RandomReplacement(np.random.default_rng(5))
        reference = np.random.default_rng(5)
        victims = [policy.select_victim(stamps([1, 2, 3, 4]), 4, 4) for _ in range(20)]
        assert victims == [int(reference.integers(0, 4)) for _ in range(20)]
