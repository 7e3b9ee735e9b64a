"""Tests for deterministic named random streams."""

import numpy as np

from repro.sim.rng import RandomStreams, derive_seed


def test_derive_seed_is_deterministic():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)


def test_derive_seed_differs_across_labels_and_seeds():
    base = derive_seed(1, "cache")
    assert derive_seed(1, "arbiter") != base
    assert derive_seed(2, "cache") != base
    assert derive_seed(1, "cache", 0) != base


def test_same_stream_name_returns_same_generator():
    streams = RandomStreams(seed=7)
    assert streams.stream("x") is streams.stream("x")


def test_streams_reproducible_across_instances():
    a = RandomStreams(seed=3, run_index=5)
    b = RandomStreams(seed=3, run_index=5)
    assert [a.integers("s", 0, 1000) for _ in range(10)] == [
        b.integers("s", 0, 1000) for _ in range(10)
    ]


def test_different_run_indices_give_different_sequences():
    a = RandomStreams(seed=3, run_index=0)
    b = RandomStreams(seed=3, run_index=1)
    seq_a = [a.integers("s", 0, 10**9) for _ in range(5)]
    seq_b = [b.integers("s", 0, 10**9) for _ in range(5)]
    assert seq_a != seq_b


def test_different_names_give_independent_sequences():
    streams = RandomStreams(seed=3)
    seq_a = [streams.integers("a", 0, 10**9) for _ in range(5)]
    seq_b = [streams.integers("b", 0, 10**9) for _ in range(5)]
    assert seq_a != seq_b


def test_spawn_changes_run_index_only():
    streams = RandomStreams(seed=9, run_index=0)
    child = streams.spawn(4)
    assert child.seed == 9
    assert child.run_index == 4


def test_permutation_contains_every_element():
    streams = RandomStreams(seed=11)
    perm = streams.permutation("p", 8)
    assert sorted(perm) == list(range(8))


def test_random_in_unit_interval():
    streams = RandomStreams(seed=13)
    values = [streams.random("u") for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_choice_picks_from_options():
    streams = RandomStreams(seed=17)
    options = [3, 5, 9]
    for _ in range(20):
        assert streams.choice("c", options) in options


def test_choice_empty_options_rejected():
    import pytest

    with pytest.raises(ValueError):
        RandomStreams(seed=1).choice("c", [])


def test_rewind_replays_every_stream_from_its_saved_state():
    streams = RandomStreams(seed=3)
    arbiter, cache = streams.stream("arbiter"), streams.stream("l2")
    arbiter.random()
    cache.integers(0, 7, dtype=np.uint32)  # leaves a buffered half-word
    saved = streams.states()
    first = (arbiter.permutation(4).tolist(), cache.integers(0, 7, size=5).tolist())
    streams.rewind(saved)
    assert streams.stream("arbiter") is arbiter
    assert (arbiter.permutation(4).tolist(), cache.integers(0, 7, size=5).tolist()) == first
