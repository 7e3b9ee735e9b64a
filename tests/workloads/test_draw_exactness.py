"""``WorkloadSpec.generate_columns`` draws exactly what per-call numpy draws.

The oracle below is the per-access generator that raw-word drawing
replaced: one ``rng.geometric``/``rng.random``/``rng.integers`` call per
draw.  For every spec and stream the two must give the same columns, leave
the stream in the same state (``bit_generator.state``, including PCG64's
buffered 32-bit half-word) and therefore agree on every later draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.trace import KIND_ATOMIC, KIND_NONE, KIND_READ, KIND_WRITE
from repro.sim.errors import WorkloadError
from repro.workloads.base import AddressPattern, WorkloadSpec, _word_cut
from repro.workloads.eembc import available_benchmarks, eembc_workload


# ----------------------------------------------------------------------
# The per-call oracle
# ----------------------------------------------------------------------
def _draw_gap(spec: WorkloadSpec, rng: np.random.Generator) -> int:
    if spec.mean_compute_gap == 0:
        return 0
    if spec.gap_variability == 0:
        return int(round(spec.mean_compute_gap))
    constant = (1.0 - spec.gap_variability) * spec.mean_compute_gap
    random_mean = spec.gap_variability * spec.mean_compute_gap
    random_part = rng.geometric(1.0 / (random_mean + 1.0)) - 1 if random_mean > 0 else 0
    return max(0, int(round(constant + random_part)))


def _draw_address(
    spec: WorkloadSpec, rng: np.random.Generator, index: int, pointer_state: int
) -> tuple[int, int]:
    span = spec.working_set_bytes
    if spec.hot_fraction and rng.random() < spec.hot_fraction:
        offset = int(rng.integers(0, max(1, spec.hot_region_bytes)))
        return spec.base_address + offset, pointer_state
    if spec.pattern == AddressPattern.SEQUENTIAL:
        offset = (index * spec.stride_bytes) % span
    elif spec.pattern == AddressPattern.STRIDED:
        offset = (index * spec.stride_bytes * 4) % span
    elif spec.pattern == AddressPattern.RANDOM:
        offset = int(rng.integers(0, span))
    else:
        pointer_state = (pointer_state * 1103515245 + 12345 + index) % span
        offset = pointer_state
    return spec.base_address + offset, pointer_state


def _draw_kind(spec: WorkloadSpec, rng: np.random.Generator) -> int:
    draw = rng.random()
    if draw < spec.atomic_fraction:
        return KIND_ATOMIC
    if draw < spec.atomic_fraction + spec.write_fraction:
        return KIND_WRITE
    return KIND_READ


def oracle_columns(
    spec: WorkloadSpec, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int]]:
    gaps: list[int] = []
    addresses: list[int] = []
    kinds: list[int] = []
    pointer_state = 0
    for index in range(spec.num_accesses):
        gaps.append(_draw_gap(spec, rng))
        address, pointer_state = _draw_address(spec, rng, index, pointer_state)
        addresses.append(address)
        kinds.append(_draw_kind(spec, rng))
    if spec.tail_compute_cycles:
        gaps.append(spec.tail_compute_cycles)
        addresses.append(0)
        kinds.append(KIND_NONE)
    return gaps, addresses, kinds


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def stream(seed: int, buffered_half: bool = False) -> np.random.Generator:
    """A fresh PCG64 stream; optionally holding a buffered 32-bit half-word
    (one 32-bit draw leaves the word's high half for the next one)."""
    rng = np.random.default_rng(seed)
    if buffered_half:
        rng.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def assert_same_draws(spec: WorkloadSpec, seed: int, buffered_half: bool = False) -> None:
    fast = stream(seed, buffered_half)
    reference = stream(seed, buffered_half)
    assert spec.generate_columns(fast) == oracle_columns(spec, reference)
    assert fast.bit_generator.state == reference.bit_generator.state
    # One following draw of each kind: 64-bit words, then a 32-bit half
    # (which reads the buffered half-word, if any).
    assert fast.random() == reference.random()
    assert fast.integers(0, 1000) == reference.integers(0, 1000)


@pytest.mark.parametrize("name", available_benchmarks())
def test_eembc_specs_draw_exactly_the_per_call_columns(name):
    spec = eembc_workload(name)
    for seed in range(20):
        assert_same_draws(spec, seed)


specs = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    num_accesses=st.integers(min_value=1, max_value=120),
    working_set_bytes=st.one_of(
        st.integers(min_value=1, max_value=2**20),
        st.sampled_from([2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1, 2**33]),
    ),
    mean_compute_gap=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=64.0, allow_nan=False)
    ),
    gap_variability=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
    ),
    pattern=st.sampled_from(AddressPattern.ALL),
    stride_bytes=st.integers(min_value=1, max_value=256),
    write_fraction=st.floats(min_value=0.0, max_value=0.5),
    atomic_fraction=st.floats(min_value=0.0, max_value=0.5),
    hot_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    hot_region_bytes=st.one_of(
        st.integers(min_value=1, max_value=4096),
        st.sampled_from([1, 2**32 - 1, 2**32, 2**40]),
    ),
    tail_compute_cycles=st.integers(min_value=0, max_value=8),
)


@given(specs, st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=300, deadline=None)
def test_property_random_specs_draw_exactly_the_per_call_columns(spec, seed, buffered_half):
    assert_same_draws(spec, seed, buffered_half)


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param(dict(mean_compute_gap=0.0), id="no-gap"),
        pytest.param(dict(mean_compute_gap=7.3, gap_variability=0.0), id="constant-gap"),
        pytest.param(dict(mean_compute_gap=7.3, gap_variability=1.0), id="geometric-gap"),
        # random_mean <= 2 gives p >= 1/3, numpy's geometric search branch.
        pytest.param(dict(mean_compute_gap=2.0, gap_variability=1.0), id="geometric-search"),
        pytest.param(dict(mean_compute_gap=4.0, gap_variability=0.3), id="geometric-search-blend"),
        pytest.param(dict(hot_fraction=0.6, hot_region_bytes=1), id="hot-1"),
        pytest.param(dict(hot_fraction=0.6, hot_region_bytes=2**32 - 1), id="hot-2^32-1"),
        pytest.param(dict(hot_fraction=0.6, hot_region_bytes=2**32), id="hot-2^32"),
        pytest.param(dict(hot_fraction=0.6, hot_region_bytes=2**40), id="hot-2^40"),
        # Half-words for the 2**32 hot region and for small random offsets
        # come from one buffer.
        pytest.param(
            dict(
                pattern=AddressPattern.RANDOM,
                working_set_bytes=4096,
                hot_fraction=0.5,
                hot_region_bytes=2**32,
            ),
            id="hot-2^32-random-mix",
        ),
        # About half of the 32-bit draws fall below Lemire's threshold here
        # and are redrawn.
        pytest.param(
            dict(pattern=AddressPattern.RANDOM, working_set_bytes=2**31 + 11),
            id="random-rejecting",
        ),
        pytest.param(
            dict(pattern=AddressPattern.RANDOM, working_set_bytes=2**33, hot_fraction=0.3),
            id="random-2^33",
        ),
    ],
)
@pytest.mark.parametrize("buffered_half", [False, True], ids=["empty-buffer", "buffered-half"])
def test_edge_specs_draw_exactly_the_per_call_columns(kwargs, buffered_half):
    spec = WorkloadSpec(name="edge", num_accesses=400, write_fraction=0.3, **kwargs)
    for seed in range(5):
        assert_same_draws(spec, seed, buffered_half)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_word_cut_is_exact_at_its_boundary(fraction):
    """``word < _word_cut(f)`` iff numpy's ``random()`` from that word,
    ``(word >> 11) * 2**-53``, is below ``f``: checked on the words either
    side of the cut, where an off-by-one would show."""
    cut = _word_cut(fraction)
    for word in (cut - 1, cut, cut + 2047, cut - 2048):
        if 0 <= word < 2**64:
            assert (word < cut) == ((word >> 11) * 2.0**-53 < fraction)


def test_the_rejecting_working_set_really_rejects():
    """Lemire's threshold for 2**31 + 11 is 2**31 - 11: a draw whose low
    product half lands below it (about half of all 32-bit draws) is
    redrawn."""
    n = 2**31 + 11
    assert (2**32 - n) % n == 2**31 - 11


def test_a_non_pcg64_stream_is_rejected():
    spec = WorkloadSpec(name="w", num_accesses=10)
    with pytest.raises(WorkloadError, match="PCG64"):
        spec.generate_columns(np.random.Generator(np.random.MT19937(1)))
