"""Tests for the parametric workload specification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.trace import KIND_ATOMIC, KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
from repro.sim.errors import WorkloadError
from repro.workloads.base import AddressPattern, WorkloadSpec


def collect(spec, seed=0):
    """One run's trace as ``(gap, address, kind)`` items."""
    return list(zip(*spec.generate_columns(np.random.default_rng(seed)), strict=True))


def accesses(spec, seed=0):
    """The memory-access items of one run (the pure-compute tail dropped)."""
    return [item for item in collect(spec, seed) if item[2] != KIND_NONE]


class TestValidation:
    def test_defaults_are_valid(self):
        WorkloadSpec(name="ok")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_accesses=0),
            dict(working_set_bytes=0),
            dict(mean_compute_gap=-1),
            dict(gap_variability=2.0),
            dict(pattern="bogus"),
            dict(stride_bytes=0),
            dict(write_fraction=1.5),
            dict(write_fraction=0.8, atomic_fraction=0.4),
            dict(hot_region_bytes=0),
            dict(tail_compute_cycles=-1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="bad", **kwargs)


class TestGeneration:
    def test_generates_requested_number_of_accesses(self):
        spec = WorkloadSpec(name="w", num_accesses=50)
        assert len(accesses(spec)) == 50

    def test_tail_compute_item_appended(self):
        spec = WorkloadSpec(name="w", num_accesses=5, tail_compute_cycles=99)
        assert collect(spec)[-1] == (99, 0, KIND_NONE)

    def test_addresses_stay_within_working_set(self):
        spec = WorkloadSpec(
            name="w", num_accesses=200, working_set_bytes=4096,
            pattern=AddressPattern.RANDOM, base_address=0x1000_0000,
        )
        for _, address, _ in collect(spec):
            assert 0 <= address - 0x1000_0000 < 4096

    def test_zero_gap_produces_back_to_back_accesses(self):
        spec = WorkloadSpec(name="w", num_accesses=20, mean_compute_gap=0.0)
        assert all(gap == 0 for gap, _, _ in collect(spec))

    def test_constant_gap_when_variability_zero(self):
        spec = WorkloadSpec(name="w", num_accesses=20, mean_compute_gap=7.0, gap_variability=0.0)
        assert all(gap == 7 for gap, _, _ in collect(spec))

    def test_mean_gap_approximately_respected(self):
        spec = WorkloadSpec(
            name="w", num_accesses=3000, mean_compute_gap=10.0, gap_variability=0.8
        )
        gaps = [gap for gap, _, _ in accesses(spec)]
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.25)

    def test_access_mix_follows_fractions(self):
        spec = WorkloadSpec(
            name="w", num_accesses=4000, write_fraction=0.3, atomic_fraction=0.1
        )
        items = accesses(spec)
        writes = sum(kind == KIND_WRITE for _, _, kind in items)
        atomics = sum(kind == KIND_ATOMIC for _, _, kind in items)
        assert writes / len(items) == pytest.approx(0.3, abs=0.05)
        assert atomics / len(items) == pytest.approx(0.1, abs=0.03)

    def test_hot_fraction_concentrates_accesses(self):
        spec = WorkloadSpec(
            name="w",
            num_accesses=2000,
            working_set_bytes=64 * 1024,
            pattern=AddressPattern.RANDOM,
            hot_fraction=0.8,
            hot_region_bytes=1024,
        )
        items = accesses(spec)
        in_hot = sum(address - spec.base_address < 1024 for _, address, _ in items)
        assert in_hot / len(items) > 0.7

    def test_generation_is_deterministic_given_the_rng_seed(self):
        spec = WorkloadSpec(name="w", num_accesses=100, gap_variability=0.9)
        first = collect(spec, seed=4)
        second = collect(spec, seed=4)
        third = collect(spec, seed=5)
        assert first == second
        assert first != third

    def test_pointer_chase_pattern_revisits_working_set(self):
        spec = WorkloadSpec(
            name="w", num_accesses=500, pattern=AddressPattern.POINTER_CHASE,
            working_set_bytes=2048, hot_fraction=0.0,
        )
        addresses = {address for _, address, _ in accesses(spec)}
        assert len(addresses) > 50  # walks many distinct locations

    def test_build_trace_holds_the_generated_columns(self):
        spec = WorkloadSpec(name="w", num_accesses=10, tail_compute_cycles=5)
        trace = spec.build_trace(np.random.default_rng(0))
        assert isinstance(trace, MaterializedTrace)
        assert trace.name == "w"
        assert len(trace) == 11
        columns = spec.generate_columns(np.random.default_rng(0))
        assert (trace.compute_gaps, trace.addresses, trace.kinds) == columns

    def test_build_trace_is_replayable(self):
        spec = WorkloadSpec(name="w", num_accesses=10, gap_variability=0.9)
        first = spec.build_trace(np.random.default_rng(3))
        second = spec.build_trace(np.random.default_rng(3))
        assert (first.compute_gaps, first.addresses, first.kinds) == (
            second.compute_gaps, second.addresses, second.kinds,
        )

    def test_generate_columns_returns_python_int_lists(self):
        """The core's cursor indexes plain lists; numpy scalars would box on
        every read and skip the trace's range checks on Python ints."""
        spec = WorkloadSpec(name="w", num_accesses=20, write_fraction=0.5, tail_compute_cycles=4)
        for column in spec.generate_columns(np.random.default_rng(0)):
            assert type(column) is list
            assert all(type(value) is int for value in column)

    def test_generate_columns_pins_the_draw_order(self):
        """Each access draws gap, then address, then kind from one stream.

        The expected run was recorded from the item-at-a-time generator this
        one replaced; a change to the draw order changes every seeded result.
        """
        spec = WorkloadSpec(
            name="w", num_accesses=10, mean_compute_gap=6.0, gap_variability=0.5,
            write_fraction=0.3, atomic_fraction=0.25, hot_fraction=0.4,
            pattern=AddressPattern.POINTER_CHASE, tail_compute_cycles=12,
        )
        assert collect(spec, seed=42) == [
            (11, 0x1000_1039, KIND_READ),
            (3, 0x1000_021B, KIND_READ),
            (13, 0x1000_03E7, KIND_WRITE),
            (3, 0x1000_1681, KIND_READ),
            (4, 0x1000_132A, KIND_ATOMIC),
            (3, 0x1000_036E, KIND_READ),
            (7, 0x1000_034F, KIND_READ),
            (7, 0x1000_0522, KIND_ATOMIC),
            (4, 0x1000_022F, KIND_READ),
            (4, 0x1000_1BBC, KIND_WRITE),
            (12, 0, KIND_NONE),
        ]

    def test_with_updates_returns_modified_copy(self):
        spec = WorkloadSpec(name="w", num_accesses=10)
        bigger = spec.with_updates(num_accesses=99)
        assert bigger.num_accesses == 99
        assert spec.num_accesses == 10


@given(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.sampled_from(AddressPattern.ALL),
)
@settings(max_examples=40, deadline=None)
def test_property_every_generated_item_is_well_formed(num, hot, writes, pattern):
    spec = WorkloadSpec(
        name="prop",
        num_accesses=num,
        write_fraction=writes,
        hot_fraction=hot,
        pattern=pattern,
        working_set_bytes=8192,
    )
    items = accesses(spec)
    assert len(items) == num
    for gap, address, _ in items:
        assert gap >= 0
        assert address >= spec.base_address
