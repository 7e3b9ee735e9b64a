"""Tests for the columnar workload trace."""

import pytest

from repro.bus.transaction import AccessType
from repro.cache.placement import RandomPlacement
from repro.cpu.trace import (
    ACCESS_BY_KIND,
    KIND_ATOMIC,
    KIND_NONE,
    KIND_READ,
    KIND_WRITE,
    MaterializedTrace,
)
from repro.sim.errors import WorkloadError


class TestMaterializedTrace:
    def make(self):
        return MaterializedTrace(
            compute_gaps=[3, 0, 5, 2],
            addresses=[0x100, 0x200, 0x300, 0],
            kinds=[KIND_READ, KIND_WRITE, KIND_ATOMIC, KIND_NONE],
            name="columnar",
        )

    def test_columns_are_adopted_as_python_lists(self):
        trace = self.make()
        assert len(trace) == 4
        assert trace.compute_gaps == [3, 0, 5, 2]
        assert trace.addresses == [0x100, 0x200, 0x300, 0]
        assert trace.kinds == [KIND_READ, KIND_WRITE, KIND_ATOMIC, KIND_NONE]

    def test_empty_trace_is_valid(self):
        trace = MaterializedTrace([], [], [])
        assert len(trace) == 0

    def test_access_by_kind_maps_each_code(self):
        assert ACCESS_BY_KIND[KIND_READ] is AccessType.READ
        assert ACCESS_BY_KIND[KIND_WRITE] is AccessType.WRITE
        assert ACCESS_BY_KIND[KIND_ATOMIC] is AccessType.ATOMIC
        assert ACCESS_BY_KIND[KIND_NONE] is None
        assert len(ACCESS_BY_KIND) == KIND_NONE + 1

    @pytest.mark.parametrize(
        "columns",
        [
            ([1, 2], [0x100], [KIND_READ]),
            ([1], [0x100], [17]),
            ([-1], [0x100], [KIND_READ]),
            ([1], [0x100], [257]),
            ([1], [0x100], [-1]),
        ],
        ids=["lengths", "kind-17", "negative-gap", "kind-257", "kind-minus-1"],
    )
    def test_mismatched_columns_rejected(self, columns):
        with pytest.raises(WorkloadError):
            MaterializedTrace(*columns)

    def test_placement_columns_match_the_scalar_mapping(self):
        placement = RandomPlacement(num_sets=16, line_bytes=32, seed=99)
        trace = self.make()
        sets, tags = trace.placement_columns(placement)
        assert sets == [placement.set_index(a) for a in trace.addresses]
        assert tags == [placement.tag(a) for a in trace.addresses]

    def test_placement_columns_of_an_empty_trace_are_empty(self):
        placement = RandomPlacement(num_sets=16, line_bytes=32, seed=99)
        assert MaterializedTrace([], [], []).placement_columns(placement) == ([], [])
