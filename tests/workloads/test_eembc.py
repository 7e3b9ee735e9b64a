"""Tests for the EEMBC Autobench-like workload registry."""

import numpy as np
import pytest

from repro.cpu.trace import KIND_NONE
from repro.sim.errors import WorkloadError
from repro.workloads.eembc import (
    EEMBC_AUTOBENCH,
    FIGURE1_BENCHMARKS,
    available_benchmarks,
    eembc_workload,
)


def test_figure1_benchmarks_are_present():
    assert set(FIGURE1_BENCHMARKS) == {"cacheb", "canrdr", "matrix", "tblook"}
    for name in FIGURE1_BENCHMARKS:
        assert name in EEMBC_AUTOBENCH


def test_suite_covers_the_autobench_kernels():
    assert len(EEMBC_AUTOBENCH) >= 12


def test_lookup_by_name_and_error_for_unknown():
    assert eembc_workload("matrix").name == "matrix"
    with pytest.raises(WorkloadError):
        eembc_workload("no_such_benchmark")


def test_available_benchmarks_sorted():
    names = available_benchmarks()
    assert names == sorted(names)


def test_every_spec_is_tagged_and_generates_a_trace():
    rng = np.random.default_rng(0)
    for name, spec in EEMBC_AUTOBENCH.items():
        assert "eembc" in spec.tags
        assert spec.description
        _, _, kinds = spec.generate_columns(rng)
        assert sum(1 for kind in kinds if kind != KIND_NONE) == spec.num_accesses


def test_matrix_is_the_most_bus_intensive_of_the_figure1_set():
    """The paper's ordering: matrix shows the largest contention slowdown, so
    its modelled request stream must be the densest of the four."""
    def density(name):
        spec = eembc_workload(name)
        return 1.0 / (spec.mean_compute_gap + 1.0)

    assert density("matrix") == max(density(n) for n in FIGURE1_BENCHMARKS)


def test_canrdr_is_the_least_bus_intensive_of_the_figure1_set():
    def bus_pressure(name):
        spec = eembc_workload(name)
        # Rough pressure proxy: access rate times the share of accesses that
        # cannot be satisfied by the L1 (writes always go through).
        return (spec.write_fraction + (1 - spec.hot_fraction)) / (spec.mean_compute_gap + 1)

    pressures = {name: bus_pressure(name) for name in FIGURE1_BENCHMARKS}
    assert pressures["canrdr"] == min(pressures.values())


def test_tblook_uses_pointer_chasing():
    assert eembc_workload("tblook").pattern == "pointer_chase"


def test_specs_fit_the_shared_l2_partition():
    """Working sets must fit a 32 KiB L2 partition so that steady-state
    behaviour is L2 hits, as on the paper's platform where EEMBC does not
    saturate the memory."""
    for name, spec in EEMBC_AUTOBENCH.items():
        assert spec.working_set_bytes <= 32 * 1024, name
