"""Tests for the generic synthetic workload profiles."""

import numpy as np

from repro.cpu.trace import KIND_NONE
from repro.workloads.synthetic import (
    bus_hog_workload,
    cpu_bound_workload,
    mixed_workload,
    short_request_workload,
    streaming_workload,
)


def test_streaming_workload_has_no_compute_gap_and_huge_working_set():
    spec = streaming_workload()
    assert spec.mean_compute_gap == 0.0
    assert spec.working_set_bytes >= 1024 * 1024
    assert spec.write_fraction == 0.0


def test_cpu_bound_workload_is_compute_dominated():
    spec = cpu_bound_workload()
    assert spec.mean_compute_gap >= 20
    assert spec.working_set_bytes <= 4 * 1024


def test_bus_hog_issues_atomics_back_to_back():
    spec = bus_hog_workload()
    assert spec.mean_compute_gap == 0.0
    assert spec.atomic_fraction > 0


def test_short_request_workload_matches_illustrative_tua_profile():
    spec = short_request_workload()
    assert spec.mean_compute_gap <= 6
    assert spec.write_fraction == 0.0
    assert spec.working_set_bytes <= 8 * 1024


def test_custom_sizes_and_names_respected():
    spec = streaming_workload(num_accesses=123, name="bg")
    assert spec.num_accesses == 123
    assert spec.name == "bg"


def test_all_profiles_generate_valid_traces():
    rng = np.random.default_rng(1)
    for spec in (
        streaming_workload(num_accesses=50),
        cpu_bound_workload(num_accesses=50),
        bus_hog_workload(num_accesses=50),
        short_request_workload(num_accesses=50),
        mixed_workload(num_accesses=50),
    ):
        _, _, kinds = spec.generate_columns(rng)
        assert sum(1 for kind in kinds if kind != KIND_NONE) == 50
