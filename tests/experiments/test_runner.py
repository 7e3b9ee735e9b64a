"""Tests for the shared experiment runner helpers."""

import pytest

from repro.experiments.runner import scale_workload


def test_scale_workload_shrinks_but_keeps_a_floor(tiny_workload):
    scaled = scale_workload(tiny_workload, 0.5)
    assert scaled.num_accesses == 60
    floored = scale_workload(tiny_workload, 0.0001)
    assert floored.num_accesses == 50


def test_scale_workload_identity_and_validation(tiny_workload):
    assert scale_workload(tiny_workload, 1.0) is tiny_workload
    assert scale_workload(tiny_workload, 2.0) is tiny_workload
    with pytest.raises(ValueError):
        scale_workload(tiny_workload, 0.0)
