"""Shared fixtures for the test suite.

The fixtures keep simulated workloads deliberately tiny so the full suite
runs in a couple of minutes: what the tests check are behaviours and
invariants, not paper-scale statistics (those live in ``benchmarks/``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pytest

from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.platform.scenarios import ScenarioResult
from repro.sim.config import BusTimings, CacheGeometry, CBAParameters, KernelMode
from repro.workloads.base import AddressPattern, WorkloadSpec


def _modes_agree(run: Callable[[KernelMode], ScenarioResult]) -> ScenarioResult:
    reference = run(KernelMode.STEPPING).snapshot()
    for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
        result = run(mode)
        assert result.snapshot() == reference, mode
    return result


@pytest.fixture
def modes_agree() -> Callable[[Callable[[KernelMode], ScenarioResult]], ScenarioResult]:
    """Assert a scenario run is bit-identical in every kernel mode.

    Takes ``run(mode)`` and compares the fast-forward and production
    snapshots against stepping's; returns the production result.
    """
    return _modes_agree


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_timings() -> BusTimings:
    """The bus latency model of the paper (5..56 cycles, 28-cycle memory)."""
    return BusTimings(l2_hit_read=5, l2_hit_write=6, memory_latency=28, max_latency=56)


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A small cache geometry so tests exercise evictions quickly."""
    return CacheGeometry(size_bytes=1024, line_bytes=32, associativity=2)


@pytest.fixture
def cba_params() -> CBAParameters:
    """Homogeneous CBA parameters with the paper's defaults (N=4, MaxL=56)."""
    return CBAParameters(max_latency=56, num_cores=4)


@pytest.fixture
def tiny_workload() -> WorkloadSpec:
    """A small, moderately bus-hungry workload that finishes in a few
    thousand cycles, used by platform-level tests."""
    return WorkloadSpec(
        name="tiny",
        num_accesses=120,
        working_set_bytes=4 * 1024,
        mean_compute_gap=6.0,
        gap_variability=0.3,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.2,
        hot_fraction=0.5,
        hot_region_bytes=1024,
    )


@pytest.fixture
def quiet_workload() -> WorkloadSpec:
    """A compute-dominated workload with sparse, short bus requests."""
    return WorkloadSpec(
        name="quiet",
        num_accesses=80,
        working_set_bytes=2 * 1024,
        mean_compute_gap=30.0,
        gap_variability=0.2,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.1,
        hot_fraction=0.8,
        hot_region_bytes=1024,
    )


@pytest.fixture
def rp_platform():
    """Baseline (no CBA) platform configuration."""
    return rp_config()


@pytest.fixture
def cba_platform():
    """Homogeneous CBA platform configuration."""
    return cba_config()


@pytest.fixture
def hcba_platform():
    """Heterogeneous CBA platform configuration (core 0 favoured at 50%)."""
    return hcba_config(favoured_core=0)
