"""Synthetic EEMBC Autobench-like workloads.

The paper evaluates CBA with the EEMBC Autobench suite on the FPGA prototype
(Figure 1 reports ``cacheb``, ``canrdr``, ``matrix`` and ``tblook``).  The
binaries themselves are proprietary, so — following the substitution rule in
DESIGN.md — each benchmark is modelled as a :class:`~repro.workloads.base.WorkloadSpec`
whose parameters reflect the published characterisation of the suite (Poovey,
*Characterization of the EEMBC Benchmark Suite*, 2007) at the level of detail
the bus observes: memory-access intensity, working-set size, locality pattern
and write share.

What matters for reproducing Figure 1's *shape* is the relative ordering:

* ``matrix`` is the most memory-intensive of the four (largest slowdown under
  request-fair arbitration, 3.34x in the paper);
* ``cacheb`` stresses the cache with a working set larger than the L1;
* ``canrdr`` is control-dominated with a small working set (low bus demand);
* ``tblook`` performs pointer-chasing table lookups — cache-sensitive, and
  its requests rarely occur back-to-back (the property the paper uses to
  explain its behaviour under CBA in isolation).

The remaining Autobench kernels are provided as well so the suite can be run
in full; their parameters follow the same characterisation source.
"""

from __future__ import annotations

from ..sim.errors import WorkloadError
from .base import AddressPattern, WorkloadSpec

__all__ = [
    "EEMBC_AUTOBENCH",
    "FIGURE1_BENCHMARKS",
    "eembc_workload",
    "available_benchmarks",
]


def _spec(name: str, **kwargs: object) -> WorkloadSpec:
    defaults = dict(
        base_address=0x2000_0000,
        tags=("eembc", "autobench"),
    )
    defaults.update(kwargs)
    return WorkloadSpec(name=name, description=str(defaults.pop("description", "")), **defaults)


#: The four benchmarks shown in Figure 1 of the paper.
FIGURE1_BENCHMARKS: tuple[str, ...] = ("cacheb", "canrdr", "matrix", "tblook")


EEMBC_AUTOBENCH: dict[str, WorkloadSpec] = {
    # --- The Figure 1 four -------------------------------------------------
    "cacheb": _spec(
        "cacheb",
        description="cache buster: working set exceeding the private caches",
        num_accesses=2200,
        working_set_bytes=10 * 1024,
        mean_compute_gap=22.0,
        gap_variability=0.4,
        pattern=AddressPattern.STRIDED,
        stride_bytes=64,
        write_fraction=0.20,
        hot_fraction=0.75,
        hot_region_bytes=2 * 1024,
    ),
    "canrdr": _spec(
        "canrdr",
        description="CAN remote data request: control-dominated, small state",
        num_accesses=1200,
        working_set_bytes=4 * 1024,
        mean_compute_gap=30.0,
        gap_variability=0.5,
        pattern=AddressPattern.SEQUENTIAL,
        stride_bytes=16,
        write_fraction=0.10,
        hot_fraction=0.85,
        hot_region_bytes=1536,
    ),
    "matrix": _spec(
        "matrix",
        description="matrix arithmetic: dense streaming with poor reuse in L1",
        num_accesses=2500,
        working_set_bytes=8 * 1024,
        mean_compute_gap=18.0,
        gap_variability=0.2,
        pattern=AddressPattern.STRIDED,
        stride_bytes=32,
        write_fraction=0.25,
        hot_fraction=0.70,
        hot_region_bytes=2 * 1024,
    ),
    "tblook": _spec(
        "tblook",
        description="table lookup: pointer chasing, cache sensitive, sparse requests",
        num_accesses=1200,
        working_set_bytes=8 * 1024,
        mean_compute_gap=28.0,
        gap_variability=0.8,
        pattern=AddressPattern.POINTER_CHASE,
        write_fraction=0.05,
        hot_fraction=0.80,
        hot_region_bytes=2 * 1024,
    ),
    # --- Rest of the Autobench suite ---------------------------------------
    "a2time": _spec(
        "a2time",
        description="angle-to-time conversion: periodic control kernel",
        num_accesses=1000,
        working_set_bytes=6 * 1024,
        mean_compute_gap=26.0,
        gap_variability=0.4,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.15,
        hot_fraction=0.8,
        hot_region_bytes=2 * 1024,
    ),
    "aifftr": _spec(
        "aifftr",
        description="FFT: strided butterflies over a medium working set",
        num_accesses=1800,
        working_set_bytes=12 * 1024,
        mean_compute_gap=20.0,
        gap_variability=0.3,
        pattern=AddressPattern.STRIDED,
        stride_bytes=128,
        write_fraction=0.25,
        hot_fraction=0.7,
        hot_region_bytes=2 * 1024,
    ),
    "aiifft": _spec(
        "aiifft",
        description="inverse FFT: same profile as aifftr",
        num_accesses=1800,
        working_set_bytes=12 * 1024,
        mean_compute_gap=20.0,
        gap_variability=0.3,
        pattern=AddressPattern.STRIDED,
        stride_bytes=128,
        write_fraction=0.25,
        hot_fraction=0.7,
        hot_region_bytes=2 * 1024,
    ),
    "basefp": _spec(
        "basefp",
        description="basic floating point: compute heavy, light memory",
        num_accesses=900,
        working_set_bytes=4 * 1024,
        mean_compute_gap=34.0,
        gap_variability=0.3,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.12,
        hot_fraction=0.85,
        hot_region_bytes=1 * 1024,
    ),
    "bitmnp": _spec(
        "bitmnp",
        description="bit manipulation: register dominated, small tables",
        num_accesses=800,
        working_set_bytes=3 * 1024,
        mean_compute_gap=30.0,
        gap_variability=0.4,
        pattern=AddressPattern.RANDOM,
        write_fraction=0.15,
        hot_fraction=0.8,
        hot_region_bytes=1 * 1024,
    ),
    "idctrn": _spec(
        "idctrn",
        description="inverse DCT: blocked accesses with moderate reuse",
        num_accesses=1600,
        working_set_bytes=10 * 1024,
        mean_compute_gap=20.0,
        gap_variability=0.3,
        pattern=AddressPattern.STRIDED,
        stride_bytes=64,
        write_fraction=0.25,
        hot_fraction=0.72,
        hot_region_bytes=2 * 1024,
    ),
    "iirflt": _spec(
        "iirflt",
        description="IIR filter: small state, regular accesses",
        num_accesses=1100,
        working_set_bytes=6 * 1024,
        mean_compute_gap=24.0,
        gap_variability=0.3,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.2,
        hot_fraction=0.8,
        hot_region_bytes=2 * 1024,
    ),
    "pntrch": _spec(
        "pntrch",
        description="pointer chase: linked-list traversal, low locality",
        num_accesses=1300,
        working_set_bytes=10 * 1024,
        mean_compute_gap=24.0,
        gap_variability=0.6,
        pattern=AddressPattern.POINTER_CHASE,
        write_fraction=0.05,
        hot_fraction=0.7,
        hot_region_bytes=2 * 1024,
    ),
    "puwmod": _spec(
        "puwmod",
        description="pulse width modulation: tight control loop",
        num_accesses=900,
        working_set_bytes=4 * 1024,
        mean_compute_gap=28.0,
        gap_variability=0.4,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.2,
        hot_fraction=0.8,
        hot_region_bytes=1 * 1024,
    ),
    "rspeed": _spec(
        "rspeed",
        description="road speed calculation: sparse sensor table accesses",
        num_accesses=950,
        working_set_bytes=6 * 1024,
        mean_compute_gap=26.0,
        gap_variability=0.5,
        pattern=AddressPattern.RANDOM,
        write_fraction=0.15,
        hot_fraction=0.78,
        hot_region_bytes=2 * 1024,
    ),
    "ttsprk": _spec(
        "ttsprk",
        description="tooth-to-spark: lookup tables plus control logic",
        num_accesses=1100,
        working_set_bytes=8 * 1024,
        mean_compute_gap=22.0,
        gap_variability=0.5,
        pattern=AddressPattern.RANDOM,
        write_fraction=0.2,
        hot_fraction=0.75,
        hot_region_bytes=2 * 1024,
    ),
}


def available_benchmarks() -> list[str]:
    """Names of all modelled EEMBC Autobench benchmarks."""
    return sorted(EEMBC_AUTOBENCH)


def eembc_workload(name: str) -> WorkloadSpec:
    """Return the workload spec of the EEMBC benchmark called ``name``."""
    try:
        return EEMBC_AUTOBENCH[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown EEMBC benchmark {name!r}; available: {available_benchmarks()}"
        ) from exc

