"""Workload descriptions.

A workload is a *recipe* for generating the memory-access trace a core will
execute.  The recipe is deterministic given a random stream, so the same
workload produces different — but reproducible — traces across runs, which is
exactly how the randomised platform of the paper behaves (the program is
fixed; the cache placements and arbitration random choices vary per run).

:class:`WorkloadSpec` captures the parameters that matter to the bus:

* how many memory accesses the task performs and how much computation
  separates them (bus demand);
* how large the touched data set is and how local the accesses are
  (hit/miss behaviour in L1 and L2, hence request durations);
* the mix of reads, writes and atomic operations (short vs long requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..bus.transaction import AccessType
from ..cpu.requests import MemoryAccess, TraceItem
from ..cpu.trace import (
    KIND_BY_ACCESS,
    KIND_NONE,
    GeneratorTrace,
    MaterializedTrace,
    WorkloadTrace,
)
from ..sim.errors import WorkloadError

__all__ = ["AddressPattern", "WorkloadSpec"]


class AddressPattern:
    """Named address-generation patterns."""

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    RANDOM = "random"
    POINTER_CHASE = "pointer_chase"
    ALL = (SEQUENTIAL, STRIDED, RANDOM, POINTER_CHASE)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parametric description of a task's memory behaviour."""

    name: str
    #: Number of memory accesses the task performs (trace length).
    num_accesses: int = 1000
    #: Bytes of data the task touches; small working sets fit in the L1.
    working_set_bytes: int = 8 * 1024
    #: Mean compute cycles between consecutive memory accesses.
    mean_compute_gap: float = 4.0
    #: Dispersion of the compute gap: 0 = constant gap, 1 = geometric-like.
    gap_variability: float = 0.5
    #: Address generation pattern (one of :class:`AddressPattern`).
    pattern: str = AddressPattern.SEQUENTIAL
    #: Stride in bytes for the strided pattern.
    stride_bytes: int = 32
    #: Fraction of accesses that are writes.
    write_fraction: float = 0.2
    #: Fraction of accesses that are atomic read-modify-writes.
    atomic_fraction: float = 0.0
    #: Fraction of accesses redirected to a small hot region (temporal reuse).
    hot_fraction: float = 0.0
    #: Size of the hot region in bytes.
    hot_region_bytes: int = 1024
    #: Base address of the task's data segment (also separates cores' data).
    base_address: int = 0x1000_0000
    #: Tail compute cycles after the last access.
    tail_compute_cycles: int = 0
    #: Free-form description used in reports.
    description: str = ""
    #: Extra metadata (e.g. the EEMBC category).
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.num_accesses <= 0:
            raise WorkloadError(f"{self.name}: num_accesses must be positive")
        if self.working_set_bytes <= 0:
            raise WorkloadError(f"{self.name}: working_set_bytes must be positive")
        if self.mean_compute_gap < 0:
            raise WorkloadError(f"{self.name}: mean_compute_gap cannot be negative")
        if not 0.0 <= self.gap_variability <= 1.0:
            raise WorkloadError(f"{self.name}: gap_variability must be in [0, 1]")
        if self.pattern not in AddressPattern.ALL:
            raise WorkloadError(f"{self.name}: unknown address pattern {self.pattern!r}")
        if self.stride_bytes <= 0:
            raise WorkloadError(f"{self.name}: stride_bytes must be positive")
        for frac_name in ("write_fraction", "atomic_fraction", "hot_fraction"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{self.name}: {frac_name} must be in [0, 1]")
        if self.write_fraction + self.atomic_fraction > 1.0:
            raise WorkloadError(
                f"{self.name}: write_fraction + atomic_fraction cannot exceed 1"
            )
        if self.hot_region_bytes <= 0:
            raise WorkloadError(f"{self.name}: hot_region_bytes must be positive")
        if self.tail_compute_cycles < 0:
            raise WorkloadError(f"{self.name}: tail_compute_cycles cannot be negative")

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def generate_items(self, rng: np.random.Generator) -> Iterator[TraceItem]:
        """Yield the trace items of one run of this workload."""
        pointer_state = 0
        for index in range(self.num_accesses):
            gap = self._draw_gap(rng)
            address, pointer_state = self._draw_address(rng, index, pointer_state)
            access_type = self._draw_access_type(rng)
            yield TraceItem(
                compute_cycles=gap,
                access=MemoryAccess(address=address, access=access_type),
            )
        if self.tail_compute_cycles:
            yield TraceItem(compute_cycles=self.tail_compute_cycles, access=None)

    def generate_columns(
        self, rng: np.random.Generator
    ) -> tuple[list[int], list[int], list[int]]:
        """Generate one run's trace as ``(gaps, addresses, kinds)`` columns.

        The draw helpers are invoked per item in exactly the order
        :meth:`generate_items` uses (gap, address, access type), so the RNG
        stream is consumed identically and the columns encode the same
        sequence the lazy trace would have produced — only without building a
        ``TraceItem``/``MemoryAccess`` pair per item.
        """
        gaps: list[int] = []
        addresses: list[int] = []
        kinds: list[int] = []
        pointer_state = 0
        for index in range(self.num_accesses):
            gaps.append(self._draw_gap(rng))
            address, pointer_state = self._draw_address(rng, index, pointer_state)
            addresses.append(address)
            kinds.append(KIND_BY_ACCESS[self._draw_access_type(rng)])
        if self.tail_compute_cycles:
            gaps.append(self.tail_compute_cycles)
            addresses.append(0)
            kinds.append(KIND_NONE)
        return gaps, addresses, kinds

    def materialize_trace(self, rng: np.random.Generator) -> MaterializedTrace:
        """Build one run's trace in columnar form (see :meth:`generate_columns`)."""
        gaps, addresses, kinds = self.generate_columns(rng)
        return MaterializedTrace.from_columns(gaps, addresses, kinds, name=self.name)

    def build_trace(
        self, rng: np.random.Generator, *, materialize: bool = False
    ) -> WorkloadTrace:
        """Build a replayable trace bound to ``rng``.

        With ``materialize=True`` the whole run is drawn up front into a
        :class:`~repro.cpu.trace.MaterializedTrace` (bit-identical items; the
        workload stream is private to the trace, so eager drawing changes no
        other component's randomness).  The default stays lazy.
        """
        if materialize:
            return self.materialize_trace(rng)
        return GeneratorTrace(lambda: self.generate_items(rng), name=self.name)

    # ------------------------------------------------------------------
    # Draw helpers
    # ------------------------------------------------------------------
    def _draw_gap(self, rng: np.random.Generator) -> int:
        if self.mean_compute_gap == 0:
            return 0
        if self.gap_variability == 0:
            return int(round(self.mean_compute_gap))
        # Blend a constant component with a geometric component so the mean
        # stays at mean_compute_gap while the variability knob controls how
        # bursty the request stream is.
        constant = (1.0 - self.gap_variability) * self.mean_compute_gap
        random_mean = self.gap_variability * self.mean_compute_gap
        random_part = rng.geometric(1.0 / (random_mean + 1.0)) - 1 if random_mean > 0 else 0
        return max(0, int(round(constant + random_part)))

    def _draw_address(
        self, rng: np.random.Generator, index: int, pointer_state: int
    ) -> tuple[int, int]:
        span = self.working_set_bytes
        if self.hot_fraction and rng.random() < self.hot_fraction:
            offset = int(rng.integers(0, max(1, self.hot_region_bytes)))
            return self.base_address + offset, pointer_state
        if self.pattern == AddressPattern.SEQUENTIAL:
            offset = (index * self.stride_bytes) % span
        elif self.pattern == AddressPattern.STRIDED:
            offset = (index * self.stride_bytes * 4) % span
        elif self.pattern == AddressPattern.RANDOM:
            offset = int(rng.integers(0, span))
        elif self.pattern == AddressPattern.POINTER_CHASE:
            # A linear congruential walk over the working set: each access
            # depends on the previous one, touching cache lines in a
            # hard-to-prefetch, low-locality order (table lookup behaviour).
            pointer_state = (pointer_state * 1103515245 + 12345 + index) % span
            offset = pointer_state
        else:  # pragma: no cover - guarded by __post_init__
            raise WorkloadError(f"unknown pattern {self.pattern!r}")
        return self.base_address + offset, pointer_state

    def _draw_access_type(self, rng: np.random.Generator) -> AccessType:
        draw = rng.random()
        if draw < self.atomic_fraction:
            return AccessType.ATOMIC
        if draw < self.atomic_fraction + self.write_fraction:
            return AccessType.WRITE
        return AccessType.READ

    def with_updates(self, **kwargs: object) -> "WorkloadSpec":
        """Return a copy of the spec with fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)
