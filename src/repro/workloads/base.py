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

import numpy as np

from ..cpu.trace import KIND_ATOMIC, KIND_NONE, KIND_READ, KIND_WRITE, MaterializedTrace
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
    def generate_columns(
        self, rng: np.random.Generator
    ) -> tuple[list[int], list[int], list[int]]:
        """Generate one run's trace as ``(gaps, addresses, kinds)`` columns.

        Each access draws its gap, then its address, then its access kind,
        so the sequence is a pure function of the RNG stream.
        """
        gaps: list[int] = []
        addresses: list[int] = []
        kinds: list[int] = []
        pointer_state = 0
        for index in range(self.num_accesses):
            gaps.append(self._draw_gap(rng))
            address, pointer_state = self._draw_address(rng, index, pointer_state)
            addresses.append(address)
            kinds.append(self._draw_kind(rng))
        if self.tail_compute_cycles:
            gaps.append(self.tail_compute_cycles)
            addresses.append(0)
            kinds.append(KIND_NONE)
        return gaps, addresses, kinds

    def build_trace(self, rng: np.random.Generator) -> MaterializedTrace:
        """Draw one run's trace from ``rng`` (see :meth:`generate_columns`).

        The workload stream is private to the trace, so drawing the whole run
        up front changes no other component's randomness.
        """
        gaps, addresses, kinds = self.generate_columns(rng)
        return MaterializedTrace(gaps, addresses, kinds, name=self.name)

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

    def _draw_kind(self, rng: np.random.Generator) -> int:
        draw = rng.random()
        if draw < self.atomic_fraction:
            return KIND_ATOMIC
        if draw < self.atomic_fraction + self.write_fraction:
            return KIND_WRITE
        return KIND_READ

    def with_updates(self, **kwargs: object) -> "WorkloadSpec":
        """Return a copy of the spec with fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)
