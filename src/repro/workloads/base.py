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

import math
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

        The draws are the ones ``rng.geometric``, ``rng.random`` and
        ``rng.integers(0, n)`` would make, taken from the same PCG64 words
        (see :class:`_RawWords` and :func:`_word_cut`): the columns, the
        stream's final state and every later draw are exactly those of
        calling the three methods per access.  Only the geometric gap stays
        a numpy call, because its ziggurat path consumes a variable number
        of words.
        """
        words = _RawWords(rng, self.name)
        raw = words.raw
        below = words.below
        gaps: list[int] = []
        addresses: list[int] = []
        kinds: list[int] = []
        append_gap = gaps.append
        append_address = addresses.append
        append_kind = kinds.append

        # Gap: a constant component blended with a geometric one, so the
        # mean stays at mean_compute_gap while the variability knob controls
        # how bursty the request stream is.
        geometric = None
        if self.mean_compute_gap == 0:
            fixed_gap = 0
        elif self.gap_variability == 0:
            fixed_gap = int(round(self.mean_compute_gap))
        else:
            constant = (1.0 - self.gap_variability) * self.mean_compute_gap
            random_mean = self.gap_variability * self.mean_compute_gap
            fixed_gap = round(constant)
            if random_mean > 0:
                geometric = rng.geometric
                p = 1.0 / (random_mean + 1.0)

        base = self.base_address
        span = self.working_set_bytes
        hot_fraction = self.hot_fraction
        hot_cut = _word_cut(hot_fraction)
        hot_bytes = self.hot_region_bytes
        pattern = self.pattern
        linear = pattern in (AddressPattern.SEQUENTIAL, AddressPattern.STRIDED)
        step = self.stride_bytes * (4 if pattern == AddressPattern.STRIDED else 1)
        random_offsets = pattern == AddressPattern.RANDOM
        atomic_cut = _word_cut(self.atomic_fraction)
        atomic_or_write_cut = _word_cut(self.atomic_fraction + self.write_fraction)
        pointer_state = 0
        for index in range(self.num_accesses):
            if geometric is None:
                append_gap(fixed_gap)
            else:
                # Both terms are non-negative and round() of a float is
                # an int, so no clamp or int() is needed.
                append_gap(round(constant + (geometric(p) - 1)))
            if hot_fraction and raw() < hot_cut:
                offset = below(hot_bytes)
            elif linear:
                offset = (index * step) % span
            elif random_offsets:
                offset = below(span)
            else:
                # A linear congruential walk over the working set: each
                # access depends on the previous one, touching cache lines
                # in a hard-to-prefetch, low-locality order (table lookup
                # behaviour).
                pointer_state = (pointer_state * 1103515245 + 12345 + index) % span
                offset = pointer_state
            append_address(base + offset)
            word = raw()
            if word < atomic_cut:
                append_kind(KIND_ATOMIC)
            elif word < atomic_or_write_cut:
                append_kind(KIND_WRITE)
            else:
                append_kind(KIND_READ)
        words.store_buffer()
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

    def with_updates(self, **kwargs: object) -> "WorkloadSpec":
        """Return a copy of the spec with fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


_UINT32_MASK = 0xFFFF_FFFF
_TWO_POW_32 = 1 << 32


def _word_cut(fraction: float) -> int:
    """The bound ``cut`` with ``word < cut`` exactly when numpy's ``random()``
    drawn from ``word`` is below ``fraction``.

    ``random()`` is ``(word >> 11) * 2**-53`` (numpy's ``next_double``), and
    both the product and ``fraction * 2**53`` are exact, so for the integer
    ``k = word >> 11``: ``k * 2**-53 < fraction`` iff
    ``k < ceil(fraction * 2**53)`` iff ``word < ceil(fraction * 2**53) << 11``.
    """
    return math.ceil(fraction * 2.0**53) << 11


class _RawWords:
    """numpy's scalar ``random()`` and ``integers(0, n)`` on raw PCG64 words.

    One ``bit_generator.random_raw()`` call (:attr:`raw`) costs well under a
    ``Generator.random()`` call and a fraction of ``Generator.integers``,
    which dispatches on dtype and bounds each time.  The arithmetic here is
    numpy's own, so the words consumed and the values drawn are identical:

    * ``random()`` is one word compared against a :func:`_word_cut`.
    * ``below(n)`` is ``integers(0, n)`` for an int64 result: no draw for
      ``n == 1``; Lemire's multiply-and-reject on 32-bit half-words up to
      ``n == 2**32``; and the numpy call itself above ``2**32`` (64-bit
      words, which leave the half-word buffer alone).
    * 32-bit half-words come from PCG64's buffer: a word yields its low half
      and keeps the high half (``has_uint32``/``uinteger``) for the next
      32-bit draw, while 64-bit draws bypass the buffer.  The buffer is read
      from ``bit_generator.state`` on entry and written back by
      :meth:`store_buffer` if it changed.
    """

    __slots__ = ("_rng", "_bit_generator", "raw", "_entry", "has_half", "half")

    def __init__(self, rng: np.random.Generator, name: str) -> None:
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise WorkloadError(
                f"{name}: traces are drawn from PCG64 streams, "
                f"got {type(bit_generator).__name__}"
            )
        self._rng = rng
        self._bit_generator = bit_generator
        self.raw = bit_generator.random_raw
        state = bit_generator.state
        self._entry = (state["has_uint32"], state["uinteger"])
        self.has_half, self.half = self._entry

    def _next_uint32(self) -> int:
        if self.has_half:
            self.has_half = 0
            return self.half
        word = self.raw()
        self.has_half = 1
        self.half = word >> 32
        return word & _UINT32_MASK

    def below(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``n >= 1``, from the same words."""
        if n == 1:
            return 0
        if n > _TWO_POW_32:
            return int(self._rng.integers(0, n))
        # For n == 2**32 this is the bare half-word, numpy's special case:
        # the low product half is 0 and so is the threshold.
        product = self._next_uint32() * n
        if product & _UINT32_MASK < n:
            threshold = (_TWO_POW_32 - n) % n
            while product & _UINT32_MASK < threshold:
                product = self._next_uint32() * n
        return product >> 32

    def store_buffer(self) -> None:
        """Write the half-word buffer back into the bit generator."""
        if (self.has_half, self.half) != self._entry:
            state = self._bit_generator.state
            state["has_uint32"] = self.has_half
            state["uinteger"] = self.half
            self._bit_generator.state = state
