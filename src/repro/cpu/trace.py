"""Workload traces consumed by the core model.

A :class:`WorkloadTrace` hands :class:`~repro.cpu.requests.TraceItem` objects
to a core one at a time.  Traces can be finite (a task that runs to
completion, like the EEMBC benchmarks) or unbounded (streaming contenders
that keep issuing requests for as long as the simulation runs).

Traces are *replayable*: :meth:`WorkloadTrace.reset` rewinds to the beginning
so the same core object can be reused across runs of an experiment.

Besides the item-at-a-time interface, every finite trace can be
*materialised* into a :class:`MaterializedTrace`: three parallel columns
``(compute_gap, address, kind)`` held as numpy arrays.  The columnar form is
what the core's cursor-based fast path and any future compiled kernel consume
— no generator resumption, no per-item ``TraceItem``/``MemoryAccess``
allocation on the hot path.  Materialisation walks the item-at-a-time
interface (or the spec's scalar draw helpers, see
:meth:`repro.workloads.base.WorkloadSpec.generate_columns`), so the encoded
sequence — and every RNG draw behind it — is bit-identical to what the lazy
trace would have produced.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..bus.transaction import AccessType
from ..sim.errors import WorkloadError
from .requests import MemoryAccess, TraceItem

__all__ = [
    "KIND_READ",
    "KIND_WRITE",
    "KIND_ATOMIC",
    "KIND_NONE",
    "ACCESS_BY_KIND",
    "KIND_BY_ACCESS",
    "WorkloadTrace",
    "ListTrace",
    "GeneratorTrace",
    "InfiniteTrace",
    "MaterializedTrace",
]

# ----------------------------------------------------------------------
# Columnar access-kind encoding
# ----------------------------------------------------------------------
#: Integer codes for the ``kind`` column of a materialised trace.
KIND_READ: int = 0
KIND_WRITE: int = 1
KIND_ATOMIC: int = 2
#: A pure-compute item (no memory access; the ``address`` column holds 0).
KIND_NONE: int = 3

#: ``kind`` code -> :class:`~repro.bus.transaction.AccessType` (``None`` for
#: pure-compute items).
ACCESS_BY_KIND: tuple[AccessType | None, ...] = (
    AccessType.READ,
    AccessType.WRITE,
    AccessType.ATOMIC,
    None,
)

#: :class:`~repro.bus.transaction.AccessType` -> ``kind`` code.
KIND_BY_ACCESS: dict[AccessType, int] = {
    AccessType.READ: KIND_READ,
    AccessType.WRITE: KIND_WRITE,
    AccessType.ATOMIC: KIND_ATOMIC,
}


class WorkloadTrace:
    """Abstract trace interface."""

    name: str = "trace"
    #: Whether the trace exposes pre-computed columns (see
    #: :class:`MaterializedTrace`); the core model checks this once at
    #: construction to select its cursor-based fast path.
    columnar: bool = False

    def next_item(self) -> TraceItem | None:
        """Return the next item, or ``None`` when the trace is exhausted."""
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind the trace to its beginning."""
        raise NotImplementedError

    @property
    def finite(self) -> bool:
        """Whether the trace ever ends."""
        return True

    def materialize(self, max_items: int | None = None) -> "MaterializedTrace":
        """Convert the trace into its columnar form by walking it.

        The remaining items are consumed through :meth:`next_item`, so the
        materialised columns encode exactly the sequence the item-at-a-time
        interface would have handed out (including any RNG draws a generator
        performs along the way).  Unbounded traces must pass ``max_items``
        to bound the walk; the result is then a finite prefix.
        """
        if not self.finite and max_items is None:
            raise WorkloadError(
                f"trace {self.name!r} is unbounded; materialize() needs max_items"
            )
        gaps: list[int] = []
        addresses: list[int] = []
        kinds: list[int] = []
        while max_items is None or len(gaps) < max_items:
            item = self.next_item()
            if item is None:
                break
            gaps.append(item.compute_cycles)
            access = item.access
            if access is None:
                addresses.append(0)
                kinds.append(KIND_NONE)
            else:
                addresses.append(access.address)
                kinds.append(KIND_BY_ACCESS[access.access])
        return MaterializedTrace(gaps, addresses, kinds, name=self.name)


class ListTrace(WorkloadTrace):
    """A finite trace backed by a list of items."""

    def __init__(self, items: Iterable[TraceItem], name: str = "list-trace") -> None:
        self.name = name
        self._items = list(items)
        self._position = 0

    def __len__(self) -> int:
        return len(self._items)

    def next_item(self) -> TraceItem | None:
        if self._position >= len(self._items):
            return None
        item = self._items[self._position]
        self._position += 1
        return item

    def reset(self) -> None:
        self._position = 0

    @property
    def remaining(self) -> int:
        return len(self._items) - self._position


class GeneratorTrace(WorkloadTrace):
    """A finite trace produced lazily by a factory of iterators.

    The factory is invoked lazily on the first :meth:`next_item` after
    construction or :meth:`reset` — never in ``__init__`` — so building a
    trace has no side effects and a ``reset()`` issued before first use does
    not generate the sequence twice.  A randomised workload generator can
    therefore produce a fresh but reproducible item stream for each run.
    """

    def __init__(self, factory: Callable[[], Iterator[TraceItem]], name: str = "generator-trace"):
        self.name = name
        self._factory = factory
        self._iterator: Iterator[TraceItem] | None = None

    def next_item(self) -> TraceItem | None:
        iterator = self._iterator
        if iterator is None:
            iterator = self._iterator = iter(self._factory())
        try:
            return next(iterator)
        except StopIteration:
            return None

    def reset(self) -> None:
        self._iterator = None


class InfiniteTrace(WorkloadTrace):
    """An unbounded trace that repeats items from a factory forever.

    Used for streaming contenders: the factory yields a (possibly finite)
    sequence that is restarted every time it runs out.  As with
    :class:`GeneratorTrace`, the factory is only invoked on first use.
    """

    def __init__(self, factory: Callable[[], Iterator[TraceItem]], name: str = "infinite-trace"):
        self.name = name
        self._factory = factory
        self._iterator: Iterator[TraceItem] | None = None
        self._exhaustion_guard = 0

    def next_item(self) -> TraceItem | None:
        if self._iterator is None:
            self._iterator = iter(self._factory())
        for _ in range(2):
            try:
                item = next(self._iterator)
                self._exhaustion_guard = 0
                return item
            except StopIteration:
                self._exhaustion_guard += 1
                if self._exhaustion_guard > 1:
                    raise WorkloadError(
                        f"infinite trace {self.name!r}: factory produced an empty sequence"
                    ) from None
                self._iterator = iter(self._factory())
        return None  # pragma: no cover - unreachable

    def reset(self) -> None:
        self._iterator = None
        self._exhaustion_guard = 0

    @property
    def finite(self) -> bool:
        return False


class MaterializedTrace(WorkloadTrace):
    """A finite trace held as three parallel ``(gap, address, kind)`` columns.

    The canonical representation is a triple of read-only numpy arrays
    (:attr:`compute_gaps`, :attr:`addresses`, :attr:`kinds`), which is what
    the vectorised analysis tools and any future compiled kernel fast path
    operate on.  For the interpreter hot path the same columns are also kept
    as plain Python lists (:meth:`columns`), so the core's cursor can index
    them without per-item numpy-scalar boxing.

    ``next_item`` remains available as a compatibility adapter: it rebuilds
    :class:`TraceItem` objects on demand, so any consumer of the lazy
    interface works unchanged on a materialised trace.

    Reset semantics: the columns are drawn once, so :meth:`reset` *replays*
    the identical sequence.  A :class:`GeneratorTrace` bound to an RNG
    instead draws a fresh sequence on reset.  Within one run (the campaign
    and scenario-runner usage, which build a fresh system per run) the two
    are bit-identical; a consumer that resets and re-runs the *same* trace
    object across runs and wants fresh per-run randomness must rebuild the
    trace (or stay on the lazy path).
    """

    columnar = True

    def __init__(
        self,
        compute_gaps: Sequence[int] | np.ndarray,
        addresses: Sequence[int] | np.ndarray,
        kinds: Sequence[int] | np.ndarray,
        name: str = "materialized-trace",
    ) -> None:
        self.name = name
        gaps = np.array(compute_gaps, dtype=np.int64)
        addrs = np.array(addresses, dtype=np.int64)
        kind_codes = np.array(kinds, dtype=np.int8)
        if not (gaps.ndim == addrs.ndim == kind_codes.ndim == 1):
            raise WorkloadError(f"trace {name!r}: columns must be one-dimensional")
        if not (gaps.size == addrs.size == kind_codes.size):
            raise WorkloadError(
                f"trace {name!r}: column lengths differ "
                f"({gaps.size}/{addrs.size}/{kind_codes.size})"
            )
        if gaps.size and int(gaps.min()) < 0:
            raise WorkloadError(f"trace {name!r}: compute gaps cannot be negative")
        if kind_codes.size and not (
            0 <= int(kind_codes.min()) and int(kind_codes.max()) <= KIND_NONE
        ):
            raise WorkloadError(f"trace {name!r}: kind codes must be in [0, {KIND_NONE}]")
        gaps.setflags(write=False)
        addrs.setflags(write=False)
        kind_codes.setflags(write=False)
        self.compute_gaps = gaps
        self.addresses = addrs
        self.kinds = kind_codes
        self._position = 0
        self._columns: tuple[list[int], list[int], list[int]] | None = None
        self._placement_columns: tuple[object, tuple[list[int], list[int]]] | None = None

    @classmethod
    def from_columns(
        cls,
        compute_gaps: list[int],
        addresses: list[int],
        kinds: list[int],
        name: str = "materialized-trace",
    ) -> "MaterializedTrace":
        """Build from already-generated Python-scalar columns.

        The lists are adopted as the interpreter-facing columns without a
        numpy round trip, which is how
        :meth:`~repro.workloads.base.WorkloadSpec.materialize_trace` avoids
        paying the array -> list conversion at every run.
        """
        trace = cls(compute_gaps, addresses, kinds, name=name)
        trace._columns = (list(compute_gaps), list(addresses), list(kinds))
        return trace

    def __len__(self) -> int:
        return int(self.compute_gaps.size)

    @property
    def remaining(self) -> int:
        return len(self) - self._position

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The ``(gaps, addresses, kinds)`` columns as plain Python lists.

        Cached after the first call; treat the returned lists as read-only.
        """
        if self._columns is None:
            self._columns = (
                self.compute_gaps.tolist(),
                self.addresses.tolist(),
                self.kinds.tolist(),
            )
        return self._columns

    def placement_columns(self, placement) -> tuple[list[int], list[int]]:
        """Per-item ``(set_index, tag)`` columns under ``placement``.

        Computed with the placement's vectorised form over the whole address
        column in one call (bit-identical per element to the scalar mapping)
        and cached against the placement object, so a run's batch interpreter
        pays for the hashing once.  Items without a memory access carry
        address 0; their entries are never probed.  Treat the lists as
        read-only.
        """
        cached = self._placement_columns
        if cached is not None and cached[0] is placement:
            return cached[1]
        set_array, tag_array = placement.index_tag_arrays(self.addresses)
        columns = (set_array.tolist(), tag_array.tolist())
        self._placement_columns = (placement, columns)
        return columns

    def next_item(self) -> TraceItem | None:
        position = self._position
        if position >= len(self):
            return None
        self._position = position + 1
        gaps, addresses, kinds = self.columns()
        kind = kinds[position]
        access = (
            None
            if kind == KIND_NONE
            else MemoryAccess(address=addresses[position], access=ACCESS_BY_KIND[kind])
        )
        return TraceItem(compute_cycles=gaps[position], access=access)

    def reset(self) -> None:
        """Rewind the cursor; the replay is the identical pre-drawn sequence
        (see the class docstring for how this differs from a lazy trace)."""
        self._position = 0

    def materialize(self, max_items: int | None = None) -> "MaterializedTrace":
        """Already columnar: return self (or a finite prefix walk)."""
        if max_items is None:
            return self
        return super().materialize(max_items)
