"""Generic set-associative cache model.

The cache is a *functional* model: it tracks which blocks are resident, their
dirty state and the hit/miss/writeback outcome of each access.  Timing is the
responsibility of the caller (the core model for L1 latencies, the L2 slave
for bus hold times), which keeps the timing model in one place and the cache
reusable for both levels.
"""

from __future__ import annotations

from ..sim.config import CacheGeometry
from ..sim.errors import ConfigurationError
from ..sim.stats import StatGroup
from .block import AccessResult
from .placement import PlacementPolicy
from .replacement import ReplacementPolicy

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """A set-associative cache with pluggable placement and replacement."""

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        placement: PlacementPolicy,
        replacement: ReplacementPolicy,
        write_back: bool,
        write_allocate: bool | None = None,
    ) -> None:
        """Create the cache.

        Parameters
        ----------
        write_back:
            True for a write-back cache (dirty bits, writebacks on eviction —
            the paper's L2), False for write-through (the paper's L1 data
            cache, where every store is propagated and lines are never dirty).
        write_allocate:
            Whether a write miss allocates the line.  Defaults to the common
            pairing: write-allocate for write-back caches, no-write-allocate
            for write-through caches.
        """
        if placement.num_sets != geometry.num_sets:
            raise ConfigurationError(
                f"placement policy built for {placement.num_sets} sets, "
                f"geometry has {geometry.num_sets}"
            )
        self.name = name
        self.geometry = geometry
        self.placement = placement
        self.replacement = replacement
        self.write_back = write_back
        self.write_allocate = write_back if write_allocate is None else write_allocate
        # Flat line state, indexed ``set_index * associativity + way`` so the
        # ways of one set are one slice: the resident block's tag (-1 marks an
        # invalid line; tags are block addresses, never negative), its dirty
        # bit and its last-touch cycle (read by LRU replacement).  Three flat
        # containers instead of one object per line keep construction and
        # the garbage collector's work independent of the number of lines.
        self._assoc = geometry.associativity
        num_lines = geometry.num_lines
        self._tags = [-1] * num_lines
        self._dirty = bytearray(num_lines)
        self._last_used = [0] * num_lines
        self.stats = StatGroup(name=f"{name}.stats")
        # Every access increments one of these; bind them once instead of
        # doing a string-keyed lookup per access.
        self._c_read_hits = self.stats.counter("read_hits")
        self._c_write_hits = self.stats.counter("write_hits")
        self._c_read_misses = self.stats.counter("read_misses")
        self._c_write_misses = self.stats.counter("write_misses")
        self._c_writebacks = self.stats.counter("writebacks")
        self._c_evictions = self.stats.counter("evictions")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def _find_line(self, address: int) -> int | None:
        """Flat index of the line holding ``address``, or ``None``."""
        base = self.placement.set_index(address) * self._assoc
        ways = self._tags[base : base + self._assoc]
        tag = self.placement.tag(address)
        return base + ways.index(tag) if tag in ways else None

    def contains(self, address: int) -> bool:
        """True when the block holding ``address`` is resident."""
        return self._find_line(address) is not None

    def is_dirty(self, address: int) -> bool:
        """True when the block holding ``address`` is resident and dirty."""
        index = self._find_line(address)
        return index is not None and self._dirty[index] == 1

    def line_states(self) -> list[tuple[bool, int, bool, int]]:
        """Snapshot of every line as ``(valid, tag, dirty, last_used)``.

        Lines are listed set by set, way by way; an invalid line reports
        tag -1.  Read-only: the list is built on each call.
        """
        return [
            (tag != -1, tag, dirty == 1, last_used)
            for tag, dirty, last_used in zip(self._tags, self._dirty, self._last_used)
        ]

    # ------------------------------------------------------------------
    # Batch read-hit fast path
    # ------------------------------------------------------------------
    # The batch interpreter pre-computes (set index, tag) for a whole trace
    # via the placement's vectorised form and then needs the two halves of the
    # read-hit path separately: a pure residency probe to decide whether the
    # stretch continues, and a commit applying exactly the side effects
    # access() performs on a read hit.  A read hit never changes residency,
    # so consecutive probes against the same cache state stay valid for the
    # whole stretch.

    def read_hit_way(self, set_index: int, tag: int) -> int | None:
        """Residency probe: the way holding ``(set_index, tag)``, or ``None``.

        No statistics or replacement state are touched — a probe that comes
        back ``None`` leaves the miss to be performed (and counted) by the
        ordinary :meth:`access` path at its cycle-accurate time.
        """
        base = set_index * self._assoc
        ways = self._tags[base : base + self._assoc]
        return ways.index(tag) if tag in ways else None

    def commit_read_hit(self, set_index: int, way: int, cycle: int) -> None:
        """Apply the side effects of a read hit found via :meth:`read_hit_way`.

        Mirrors the read-hit branch of :meth:`access` exactly: the line's
        last-touch stamp is the cycle the hit would have completed in
        cycle-accurate stepping (so LRU state stays bit-identical) and the
        hit counter advances.
        """
        self._last_used[set_index * self._assoc + way] = cycle
        self._c_read_hits.value += 1

    def count_read_hits(self, count: int) -> None:
        """Advance the read-hit statistic for ``count`` pre-probed hits whose
        replacement touches are droppable (``uses_access_history`` is False —
        the caller's responsibility to check)."""
        self._c_read_hits.value += count

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool, cycle: int) -> AccessResult:
        """Perform one access and update the cache state.

        Returns an :class:`AccessResult` describing hit/miss and whether a
        dirty victim had to be written back.
        """
        set_index = self.placement.set_index(address)
        tag = self.placement.tag(address)
        assoc = self._assoc
        base = set_index * assoc
        tags = self._tags
        ways = tags[base : base + assoc]

        if tag in ways:
            index = base + ways.index(tag)
            self._last_used[index] = cycle
            if is_write:
                if self.write_back:
                    self._dirty[index] = 1
                self._c_write_hits.value += 1
            else:
                self._c_read_hits.value += 1
            return AccessResult(True, False, None, set_index)

        # Miss path.
        if is_write:
            self._c_write_misses.value += 1
            if not self.write_allocate:
                # Write miss in a no-write-allocate cache: the write is
                # forwarded to the next level without installing the line.
                return AccessResult(False, False, None, set_index)
        else:
            self._c_read_misses.value += 1

        # Fill the lowest invalid way first; evict only from a full set.
        if -1 in ways:
            index = base + ways.index(-1)
            writeback = False
            evicted_tag = None
        else:
            index = base + self.replacement.select_victim(self._last_used, base, assoc)
            # Lines only turn dirty in a write-back cache.
            writeback = self._dirty[index] == 1
            evicted_tag = tags[index]
            if writeback:
                self._c_writebacks.value += 1
            self._c_evictions.value += 1
        tags[index] = tag
        self._dirty[index] = is_write and self.write_back
        self._last_used[index] = cycle
        return AccessResult(False, writeback, evicted_tag, set_index)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Invalidate every line; returns how many dirty lines were dropped."""
        dropped = self._dirty.count(1)
        num_lines = len(self._tags)
        self._tags[:] = [-1] * num_lines
        self._dirty[:] = bytes(num_lines)
        return dropped

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        num_lines = len(self._tags)
        return (num_lines - self._tags.count(-1)) / num_lines

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._c_read_hits.value + self._c_write_hits.value

    @property
    def misses(self) -> int:
        return self._c_read_misses.value + self._c_write_misses.value

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        self.flush()
        self._last_used[:] = [0] * len(self._last_used)
        self.stats.reset()
