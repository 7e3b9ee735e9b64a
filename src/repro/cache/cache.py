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
from .block import AccessResult, CacheLine
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
        self._sets: list[list[CacheLine]] = [
            [CacheLine() for _ in range(geometry.associativity)]
            for _ in range(geometry.num_sets)
        ]
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
    def _find_way(self, set_index: int, tag: int) -> int | None:
        for way, line in enumerate(self._sets[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    def contains(self, address: int) -> bool:
        """True when the block holding ``address`` is resident."""
        set_index = self.placement.set_index(address)
        return self._find_way(set_index, self.placement.tag(address)) is not None

    def is_dirty(self, address: int) -> bool:
        """True when the block holding ``address`` is resident and dirty."""
        set_index = self.placement.set_index(address)
        way = self._find_way(set_index, self.placement.tag(address))
        return way is not None and self._sets[set_index][way].dirty

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
        return self._find_way(set_index, tag)

    def commit_read_hit(self, set_index: int, way: int, cycle: int) -> None:
        """Apply the side effects of a read hit found via :meth:`read_hit_way`.

        Mirrors the read-hit branch of :meth:`access` exactly: the replacement
        policy sees the touch (at the cycle the hit would have completed in
        cycle-accurate stepping, so LRU state stays bit-identical) and the hit
        counter advances.
        """
        self.replacement.on_access(self._sets[set_index], way, cycle)
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
        ways = self._sets[set_index]
        way = self._find_way(set_index, tag)

        if way is not None:
            self.replacement.on_access(ways, way, cycle)
            if is_write:
                if self.write_back:
                    ways[way].dirty = True
                self._c_write_hits.value += 1
            else:
                self._c_read_hits.value += 1
            return AccessResult(hit=True, set_index=set_index)

        # Miss path.
        if is_write:
            self._c_write_misses.value += 1
        else:
            self._c_read_misses.value += 1

        allocate = self.write_allocate or not is_write
        if not allocate:
            # Write miss in a no-write-allocate cache: the write is forwarded
            # to the next level without installing the line.
            return AccessResult(hit=False, set_index=set_index)

        victim_way = self._choose_victim(set_index, cycle)
        victim = ways[victim_way]
        writeback = victim.valid and victim.dirty and self.write_back
        evicted_tag = victim.tag if victim.valid else None
        if writeback:
            self._c_writebacks.value += 1
        if victim.valid:
            self._c_evictions.value += 1
        victim.fill(tag, cycle, dirty=is_write and self.write_back)
        self.replacement.on_access(ways, victim_way, cycle)
        return AccessResult(
            hit=False,
            writeback=writeback,
            evicted_tag=evicted_tag,
            set_index=set_index,
        )

    def _choose_victim(self, set_index: int, cycle: int) -> int:
        ways = self._sets[set_index]
        for way, line in enumerate(ways):
            if not line.valid:
                return way
        return self.replacement.select_victim(ways, cycle)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Invalidate every line; returns how many dirty lines were dropped."""
        dirty = 0
        for ways in self._sets:
            for line in ways:
                if line.valid and line.dirty:
                    dirty += 1
                line.invalidate()
        return dirty

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(line.valid for ways in self._sets for line in ways)
        return valid / self.geometry.num_lines

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
        for ways in self._sets:
            for line in ways:
                line.invalidate()
                line.last_used = 0
        self.stats.reset()
