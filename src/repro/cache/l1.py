"""Private L1 cache model.

Each core has a private L1 instruction cache and a private L1 data cache.
Following the paper's platform, the data cache is *write-through* (stores are
always propagated to the L2 over the bus) and both L1s use random placement
and random replacement when the platform is configured for MBPTA.

The L1 is consulted by the core model: a hit is satisfied locally with a
fixed latency, a miss (or any store, because of the write-through policy)
requires a bus transaction to the L2 subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.config import CacheGeometry
from .cache import SetAssociativeCache
from .placement import ModuloPlacement, RandomPlacement
from .replacement import LRUReplacement, RandomReplacement

__all__ = ["L1AccessOutcome", "L1Cache", "build_l1_cache"]


@dataclass(frozen=True, slots=True)
class L1AccessOutcome:
    """What the core must do after an L1 access.

    Each :class:`L1Cache` builds its three possible outcomes once and
    returns one of them per access.

    Attributes
    ----------
    hit:
        Whether the access hit in the L1.
    needs_bus:
        Whether a bus transaction is required (L1 miss, or any store for the
        write-through data cache).
    latency:
        Cycles spent in the L1 itself before any bus transaction.
    """

    hit: bool
    needs_bus: bool
    latency: int


class L1Cache:
    """Private, write-through L1 cache (data or instruction)."""

    def __init__(
        self,
        cache: SetAssociativeCache,
        hit_latency: int = 1,
        write_through: bool = True,
    ) -> None:
        if hit_latency <= 0:
            raise ValueError("L1 hit latency must be positive")
        self.cache = cache
        self.hit_latency = hit_latency
        self.write_through = write_through
        self._hit = L1AccessOutcome(hit=True, needs_bus=False, latency=hit_latency)
        self._store_hit = L1AccessOutcome(hit=True, needs_bus=True, latency=hit_latency)
        self._miss = L1AccessOutcome(hit=False, needs_bus=True, latency=hit_latency)

    def access(self, address: int, is_write: bool, cycle: int) -> L1AccessOutcome:
        """Access the L1 and report whether the bus is needed."""
        if not self.cache.access(address, is_write, cycle).hit:
            return self._miss
        if is_write and self.write_through:
            # Write-through: the store always goes to the L2 regardless of
            # hit/miss; a hit only avoids refetching the line later.
            return self._store_hit
        return self._hit

    @property
    def placement(self):
        """The underlying placement policy (deterministic within a run).

        Exposed so the batch interpreter can pre-compute set/tag columns for
        a whole trace in one vectorised call — random placement is a seeded
        hash, fixed for the run, so the mapping is known up front.
        """
        return self.cache.placement

    def batch_read_hooks(self):
        """``(probe, commit)`` pair for the core's batch interpreter.

        ``probe(set_index, tag)`` returns the resident way or ``None`` with no
        side effects; ``commit(set_index, way, cycle)`` applies exactly the
        read-hit side effects of :meth:`access`.  Only *reads that hit* are
        eligible for batching: a read hit never needs the bus regardless of
        the write policy, while stores (write-through) and misses do.
        """
        return self.cache.read_hit_way, self.cache.commit_read_hit

    @property
    def hit_stamps_droppable(self) -> bool:
        """True when read-hit replacement touches are unobservable (the
        policy never reads access history) and batch commits may count hits
        without stamping them."""
        return not self.cache.replacement.uses_access_history

    def miss_rate(self) -> float:
        return self.cache.miss_rate()

    def reset(self) -> None:
        self.cache.reset()


def build_l1_cache(
    name: str,
    geometry: CacheGeometry,
    random_caches: bool,
    rng: np.random.Generator,
    hit_latency: int = 1,
    write_through: bool = True,
) -> L1Cache:
    """Construct an L1 cache with the placement/replacement the platform asks for.

    With ``random_caches`` (the MBPTA configuration of the paper) placement is
    a seeded random hash and replacement is random; otherwise conventional
    modulo placement and LRU are used.
    """
    if random_caches:
        placement = RandomPlacement(
            geometry.num_sets, geometry.line_bytes, seed=int(rng.integers(0, 2**63))
        )
        replacement = RandomReplacement(rng)
    else:
        placement = ModuloPlacement(geometry.num_sets, geometry.line_bytes)
        replacement = LRUReplacement()
    cache = SetAssociativeCache(
        name=name,
        geometry=geometry,
        placement=placement,
        replacement=replacement,
        write_back=False,
        write_allocate=False,
    )
    return L1Cache(cache, hit_latency=hit_latency, write_through=write_through)
