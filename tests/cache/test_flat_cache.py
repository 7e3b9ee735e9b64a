"""The flat-state ``SetAssociativeCache`` behaves exactly like a cache that
keeps one line object per way.

The oracle below is the per-line design the flat tag/dirty/stamp lists
replaced: a list of ``Line`` objects per set, with the victim chosen by
scanning them.  Random sequences of accesses, batch probes/commits,
flushes and resets must give the same results, statistics, line states and
replacement-stream state on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.placement import ModuloPlacement, PlacementPolicy, RandomPlacement
from repro.cache.replacement import LRUReplacement, RandomReplacement
from repro.sim.config import CacheGeometry


# ----------------------------------------------------------------------
# The per-line oracle
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Line:
    tag: int = 0
    valid: bool = False
    dirty: bool = False
    last_used: int = 0


class PerLineCache:
    """One ``Line`` per way; LRU or random replacement over the line list."""

    def __init__(
        self,
        geometry: CacheGeometry,
        placement: PlacementPolicy,
        rng: np.random.Generator | None,
        write_back: bool,
        write_allocate: bool,
    ) -> None:
        self.placement = placement
        self.rng = rng  # None selects LRU
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.sets = [
            [Line() for _ in range(geometry.associativity)] for _ in range(geometry.num_sets)
        ]
        self.counts = dict.fromkeys(
            ("read_hits", "write_hits", "read_misses", "write_misses", "writebacks", "evictions"), 0
        )

    def find_way(self, set_index: int, tag: int) -> int | None:
        for way, line in enumerate(self.sets[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    def contains(self, address: int) -> bool:
        set_index = self.placement.set_index(address)
        return self.find_way(set_index, self.placement.tag(address)) is not None

    def is_dirty(self, address: int) -> bool:
        set_index = self.placement.set_index(address)
        way = self.find_way(set_index, self.placement.tag(address))
        return way is not None and self.sets[set_index][way].dirty

    def commit_read_hit(self, set_index: int, way: int, cycle: int) -> None:
        self.sets[set_index][way].last_used = cycle
        self.counts["read_hits"] += 1

    def access(self, address: int, is_write: bool, cycle: int) -> tuple:
        set_index = self.placement.set_index(address)
        tag = self.placement.tag(address)
        ways = self.sets[set_index]
        way = self.find_way(set_index, tag)
        if way is not None:
            ways[way].last_used = cycle
            if is_write:
                if self.write_back:
                    ways[way].dirty = True
                self.counts["write_hits"] += 1
            else:
                self.counts["read_hits"] += 1
            return (True, False, None, set_index)
        self.counts["write_misses" if is_write else "read_misses"] += 1
        if is_write and not self.write_allocate:
            return (False, False, None, set_index)
        victim_way = next((w for w, line in enumerate(ways) if not line.valid), None)
        if victim_way is None:
            if self.rng is None:
                victim_way = min(range(len(ways)), key=lambda i: ways[i].last_used)
            else:
                victim_way = int(self.rng.integers(0, len(ways)))
        victim = ways[victim_way]
        writeback = victim.valid and victim.dirty and self.write_back
        evicted_tag = victim.tag if victim.valid else None
        if writeback:
            self.counts["writebacks"] += 1
        if victim.valid:
            self.counts["evictions"] += 1
        victim.tag, victim.valid, victim.last_used = tag, True, cycle
        victim.dirty = is_write and self.write_back
        return (False, writeback, evicted_tag, set_index)

    def flush(self) -> int:
        dirty = 0
        for ways in self.sets:
            for line in ways:
                dirty += line.valid and line.dirty
                line.valid = line.dirty = False
        return dirty

    def reset(self) -> None:
        self.flush()
        for ways in self.sets:
            for line in ways:
                line.last_used = 0
        self.counts = dict.fromkeys(self.counts, 0)

    def occupancy(self) -> float:
        valid = sum(line.valid for ways in self.sets for line in ways)
        return valid / sum(len(ways) for ways in self.sets)

    def line_states(self) -> list[tuple[bool, int, bool, int]]:
        return [
            (line.valid, line.tag if line.valid else -1, line.dirty, line.last_used)
            for ways in self.sets
            for line in ways
        ]


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def build_pair(config: dict, seed: int) -> tuple[SetAssociativeCache, PerLineCache]:
    geometry = CacheGeometry(
        size_bytes=32 * config["assoc"] * config["sets"],
        line_bytes=32,
        associativity=config["assoc"],
    )

    def placement() -> PlacementPolicy:
        if config["random_placement"]:
            return RandomPlacement(geometry.num_sets, 32, seed=seed)
        return ModuloPlacement(geometry.num_sets, 32)

    if config["random_replacement"]:
        replacement = RandomReplacement(np.random.default_rng(seed))
        oracle_rng = np.random.default_rng(seed)
    else:
        replacement, oracle_rng = LRUReplacement(), None
    flat = SetAssociativeCache(
        "flat",
        geometry,
        placement(),
        replacement,
        write_back=config["write_back"],
        write_allocate=config["write_allocate"],
    )
    oracle = PerLineCache(
        geometry, placement(), oracle_rng, config["write_back"], config["write_allocate"]
    )
    return flat, oracle


def assert_same_state(flat: SetAssociativeCache, oracle: PerLineCache, probes: list[int]) -> None:
    assert flat.line_states() == oracle.line_states()
    assert {name: counter.value for name, counter in flat.stats.counters.items()} == oracle.counts
    assert flat.occupancy() == oracle.occupancy()
    for address in probes:
        assert flat.contains(address) == oracle.contains(address)
        assert flat.is_dirty(address) == oracle.is_dirty(address)
    if oracle.rng is not None:
        assert flat.replacement._rng.bit_generator.state == oracle.rng.bit_generator.state


configs = st.fixed_dictionaries(
    {
        "assoc": st.sampled_from([1, 2, 4]),
        "sets": st.sampled_from([1, 2, 4, 8]),
        "random_replacement": st.booleans(),
        "random_placement": st.booleans(),
        "write_back": st.booleans(),
        "write_allocate": st.booleans(),
    }
)
# Mostly accesses over 16 blocks, so sets fill and evict; cycle steps of 0
# give LRU ties.
OPERATIONS = ("access",) * 6 + ("probe",) * 2 + ("flush", "reset")
operations = st.lists(
    st.tuples(
        st.sampled_from(OPERATIONS),
        st.integers(min_value=0, max_value=511),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=20,
    max_size=200,
)


@given(configs, st.integers(min_value=0, max_value=2**31 - 1), operations)
@settings(max_examples=300, deadline=None)
def test_flat_cache_matches_the_per_line_cache(config, seed, ops):
    flat, oracle = build_pair(config, seed)
    cycle = 0
    seen: list[int] = []
    for op, address, is_write, step in ops:
        cycle += step
        if op == "access":
            seen.append(address)
            assert flat.access(address, is_write, cycle) == oracle.access(
                address, is_write, cycle
            )
        elif op == "probe":
            # The batch interpreter's read-hit path: probe, then commit a hit.
            set_index = flat.placement.set_index(address)
            tag = flat.placement.tag(address)
            way = flat.read_hit_way(set_index, tag)
            assert way == oracle.find_way(set_index, tag)
            if way is not None:
                flat.commit_read_hit(set_index, way, cycle)
                oracle.commit_read_hit(set_index, way, cycle)
        elif op == "flush":
            assert flat.flush() == oracle.flush()
        else:
            flat.reset()
            oracle.reset()
        assert flat.line_states() == oracle.line_states()
    assert_same_state(flat, oracle, seen + [512, 4096])


def test_line_states_reports_invalid_lines_with_tag_minus_one():
    flat, _ = build_pair(
        dict(
            assoc=2,
            sets=2,
            random_replacement=False,
            random_placement=False,
            write_back=True,
            write_allocate=True,
        ),
        seed=0,
    )
    flat.access(0x40, is_write=True, cycle=7)
    assert flat.line_states() == [
        (True, 2, True, 7),
        (False, -1, False, 0),
        (False, -1, False, 0),
        (False, -1, False, 0),
    ]
