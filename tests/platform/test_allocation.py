"""Per-run set-up allocates a bounded number of objects.

Every measured run builds a fresh platform, so an object per cache line
(about 5,300 per 4-core platform with one object per line) costs time on
each run and in the garbage collector's passes.  The caches keep flat
state instead; these tests keep it that way.
"""

from __future__ import annotations

import dataclasses
import gc

from repro.platform.presets import cba_config
from repro.platform.system import MulticoreSystem
from repro.sim.config import CacheGeometry, PlatformConfig


def tracked_objects_added(config: PlatformConfig) -> int:
    """How many garbage-collector-tracked objects one platform build adds."""
    MulticoreSystem(config)  # first build: imports and memoised values
    gc.collect()
    before = len(gc.get_objects())
    system = MulticoreSystem(config)
    added = len(gc.get_objects()) - before
    del system
    return added


def test_a_platform_build_adds_few_tracked_objects():
    assert tracked_objects_added(cba_config(4)) < 500


def test_tracked_objects_do_not_grow_with_the_number_of_cache_lines():
    config = cba_config(4)
    l2 = config.l2_geometry
    bigger = dataclasses.replace(
        config,
        l2_geometry=CacheGeometry(
            size_bytes=4 * l2.size_bytes,
            line_bytes=l2.line_bytes,
            associativity=l2.associativity,
        ),
    )
    assert abs(tracked_objects_added(bigger) - tracked_objects_added(config)) <= 50
