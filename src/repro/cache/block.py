"""The per-access cache outcome value."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["AccessResult"]


class AccessResult(NamedTuple):
    """Outcome of one cache access.

    A named tuple rather than a frozen dataclass: one is built on every
    cache access, and a frozen dataclass's ``__init__`` (one
    ``object.__setattr__`` per field) costs about 2.5x a tuple's.

    Attributes
    ----------
    hit:
        Whether the access hit in the cache.
    writeback:
        Whether serving the access required evicting a dirty victim (only
        possible on misses in a write-back cache); this is what turns an L2
        miss into the 2-memory-access worst case of the paper.
    evicted_tag:
        Tag of the victim line when one was evicted, else ``None``.
    set_index:
        The set that was accessed (useful for tests and placement studies).
    """

    hit: bool
    writeback: bool = False
    evicted_tag: int | None = None
    set_index: int = 0
