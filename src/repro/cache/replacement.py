"""Cache replacement policies.

The paper's caches use *random replacement* (again for MBPTA compliance);
LRU is provided as the conventional alternative for comparison experiments
and tests.

A policy reads the cache's flat line state: ``last_used`` holds one
last-touch cycle per line, indexed ``set_index * associativity + way``, so
the ways of one set are the slice ``last_used[base:base + assoc]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["ReplacementPolicy", "LRUReplacement", "RandomReplacement"]


class ReplacementPolicy(ABC):
    """Chooses the victim way within a set when a fill needs space."""

    #: Whether the policy ever *reads* the access history the cache keeps
    #: (``last_used`` stamps).  LRU does; random replacement never looks at
    #: it, so bulk paths (the batch interpreter's read-hit commit) may skip
    #: the per-hit stamping entirely without changing any observable
    #: behaviour.
    uses_access_history: bool = True

    @abstractmethod
    def select_victim(self, last_used: list[int], base: int, assoc: int) -> int:
        """Return the way (``0 <= way < assoc``) to evict from the set whose
        lines start at flat index ``base``.

        Called only when every way in the set is valid; invalid ways are
        filled first by the cache itself.
        """


class LRUReplacement(ReplacementPolicy):
    """Evict the least recently used way (the lowest way on a tie)."""

    def select_victim(self, last_used: list[int], base: int, assoc: int) -> int:
        stamps = last_used[base : base + assoc]
        return stamps.index(min(stamps))


class RandomReplacement(ReplacementPolicy):
    """Evict a uniformly random way (MBPTA-compliant)."""

    uses_access_history = False

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select_victim(self, last_used: list[int], base: int, assoc: int) -> int:
        return int(self._rng.integers(0, assoc))
