"""Random-permutations arbitration.

The MBPTA-friendly policy of Jalle et al. (DATE 2014) and the base policy the
paper integrates CBA with on the FPGA prototype.  The arbiter draws a random
permutation of all masters and walks it: each *arbitration window* grants
masters in the order of the permutation, skipping masters without a pending
request; when the permutation is exhausted a fresh one is drawn.  Compared to
a pure lottery this bounds the distance between consecutive grants to the same
master (at most ``2N - 1`` grant opportunities), which tightens probabilistic
WCET estimates, while still providing the randomisation MBPTA needs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Arbiter

__all__ = ["RandomPermutationsArbiter"]


class RandomPermutationsArbiter(Arbiter):
    """Grant masters following successive random permutations."""

    policy_name = "random_permutations"

    def __init__(self, num_masters: int, rng: np.random.Generator) -> None:
        super().__init__(num_masters)
        self._rng = rng
        self._window: list[int] = []

    def _refill_window(self) -> None:
        # tolist() converts to plain ints in C — same draw, same values,
        # measurably cheaper than a Python-level comprehension per window.
        self._window = self._rng.permutation(self.num_masters).tolist()

    def arbitrate(self, requestors: Sequence[int], cycle: int) -> int | None:
        pending = self._validate_requestors(requestors)
        if not pending:
            return None
        # Walk the current permutation; if no remaining entry is pending,
        # draw a new permutation (possibly repeatedly, though with at least
        # one pending master a fresh full permutation always contains it).
        # The first pending entry is the grant: a pending master by
        # construction, so it needs no further check.
        for _ in range(2):
            while self._window:
                candidate = self._window[0]
                if candidate in pending:
                    return candidate
                # Masters without a pending request lose their turn in this
                # permutation (the slot is not wasted; arbitration moves on).
                self._window.pop(0)
            self._refill_window()
        raise AssertionError("unreachable: fresh permutation must contain a pending master")

    def on_grant(self, master_id: int, duration: int, cycle: int) -> None:
        super().on_grant(master_id, duration, cycle)
        # The granted master consumes its position in the permutation.
        if self._window and self._window[0] == master_id:
            self._window.pop(0)
        elif master_id in self._window:
            self._window.remove(master_id)

    def reset(self) -> None:
        super().reset()
        self._window = []
