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


#: Largest number of windows drawn at once (the block doubles from 1 up to
#: this, so a short run over-draws little).
MAX_BLOCK = 64


class RandomPermutationsArbiter(Arbiter):
    """Grant masters following successive random permutations.

    Windows are drawn in blocks: one ``rng.permuted`` call over ``k`` rows
    of ``0..N-1`` yields exactly the permutations, and leaves exactly the
    generator state, of ``k`` successive ``rng.permutation(N)`` calls, at a
    fraction of the cost per window.  The draws beyond the last window a run
    uses are never observed, because only this arbiter draws from its
    stream; :meth:`reset` drops them, and the platform rewinds the stream.
    """

    policy_name = "random_permutations"

    def __init__(self, num_masters: int, rng: np.random.Generator) -> None:
        super().__init__(num_masters)
        self._rng = rng
        self._window: list[int] = []
        #: Drawn windows not yet used, the next one last.
        self._drawn: list[list[int]] = []
        self._block = 1

    def _refill_window(self) -> None:
        drawn = self._drawn
        if not drawn:
            block = self._block
            # tolist() converts to plain ints in C.
            drawn = self._rng.permuted(
                np.tile(np.arange(self.num_masters), (block, 1)), axis=1
            ).tolist()
            drawn.reverse()
            self._drawn = drawn
            if block < MAX_BLOCK:
                self._block = block * 2
        self._window = drawn.pop()

    def arbitrate(self, requestors: Sequence[int], cycle: int) -> int | None:
        pending = self._validate_requestors(requestors)
        if not pending:
            return None
        return self._arbitrate_valid(pending, cycle)

    def _arbitrate_valid(self, pending: list[int], cycle: int) -> int | None:
        # Walk the current permutation; if no remaining entry is pending,
        # draw a new permutation (possibly repeatedly, though with at least
        # one pending master a fresh full permutation always contains it).
        # The first pending entry is the grant: a pending master by
        # construction, so it needs no further check.
        for _ in range(2):
            window = self._window
            while window:
                candidate = window[0]
                if candidate in pending:
                    return candidate
                # Masters without a pending request lose their turn in this
                # permutation (the slot is not wasted; arbitration moves on).
                window.pop(0)
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
        self._drawn = []
        self._block = 1
