"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent for minutes at a time, and a slow spell can cover a whole run.
:class:`Calibration` times a fixed pure-Python loop between the workload's
passes.  The loop is the benchmark's own code, so a change to the simulator
never moves it; it does the kinds of work the simulator does (interpreter
arithmetic, method calls, dictionary lookups, pointer chasing over a heap of
a few megabytes), so a slow spell slows it roughly as much.

:attr:`Calibration.factor` turns a host time into *reference seconds*: the
time the same work would take on a host where the loop's median sample takes
:data:`REFERENCE_SAMPLE_S`.  Both the workload and the loop are summarised by
medians, so a burst that hits a few samples of either moves neither.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: Median time of one calibration sample on the 2-vCPU host the benchmark was
#: built on.  Only fixes the scale of the reported times; any constant would
#: compare two commits the same way.
REFERENCE_SAMPLE_S = 0.040

#: Loop iterations per sample.
STEPS = 30_000
#: Heap the loop walks: a permutation cycle of list indices and a ring of
#: objects, each holding a small dictionary.
CYCLE_LENGTH = 1 << 17
RING_LENGTH = 1 << 13


class _Node:
    __slots__ = ("link", "weights")

    def __init__(self, weights: dict[int, int]) -> None:
        self.link: _Node = self
        self.weights = weights

    def weight(self, key: int) -> int:
        return self.weights.get(key, 0)


class Calibration:
    """A fixed loop, timed between passes; its median gives the host speed."""

    def __init__(self) -> None:
        rng = random.Random(20170101)
        order = list(range(CYCLE_LENGTH))
        rng.shuffle(order)
        self._next = [0] * CYCLE_LENGTH
        for here, there in zip(order, order[1:] + order[:1], strict=True):
            self._next[here] = there
        ring = [_Node({k: rng.randrange(1 << 16) for k in range(8)}) for _ in range(RING_LENGTH)]
        rng.shuffle(ring)
        for here, there in zip(ring, ring[1:] + ring[:1], strict=True):
            here.link = there
        self._head = ring[0]
        self.samples: list[float] = []

    def _loop(self) -> int:
        following = self._next
        node = self._head
        index = 0
        acc = 0
        for step in range(STEPS):
            index = following[index]
            acc = (acc * 31 + index + node.weight(step & 7)) & 0xFFFF
            node = node.link
        return acc

    def sample(self, count: int) -> None:
        """Time ``count`` runs of the loop."""
        for _ in range(count):
            started = perf_counter()
            self._loop()
            self.samples.append(perf_counter() - started)

    @property
    def factor(self) -> float:
        """Multiply a host time by this to express it in reference seconds."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)
