"""Deterministic, named random-number streams.

MBPTA requires execution-time observations that are independent and
identically distributed across runs.  On the FPGA platform of the paper this
is achieved with hardware randomisation (random placement/replacement caches
and random arbitration fed by the APRANDBANK pseudo-random number generator).
In the simulator we reproduce the same structure in software: a single
*experiment seed* is split into independent named streams, one per randomised
component (cache placement, cache replacement, arbitration, workload
generation, ...).  Two properties matter:

* determinism — the same experiment seed always reproduces the same run;
* independence — distinct (seed, run index, stream name) triples yield
  streams that do not overlap, so per-run observations are independent.

Both are provided by hashing the triple into a :class:`numpy.random.Generator`
seed via :class:`numpy.random.SeedSequence`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``base_seed`` and a label path.

    The derivation is stable across processes and Python versions (it does not
    rely on :func:`hash`), which keeps experiments reproducible.

    Parameters
    ----------
    base_seed:
        The experiment-level seed.
    labels:
        Arbitrary hashable labels (strings, integers) identifying the stream,
        e.g. ``("run", 3, "cache-placement", "core0")``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"/")
        h.update(repr(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@dataclass
class RandomStreams:
    """A factory of independent named random streams for one simulation run.

    Parameters
    ----------
    seed:
        Experiment seed shared by all runs of an experiment.
    run_index:
        Index of the run within the experiment.  Each run index yields a fresh,
        independent set of streams, which is what makes per-run execution
        times independent draws for MBPTA.
    """

    seed: int = 0
    run_index: int = 0
    _cache: dict[str, np.random.Generator] = field(default_factory=dict, repr=False)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the same generator object so
        that a component can keep drawing from its stream across cycles.
        """
        if name not in self._cache:
            child_seed = derive_seed(self.seed, self.run_index, name)
            self._cache[name] = np.random.default_rng(child_seed)
        return self._cache[name]

    def states(self) -> dict[str, dict]:
        """The bit-generator state of every stream created so far."""
        return {name: gen.bit_generator.state for name, gen in self._cache.items()}

    def rewind(self, states: dict[str, dict]) -> None:
        """Put each stream named in ``states`` (from :meth:`states`) back to
        that state.

        The generator objects stay the same, so components holding a stream
        draw the rewound sequence.
        """
        for name, state in states.items():
            self._cache[name].bit_generator.state = state

    def spawn(self, run_index: int) -> "RandomStreams":
        """Return a new :class:`RandomStreams` for another run of the same seed."""
        return RandomStreams(seed=self.seed, run_index=run_index)

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)`` from the named stream."""
        return int(self.stream(name).integers(low, high))

    def random(self, name: str) -> float:
        """Draw one float in ``[0, 1)`` from the named stream."""
        return float(self.stream(name).random())

    def permutation(self, name: str, n: int) -> list[int]:
        """Draw a random permutation of ``range(n)`` from the named stream."""
        return [int(x) for x in self.stream(name).permutation(n)]

    def choice(self, name: str, options: list[int]) -> int:
        """Draw one element uniformly from ``options`` using the named stream."""
        if not options:
            raise ValueError("cannot choose from an empty list of options")
        idx = self.integers(name, 0, len(options))
        return options[idx]
