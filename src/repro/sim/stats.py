"""Statistics primitives used throughout the simulator.

Components accumulate counters and samples while the simulation runs;
experiments then summarise them.  Three small building blocks cover every
need in the library:

* :class:`Counter` — a named monotonically increasing event count;
* :class:`Gauge` — a named point-in-time value that can move both ways;
* :class:`RunningStats` — streaming mean / variance / min / max (Welford);
* :class:`Histogram` — integer-valued histogram with percentile queries;
* :class:`StatGroup` — a named collection of the above attached to one
  component, convertible to a plain ``dict`` for reporting.

Every primitive supports :meth:`merge`, which folds another instance of the
same kind into this one as if both had observed one combined event stream.
Merging is what lets the observability layer (:mod:`repro.obs`) aggregate
per-component and per-run statistics into campaign-level metric exports
without re-walking the underlying events.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Counter", "Gauge", "RunningStats", "Histogram", "StatGroup"]


@dataclass(slots=True)
class Counter:
    """A monotonically increasing event counter.

    :meth:`increment` sits on the hottest paths of the simulator (several
    calls per simulated cycle), so the common case is a single unconditional
    add; the (always-raising) validation of negative amounts lives in a
    slow-path helper that also rolls the add back, keeping the counter value
    untouched by a rejected call.
    """

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self.value += amount
        if amount < 0:
            self._reject_negative(amount)

    def _reject_negative(self, amount: int) -> None:
        """Slow path: undo the speculative add and raise."""
        self.value -= amount
        raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")

    def merge(self, other: "Counter") -> None:
        """Fold another counter's count into this one."""
        self.value += other.value

    def reset(self) -> None:
        self.value = 0


@dataclass(slots=True)
class Gauge:
    """A point-in-time value that can move in both directions.

    Unlike :class:`Counter`, a gauge reports the *current* level of something
    (a queue depth, a credit balance, a clock) rather than an accumulated
    event count.
    """

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def merge(self, other: "Gauge") -> None:
        """Adopt the other gauge's level (last-writer-wins semantics)."""
        self.value = other.value

    def reset(self) -> None:
        self.value = 0.0


class RunningStats:
    """Streaming mean/variance/min/max using Welford's algorithm."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: list[float] | tuple[float, ...]) -> None:
        """Record several samples."""
        for value in values:
            self.add(value)

    def merge(self, other: "RunningStats") -> None:
        """Fold another stream's statistics in (Chan's parallel Welford merge).

        The result is exactly what one stream containing both sample sets
        would have produced (up to floating-point association).
        """
        if not other.count:
            return
        if not self.count:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            self._total = other._total
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def total(self) -> float:
        return self._total

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 when fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def reset(self) -> None:
        self.__init__(self.name)

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.minimum,
            "max": self.maximum,
            "total": self.total,
        }


class Histogram:
    """Histogram over integer sample values (e.g. latencies in cycles).

    :meth:`add` sits on the bus's per-transaction path, so single samples are
    appended to a raw column and folded into the bins on the first read.  The
    column is a packed 64-bit array: 8 bytes a sample, however many samples
    a long run leaves unread.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._bins: dict[int, int] = {}
        self._count = 0
        #: Unit-weight samples not folded into the bins yet.
        self._raw = array("q")

    def add(self, value: int, weight: int = 1) -> None:
        """Record ``weight`` occurrences of ``value``."""
        if weight == 1:
            self._raw.append(int(value))
            return
        if weight <= 0:
            raise ValueError("histogram weight must be positive")
        bins = self._folded()
        value = int(value)
        bins[value] = bins.get(value, 0) + weight
        self._count += weight

    def sampler(self) -> Callable[[int], None]:
        """``add`` of one unit-weight integer sample, bound for hot paths: it
        appends to the raw column directly (the column object is never
        replaced, so the binding survives reads and resets)."""
        return self._raw.append

    def _folded(self) -> dict[int, int]:
        """The bins, with every raw sample folded in."""
        raw = self._raw
        if raw:
            bins = self._bins
            for value in raw:
                bins[value] = bins.get(value, 0) + 1
            self._count += len(raw)
            del raw[:]
        return self._bins

    @property
    def count(self) -> int:
        """Total weight recorded."""
        return self._count + len(self._raw)

    def frequency(self, value: int) -> int:
        return self._folded().get(int(value), 0)

    def items(self) -> list[tuple[int, int]]:
        """Sorted (value, count) pairs."""
        return sorted(self._folded().items())

    @property
    def mean(self) -> float:
        bins = self._folded()
        if not self._count:
            return 0.0
        return sum(v * c for v, c in bins.items()) / self._count

    @property
    def maximum(self) -> int:
        bins = self._folded()
        return max(bins) if bins else 0

    @property
    def minimum(self) -> int:
        bins = self._folded()
        return min(bins) if bins else 0

    def percentile(self, q: float) -> int:
        """Return the smallest value whose cumulative frequency reaches ``q``.

        ``q`` is a fraction in ``[0, 1]``.  With no samples the result is 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("percentile fraction must be in [0, 1]")
        items = self.items()
        if not self._count:
            return 0
        threshold = q * self._count
        cumulative = 0
        for value, count in items:
            cumulative += count
            if cumulative >= threshold:
                return value
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's frequencies into this one."""
        bins = self._folded()
        for value, count in other._folded().items():
            bins[value] = bins.get(value, 0) + count
        self._count += other._count

    def reset(self) -> None:
        self._bins.clear()
        del self._raw[:]
        self._count = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


@dataclass(slots=True)
class StatGroup:
    """A named collection of counters and sample statistics."""

    name: str
    counters: dict[str, Counter] = field(default_factory=dict)
    samples: dict[str, RunningStats] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def sample(self, name: str) -> RunningStats:
        """Return (creating if needed) the running statistics called ``name``."""
        if name not in self.samples:
            self.samples[name] = RunningStats(name)
        return self.samples[name]

    def histogram(self, name: str) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def merge(self, other: "StatGroup") -> None:
        """Fold another group's members in, creating missing ones by name."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, stats in other.samples.items():
            self.sample(name).merge(stats)
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.reset()
        for stats in self.samples.values():
            stats.reset()
        for histogram in self.histograms.values():
            histogram.reset()

    def as_dict(self) -> dict[str, object]:
        """Flatten everything into a plain dictionary for reporting."""
        out: dict[str, object] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, stats in self.samples.items():
            out[name] = stats.as_dict()
        for name, histogram in self.histograms.items():
            out[name] = histogram.as_dict()
        return out
