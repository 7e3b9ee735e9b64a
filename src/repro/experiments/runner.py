"""Shared experiment utilities.

Every experiment repeats randomised runs (as campaign jobs) and averages the
task-under-analysis execution time; this module holds the record those
samples land in and the workload scaling the quick runs use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..analysis.metrics import MeanWithConfidence, mean_with_confidence
from ..workloads.base import WorkloadSpec

__all__ = ["RepeatedRuns", "runs_from_samples", "scale_workload"]


@dataclass(frozen=True)
class RepeatedRuns:
    """Execution-time statistics over repeated randomised runs.

    ``samples`` is a read-only ``float64`` array, matching the campaign
    aggregation layer so sample vectors flow through without conversion.
    """

    label: str
    samples: np.ndarray
    stats: MeanWithConfidence

    @property
    def mean_cycles(self) -> float:
        return self.stats.mean

    @property
    def max_cycles(self) -> float:
        return float(self.samples.max())

    @property
    def min_cycles(self) -> float:
        return float(self.samples.min())


def runs_from_samples(label: str, samples: Sequence[float] | np.ndarray) -> RepeatedRuns:
    """Build a :class:`RepeatedRuns` record from already-collected samples.

    Used by the campaign-backed experiments, whose samples come back from the
    executor/store instead of an in-process loop; an existing ``float64``
    array (the aggregation form) is adopted as a read-only view, not copied.
    """
    values = np.asarray(samples, dtype=np.float64).view()
    values.flags.writeable = False
    return RepeatedRuns(label=label, samples=values, stats=mean_with_confidence(values))


def scale_workload(workload: WorkloadSpec, access_scale: float) -> WorkloadSpec:
    """Scale a workload's length for quicker runs (benchmarks and tests).

    ``access_scale = 1.0`` keeps the paper-sized workload; smaller values
    shrink the number of accesses proportionally (minimum 50 so the
    statistics remain meaningful).
    """
    if access_scale <= 0:
        raise ValueError("access_scale must be positive")
    if access_scale >= 1.0:
        return workload
    scaled = max(50, int(workload.num_accesses * access_scale))
    return workload.with_updates(num_accesses=scaled)
