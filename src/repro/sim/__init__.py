"""Cycle-driven simulation kernel and shared infrastructure.

The :mod:`repro.sim` package provides the machinery every other package builds
on: the :class:`~repro.sim.kernel.Kernel` that ticks components cycle by
cycle, the :class:`~repro.sim.component.Component` base class, deterministic
named random streams, statistics accumulators, event tracing and the platform
configuration dataclasses.
"""

from .clock import Clock
from .component import Component
from .config import (
    BusTimings,
    CacheGeometry,
    CBAParameters,
    KernelMode,
    PlatformConfig,
    DEFAULT_BUS_TIMINGS,
    DEFAULT_L1_GEOMETRY,
    DEFAULT_L2_GEOMETRY,
)
from .errors import (
    AnalysisError,
    ArbitrationError,
    BudgetError,
    ConfigurationError,
    ProtocolError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from .kernel import Kernel
from .rng import RandomStreams, derive_seed
from .stats import Counter, Histogram, RunningStats, StatGroup
from .trace import NullTraceRecorder, TraceEvent, TraceRecorder

__all__ = [
    "Clock",
    "Component",
    "Kernel",
    "RandomStreams",
    "derive_seed",
    "Counter",
    "Histogram",
    "RunningStats",
    "StatGroup",
    "TraceEvent",
    "TraceRecorder",
    "NullTraceRecorder",
    "BusTimings",
    "CacheGeometry",
    "CBAParameters",
    "KernelMode",
    "PlatformConfig",
    "DEFAULT_BUS_TIMINGS",
    "DEFAULT_L1_GEOMETRY",
    "DEFAULT_L2_GEOMETRY",
    "SimulationError",
    "ConfigurationError",
    "SchedulingError",
    "ProtocolError",
    "ArbitrationError",
    "BudgetError",
    "AnalysisError",
    "WorkloadError",
]
