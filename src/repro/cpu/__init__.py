"""Trace-driven in-order core model and its supporting descriptors."""

from .core_model import CoreModel, CoreState
from .counters import CoreCounters
from .trace import MaterializedTrace

__all__ = [
    "CoreModel",
    "CoreState",
    "CoreCounters",
    "MaterializedTrace",
]
