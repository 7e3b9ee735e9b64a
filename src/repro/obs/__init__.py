"""Observability: metrics registry, timeline tracing, wall-clock profiling.

Everything in this package is *opt-in* and zero-cost when disabled: the
simulator's hot paths keep the seed's pre-bound hook lists and
``trace.enabled`` guards, and instrumentation only ever swaps in when a
caller asks for it (:class:`~repro.sim.config.ObservabilityConfig`, the
campaign ``--profile``/``--metrics`` flags, or the ``repro obs`` commands).

Submodules
----------
* :mod:`repro.obs.registry` — labelled counters/gauges/samples/histograms;
* :mod:`repro.obs.exporters` — JSONL and Prometheus-text metric exports;
* :mod:`repro.obs.timeline` — Chrome trace-event / Perfetto export of
  recorded trace events;
* :mod:`repro.obs.profiler` — per-component kernel and per-phase campaign
  wall-clock attribution;
* :mod:`repro.obs.report` — text renderers for the ``repro obs`` commands;
* :mod:`repro.obs.record` — one-shot instrumented scenario recording
  (imported lazily by the CLI; it pulls in the platform layer).
"""

from .exporters import (
    to_jsonl,
    to_prometheus,
    write_jsonl,
    write_metrics,
    write_prometheus,
)
from .profiler import CampaignProfiler, KernelProfiler
from .registry import MetricsRegistry, label_key, registries_merged
from .timeline import chrome_trace, write_chrome_trace

__all__ = [
    "MetricsRegistry",
    "label_key",
    "registries_merged",
    "chrome_trace",
    "write_chrome_trace",
    "KernelProfiler",
    "CampaignProfiler",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "write_prometheus",
    "write_metrics",
]
