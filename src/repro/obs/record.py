"""One-shot instrumented recording of a contention scenario.

``repro obs record`` needs a single entry point that runs a fully
instrumented system — timeline tracing, kernel profiling, metrics — and
drops every artifact into one directory:

* ``timeline.json`` — Chrome trace-event document (open in Perfetto);
* ``kernel_profile.json`` — per-component wall-clock attribution;
* ``metrics.jsonl`` / ``metrics.prom`` — the metrics registry exports.

The recorded scenario mirrors :func:`repro.platform.scenarios.run_max_contention`
(task under analysis on core 0, greedy worst-case contenders elsewhere),
because maximum contention is exactly the pathology the timeline is for.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..experiments.runner import scale_workload
from ..platform.system import MulticoreSystem
from ..sim.config import CBAParameters, ObservabilityConfig, PlatformConfig
from ..workloads.registry import workload_by_name
from .exporters import write_jsonl, write_prometheus
from .timeline import write_chrome_trace

__all__ = ["record_contention"]


def record_contention(
    out_dir: str | Path,
    benchmark: str = "canrdr",
    cores: int = 4,
    arbitration: str = "random_permutations",
    use_cba: bool = False,
    access_scale: float = 0.25,
    seed: int = 2017,
    ring: int | None = None,
    max_cycles: int = 5_000_000,
) -> dict[str, object]:
    """Run one instrumented max-contention scenario; return a summary.

    ``ring`` bounds the timeline recorder to the most recent ``ring`` events
    (memory-bounded recording of long runs); ``None`` keeps everything.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workload = scale_workload(workload_by_name(benchmark), access_scale)
    config = PlatformConfig(
        num_cores=cores,
        arbitration=arbitration,
        use_cba=use_cba,
        cba=CBAParameters(num_cores=cores),
    )
    obs = ObservabilityConfig(timeline=True, timeline_capacity=ring, profile_kernel=True)
    with MulticoreSystem(config, seed=seed, label=f"{arbitration}-con", obs=obs) as system:
        system.add_task(0, workload)
        for core in range(1, cores):
            system.add_greedy_contender(core)
        result = system.run(max_cycles=max_cycles)
        events = system.kernel.trace.events
        profiler = system.profiler
        registry = system.collect_metrics()

    timeline_path = write_chrome_trace(
        events, out / "timeline.json", process_name=f"repro-sim {benchmark}"
    )
    profile_path = out / "kernel_profile.json"
    if profiler is not None:
        profiler.write(profile_path)
    jsonl_path = write_jsonl(registry, out / "metrics.jsonl")
    prom_path = write_prometheus(registry, out / "metrics.prom")

    summary: dict[str, object] = {
        "benchmark": benchmark,
        "cores": cores,
        "arbitration": arbitration,
        "use_cba": use_cba,
        "seed": seed,
        "total_cycles": result.total_cycles,
        "bus_utilization": result.bus_utilization,
        "tua_cycles": result.execution_cycles(0),
        "trace_events": len(events),
        "metrics_series": len(registry),
        "artifacts": {
            "timeline": str(timeline_path),
            "kernel_profile": str(profile_path),
            "metrics_jsonl": str(jsonl_path),
            "metrics_prom": str(prom_path),
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return summary
