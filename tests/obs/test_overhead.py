"""Zero-cost-when-disabled guard for the observability layer.

Two complementary checks:

* **structural** — with no :class:`ObservabilityConfig`, the kernel keeps the
  seed's exact hot loop: real components (not timing proxies) in the
  pre-bound hook lists, a disabled :class:`NullTraceRecorder`, no profiler.
* **behavioural** — enabling the full instrumentation changes *nothing*
  about what a run computes (bit-identity), and merely passing a disabled
  config costs no measurable wall-clock versus passing none at all.

The seed-level wall-clock bound itself is enforced where it can be measured
honestly: ``benchmarks/compare_bench.py`` gates the fresh CI report against
the committed pre-observability baseline.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.profiler import _HookProxy
from repro.platform.presets import rp_config
from repro.platform.system import MulticoreSystem, SystemResult
from repro.sim.config import ObservabilityConfig
from repro.sim.trace import NullTraceRecorder


def build_system(workload, obs: ObservabilityConfig | None) -> MulticoreSystem:
    system = MulticoreSystem(rp_config(), seed=11, obs=obs)
    system.add_task(0, workload)
    for core in range(1, 4):
        system.add_greedy_contender(core)
    return system


def result_snapshot(result: SystemResult) -> dict:
    """Everything a run computes (excluding the observability side channel)."""
    return {
        "total_cycles": result.total_cycles,
        "core_counters": {
            core: counters.as_dict()
            for core, counters in result.core_counters.items()
        },
        "bus_utilization": result.bus_utilization,
        "grants_per_core": result.grants_per_core,
        "cycles_per_core": result.cycles_per_core,
        "extra": result.extra,
    }


def test_default_system_keeps_the_seed_hot_loop(tiny_workload):
    system = build_system(tiny_workload, obs=None)
    system.run(max_cycles=60_000)
    kernel = system.kernel
    assert isinstance(kernel.trace, NullTraceRecorder)
    assert not kernel.trace.enabled
    assert system.profiler is None
    for hooks in (kernel._tickers, kernel._fast_forwarders):
        assert not any(isinstance(component, _HookProxy) for component in hooks)


def test_all_off_config_is_equivalent_to_none(tiny_workload):
    system = build_system(tiny_workload, obs=ObservabilityConfig())
    system.run(max_cycles=60_000)
    assert isinstance(system.kernel.trace, NullTraceRecorder)
    assert system.profiler is None


def test_disabled_run_records_nothing(tiny_workload):
    system = build_system(tiny_workload, obs=None)
    system.run(max_cycles=60_000)
    assert system.kernel.trace.events == []


def test_results_bit_identical_with_and_without_instrumentation(tiny_workload):
    """Full instrumentation observes the run without perturbing it."""
    plain = build_system(tiny_workload, obs=None).run(max_cycles=60_000)
    instrumented_system = build_system(
        tiny_workload,
        obs=ObservabilityConfig(timeline=True, profile_kernel=True),
    )
    instrumented = instrumented_system.run(max_cycles=60_000)

    assert result_snapshot(instrumented) == result_snapshot(plain)
    assert len(instrumented_system.kernel.trace.events) > 0  # it did observe


def test_disabled_config_adds_no_measurable_wall_clock(tiny_workload):
    """Median-of-3 wall-clock with a disabled config stays within noise of
    omitting the config entirely (both take the identical code path); the
    generous factor absorbs CI scheduling jitter."""

    def median_wall(obs: ObservabilityConfig | None) -> float:
        walls = []
        for _ in range(3):
            system = build_system(tiny_workload, obs=obs)
            started = perf_counter()
            system.run(max_cycles=60_000)
            walls.append(perf_counter() - started)
        return sorted(walls)[1]

    baseline = median_wall(None)
    disabled = median_wall(ObservabilityConfig())
    assert disabled <= baseline * 1.5 + 0.05
