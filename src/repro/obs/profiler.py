"""Wall-clock profiling: per-component kernel attribution, per-phase campaigns.

Two independent profilers cover the two performance mysteries on the roadmap:

* :class:`KernelProfiler` answers *which component's ticks burn the time*
  inside :meth:`~repro.sim.kernel.Kernel.run`.  Enabling it swaps the
  kernel's pre-bound hook lists for timing proxies
  (:meth:`~repro.sim.kernel.Kernel.enable_profiling`), so the disabled mode
  keeps the exact hot loop the seed shipped — zero cost when off, exactly
  like the no-op tick-hook filtering.
* :class:`CampaignProfiler` attributes campaign wall-clock across the five
  pool phases — ``spawn`` (worker process startup/shutdown), ``dispatch``
  (submitting each pickled job to the pool as one future; its event count
  is the number of jobs dispatched), ``simulate`` (waiting for results),
  ``result`` (collecting each finished job's result) and ``store``
  (artifact-store writes).

Both render to plain dictionaries (JSON artifacts) consumed by
:mod:`repro.obs.report` and the ``repro obs profile`` command.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["KernelProfiler", "CampaignProfiler"]


class _HookProxy:
    """Stand-in for a component inside one of the kernel's hook lists.

    Only the wrapped hook is ever looked up (each list calls exactly one
    method), so the proxy carries just that attribute plus the component's
    name for debugging.
    """

    __slots__ = ("fast_forward", "name", "tick")

    def __init__(self, name: str, hook: str, timed: Callable[..., object]) -> None:
        self.name = name
        setattr(self, hook, timed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_HookProxy({self.name!r})"


class KernelProfiler:
    """Accumulates wall-clock seconds per (component, hook) pair."""

    HOOKS = ("tick", "fast_forward")

    def __init__(self) -> None:
        self._seconds: dict[tuple[str, str], float] = {}
        self._calls: dict[tuple[str, str], int] = {}
        #: Total wall-clock of the instrumented ``Kernel.run`` calls.
        self.run_wall_seconds = 0.0
        self.executed_cycles = 0
        self.runs = 0

    # ------------------------------------------------------------------
    # Kernel integration (see Kernel.enable_profiling)
    # ------------------------------------------------------------------
    def proxy(self, component: Any, hook: str) -> Any:
        """Wrap one hook of ``component`` in a timing closure."""
        real = getattr(component, hook)
        key = (str(component.name), hook)
        seconds = self._seconds
        calls = self._calls
        seconds.setdefault(key, 0.0)
        calls.setdefault(key, 0)

        def timed(*args: object) -> object:
            started = perf_counter()
            try:
                return real(*args)
            finally:
                seconds[key] += perf_counter() - started
                calls[key] += 1

        return _HookProxy(key[0], hook, timed)

    def on_run(self, wall_seconds: float, executed_cycles: int) -> None:
        """One instrumented ``Kernel.run`` call finished."""
        self.run_wall_seconds += wall_seconds
        self.executed_cycles += executed_cycles
        self.runs += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        """Seconds spent inside component hooks (the rest is the scheduler)."""
        return sum(self._seconds.values())

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable profile report."""
        components: dict[str, dict[str, object]] = {}
        for (name, hook), value in sorted(self._seconds.items()):
            entry = components.setdefault(name, {})
            entry[f"{hook}_seconds"] = value
            entry[f"{hook}_calls"] = self._calls[(name, hook)]
        attributed = self.attributed_seconds
        return {
            "type": "kernel_profile",
            "runs": self.runs,
            "executed_cycles": self.executed_cycles,
            "run_wall_seconds": self.run_wall_seconds,
            "attributed_seconds": attributed,
            "scheduler_seconds": max(0.0, self.run_wall_seconds - attributed),
            "components": components,
        }

    def write(self, path: str | Path) -> Path:
        """Write the report to ``path`` as JSON and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=2), encoding="utf-8")
        return target


class CampaignProfiler:
    """Accumulates campaign wall-clock per executor phase."""

    PHASES = ("spawn", "dispatch", "simulate", "result", "store", "derive")

    def __init__(self, output_path: str | Path | None = None) -> None:
        self.seconds = {phase: 0.0 for phase in self.PHASES}
        self.events = {phase: 0 for phase in self.PHASES}
        #: Always empty; kept because external readers still look it up.
        self.counters: dict[str, int] = {}
        #: End-to-end wall-clock of the campaign dispatch loops profiled so
        #: far (measured by the orchestrator *around* the executor, so
        #: generator suspension time is included and coverage is honest).
        self.wall_seconds = 0.0
        self.jobs = 0
        self.workers = 1
        self.output_path = Path(output_path) if output_path is not None else None
        self._wall_started: float | None = None

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, phase: str, seconds: float, count: int = 1) -> None:
        """Charge ``seconds`` of wall-clock to ``phase``."""
        self.seconds[phase] += seconds
        self.events[phase] += count

    @contextmanager
    def phase(self, phase: str) -> Iterator[None]:
        """Context manager charging its body's wall-clock to ``phase``."""
        started = perf_counter()
        try:
            yield
        finally:
            self.add(phase, perf_counter() - started)

    def start(self, jobs: int, workers: int) -> None:
        """A campaign dispatch loop over ``jobs`` jobs begins."""
        self.jobs += jobs
        self.workers = workers
        self._wall_started = perf_counter()

    def finish(self) -> None:
        """The dispatch loop ended; fold its wall-clock in."""
        if self._wall_started is not None:
            self.wall_seconds += perf_counter() - self._wall_started
            self._wall_started = None
        if self.output_path is not None:
            self.write(self.output_path)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def coverage(self) -> float:
        """Fraction of the measured wall-clock attributed to a phase."""
        if not self.wall_seconds:
            return 0.0
        return min(1.0, self.attributed_seconds / self.wall_seconds)

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable profile report."""
        return {
            "type": "campaign_profile",
            "jobs": self.jobs,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "phases": {
                phase: {"seconds": self.seconds[phase], "events": self.events[phase]}
                for phase in self.PHASES
            },
        }

    def write(self, path: str | Path) -> Path:
        """Write the report to ``path`` as JSON and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=2), encoding="utf-8")
        return target
