"""Shared plumbing for the benchmark harnesses and the CI bench gate.

``bench_kernel.py`` and ``bench_campaign.py`` used to duplicate the src/
path bootstrap, the timing loop, the report header and the report
I/O; ``compare_bench.py`` (the CI regression gate) needs the same report
schema knowledge.  All of it lives here once.

None of these helpers import ``repro`` — call :func:`bootstrap_src` first,
then import the simulator from the harness itself.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Scenario-name prefix of the tracked campaign wall-clock: the
#: low-contention runs are the regression-gated ones (the batch interpreter
#: must keep winning there; the memory-latency-bound contention runs are
#: expected to sit near 1x).
TRACKED_PREFIX = "low_contention/"

#: Regression gate: a gated mode may not be more than this factor slower
#: than its same-process baseline on any tracked scenario, and a tracked
#: scenario's normalised throughput may not fall below baseline/factor.
REGRESSION_FACTOR = 1.2


def bootstrap_src() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (idempotent)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class BenchScenario:
    """One benchmarked configuration of the paper's campaign grid."""

    name: str
    runner: Callable[..., Any]
    config: Any
    workload: Any

    @property
    def tracked(self) -> bool:
        """Whether this scenario is part of the regression gate."""
        return self.name.startswith(TRACKED_PREFIX)


def report_header(benchmark: str) -> dict[str, Any]:
    """The fields every report starts with (environment provenance)."""
    return {
        "benchmark": benchmark,
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def time_interleaved(
    fns: dict[str, Callable[[], Any]], rounds: int
) -> dict[str, tuple[float, Any]]:
    """Median wall time of each of ``fns`` over ``rounds`` interleaved
    rounds (every function once per round, in order), plus its last result.

    Interleaving spreads a slow spell of the host over every function
    instead of one, and the median ignores a spell that hits one round.
    """
    times: dict[str, list[float]] = {name: [] for name in fns}
    results: dict[str, Any] = {}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            results[name] = fn()
            times[name].append(time.perf_counter() - start)
    return {name: (statistics.median(times[name]), results[name]) for name in fns}


def write_report(path: Path, report: dict[str, Any]) -> None:
    """Write ``report`` as pretty JSON and announce it."""
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {path}")


def load_report(path: Path) -> dict[str, Any]:
    """Load a benchmark report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def tracked_scenarios(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The gated subset of a kernel report's ``scenarios`` section."""
    return {
        name: entry
        for name, entry in report.get("scenarios", {}).items()
        if name.startswith(TRACKED_PREFIX)
    }
