"""The benchmark's three workloads: closed batches of paper artefacts.

Each workload is a fixed job grid built from the seed and submitted at
once.  Every simulated run builds a fresh platform, so the simulated caches
start cold in every run, as in the paper's protocol.  A workload offers:

* :meth:`~Workload.set_up` — imports, job construction and a tiny warm-up
  call that exercises every code path once (and starts a pool where the
  workload uses one);
* :meth:`~Workload.run_pass` — one execution of the whole grid, the way a
  user would run it;
* :meth:`~Workload.replay` — the same jobs run serially in-process, which
  is what the layer tracer wraps;
* :meth:`~Workload.profiled_pass` — the grid through ``CampaignProfiler``
  (campaign-based workloads only);
* :meth:`~Workload.checks` — output checks on a pass result.

A :class:`PassResult` carries a ``sim_digest`` over every simulated output
except the ``observability`` fields, so two commits (and a traced and an
untraced run) can be compared bit for bit.  It keeps the observability
fields apart: they show which execution path ran, so a traced and an
untraced run of the same mode must agree on them too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.campaign.campaign import Campaign
from repro.campaign.executor import ParallelExecutor, SerialExecutor
from repro.campaign.jobs import JobResult
from repro.campaign.store import ArtifactStore
from repro.experiments.figure1 import FIGURE1_CONFIGURATIONS, Figure1Result, run_figure1
from repro.experiments.mbpta_experiment import MBPTAExperimentResult, run_mbpta_experiment
from repro.experiments.runner import scale_workload
from repro.obs.profiler import CampaignProfiler
from repro.platform.presets import rp_config
from repro.platform.scenarios import run_multiprogram
from repro.sim.config import MemoryConfig
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload

#: Per-run side-metrics copied from ``SystemResult.observability``; they may
#: differ between bit-identical execution modes, so the digest leaves them out.
OBSERVABILITY_METRICS = frozenset({"batched_items", "batch_stretches"})

#: The paper's Figure 1 reference points.
PAPER_RP_CON = 3.34
PAPER_CBA_CON = 2.34
PAPER_CBA_ISO_PERCENT = 3.0

#: Per-test significance the MBPTA output check applies.  The battery's own
#: verdicts use alpha = 0.05, which rejects about one seed in twenty on
#: correct i.i.d. data (observed: seed 14 of seeds 1-16, Ljung-Box p = 0.035);
#: a benchmark run on arbitrary seeds must not fail on sampling noise, while
#: a broken randomisation drives these p-values far below 1e-4.
MBPTA_CHECK_ALPHA = 1e-4


@dataclass(frozen=True)
class Size:
    """Grid dimensions; ``paper`` is the benchmark, ``smoke`` its self-test."""

    fig1_scale: float
    mbpta_runs: int
    mbpta_operation_runs: int
    mbpta_scale: float
    consolidate_runs: int
    consolidate_scale: float


SIZES = {
    "paper": Size(
        fig1_scale=1.0,
        mbpta_runs=50,
        mbpta_operation_runs=10,
        mbpta_scale=1.0,
        consolidate_runs=3,
        consolidate_scale=0.5,
    ),
    "smoke": Size(
        fig1_scale=0.3,
        mbpta_runs=20,
        mbpta_operation_runs=2,
        mbpta_scale=0.05,
        consolidate_runs=1,
        consolidate_scale=0.05,
    ),
}

#: Warm-up calls run this fraction of a workload (at least 50 accesses).
WARM_UP_SCALE = 0.02


@dataclass
class PassResult:
    """One execution of a workload's grid."""

    wall_s: float
    sim_cycles: int
    #: Host milliseconds per simulated run, keyed by a stable run name.
    run_ms: dict[str, float]
    runs: int
    truncated: int
    #: Every simulated output, observability fields excluded.
    outputs: object
    #: The observability fields, which depend on the execution path taken.
    observability: object
    #: The experiment's own result object (for the output checks).
    result: Any = None
    profiler: CampaignProfiler | None = None

    @functools.cached_property
    def digest(self) -> str:
        """The ``sim_digest``: computed on first use, outside any timed block."""
        return digest_of(self.outputs)


class RecordingCampaign(Campaign):
    """A :class:`Campaign` that keeps the job results of its last run."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.results: dict[str, JobResult] = {}

    def run(self, jobs):  # type: ignore[no-untyped-def]
        self.results = super().run(jobs)
        return self.results


def digest_of(payload: object) -> str:
    """Stable hex digest of a JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def job_records(results: dict[str, JobResult]) -> list[object]:
    """Every simulated output of a campaign, observability fields excluded."""
    records: list[object] = []
    for job_id in sorted(results):
        result = results[job_id]
        metrics = [
            {k: v for k, v in m.items() if k not in OBSERVABILITY_METRICS}
            for m in result.metrics
        ]
        records.append(
            [job_id, result.label, list(result.samples), result.truncated_runs, metrics]
        )
    return records


def job_observability(results: dict[str, JobResult]) -> list[object]:
    """The observability fields of every run of a campaign."""
    return [
        [job_id, [{k: m[k] for k in sorted(OBSERVABILITY_METRICS) if k in m}
                  for m in results[job_id].metrics]]
        for job_id in sorted(results)
    ]


def campaign_pass(
    results: dict[str, JobResult], wall_s: float, outputs: object, result: Any
) -> PassResult:
    """Fold a campaign's job results into a :class:`PassResult`."""
    runs = sum(r.num_runs for r in results.values())
    return PassResult(
        wall_s=wall_s,
        sim_cycles=int(
            sum(m.get("total_cycles", 0.0) for r in results.values() for m in r.metrics)
        ),
        run_ms={
            f"{job_id}/{index}": 1000.0 * r.elapsed_seconds / r.num_runs
            for job_id, r in results.items()
            for index in range(r.num_runs)
        },
        runs=runs,
        truncated=sum(r.truncated_runs for r in results.values()),
        outputs=outputs,
        observability=job_observability(results),
        result=result,
    )


class Workload:
    """Common interface of the three workloads."""

    name = ""
    #: Pool processes a pass starts (0: the pass runs in this process).
    workers = 0

    def __init__(self, seed: int, size: Size, out_dir: Path) -> None:
        self.seed = seed
        self.size = size
        self.out_dir = out_dir

    def set_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def replay(self) -> PassResult:
        return self.run_pass()

    def profiled_pass(self) -> PassResult | None:
        return None

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def fidelity(self, result: PassResult) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# fig1-paper
# ----------------------------------------------------------------------
class Figure1Paper(Workload):
    """The Figure 1 grid: 4 EEMBC benchmarks x {RP, CBA, H-CBA} x {ISO, CON}."""

    name = "fig1-paper"

    def set_up(self) -> None:
        run_figure1(num_runs=1, seed=self.seed, access_scale=WARM_UP_SCALE)

    def _execute(self, campaign: RecordingCampaign) -> PassResult:
        started = perf_counter()
        result = run_figure1(
            num_runs=1, seed=self.seed, access_scale=self.size.fig1_scale, campaign=campaign
        )
        wall = perf_counter() - started
        return campaign_pass(
            campaign.results, wall, [job_records(campaign.results), result.slowdowns], result
        )

    def run_pass(self) -> PassResult:
        return self._execute(RecordingCampaign())

    def profiled_pass(self) -> PassResult:
        profiler = CampaignProfiler()
        outcome = self._execute(RecordingCampaign(SerialExecutor(), profiler=profiler))
        outcome.profiler = profiler
        return outcome

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        return figure1_checks(result.result)

    def fidelity(self, result: PassResult) -> dict[str, float]:
        figure: Figure1Result = result.result
        return {
            "paper_err.rp_con": abs(
                figure.worst_contention_slowdown("RP-CON") / PAPER_RP_CON - 1.0
            ),
            "paper_err.cba_con": abs(
                figure.worst_contention_slowdown("CBA-CON") / PAPER_CBA_CON - 1.0
            ),
            "paper_err.cba_iso_pp": abs(
                100.0 * figure.isolation_overhead("CBA-ISO") - PAPER_CBA_ISO_PERCENT
            ),
        }


def figure1_checks(figure: Figure1Result) -> list[tuple[str, bool]]:
    """The shape assertions of ``benchmarks/test_bench_figure1.py``."""
    checks: list[tuple[str, bool]] = []
    for bench, per_config in figure.slowdowns.items():
        checks += [
            (f"{bench}: all six configurations", set(per_config) == set(FIGURE1_CONFIGURATIONS)),
            (f"{bench}: RP-CON > RP-ISO", per_config["RP-CON"] > per_config["RP-ISO"]),
            (f"{bench}: CBA-CON < RP-CON", per_config["CBA-CON"] < per_config["RP-CON"]),
            (
                f"{bench}: H-CBA-CON <= CBA-CON + 0.05",
                per_config["H-CBA-CON"] <= per_config["CBA-CON"] + 0.05,
            ),
            (
                f"{bench}: H-CBA-ISO <= CBA-ISO + 0.02",
                per_config["H-CBA-ISO"] <= per_config["CBA-ISO"] + 0.02,
            ),
        ]
    checks += [
        (
            "matrix has the worst RP-CON slowdown",
            figure.slowdowns["matrix"]["RP-CON"] == figure.worst_contention_slowdown("RP-CON"),
        ),
        ("worst CBA-CON slowdown < 4.0", figure.worst_contention_slowdown("CBA-CON") < 4.0),
        ("CBA isolation overhead < 0.25", figure.isolation_overhead("CBA-ISO") < 0.25),
        ("H-CBA isolation overhead < 0.08", figure.isolation_overhead("H-CBA-ISO") < 0.08),
    ]
    return checks


# ----------------------------------------------------------------------
# mbpta-pool
# ----------------------------------------------------------------------
class MbptaPool(Workload):
    """MBPTA of canrdr on CBA through the process pool and a fresh store."""

    name = "mbpta-pool"

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1)

    def set_up(self) -> None:
        self._pooled(warm_up=True)

    def _execute(self, campaign: RecordingCampaign, warm_up: bool = False) -> PassResult:
        size = self.size
        started = perf_counter()
        result = run_mbpta_experiment(
            benchmark="canrdr",
            configuration="CBA",
            num_runs=20 if warm_up else size.mbpta_runs,
            operation_runs=2 if warm_up else size.mbpta_operation_runs,
            seed=self.seed,
            access_scale=WARM_UP_SCALE if warm_up else size.mbpta_scale,
            campaign=campaign,
        )
        # The report `repro mbpta` prints: the pWCET step a user runs.
        report = result.summary(), result.mbpta.pwcet.points()
        wall = perf_counter() - started
        outputs = [job_records(campaign.results), mbpta_outputs(result, *report)]
        return campaign_pass(campaign.results, wall, outputs, result)

    def _pooled(
        self, profiler: CampaignProfiler | None = None, warm_up: bool = False
    ) -> PassResult:
        """The experiment through the pool, with a fresh artifact store."""
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            campaign = RecordingCampaign(
                ParallelExecutor(self.workers),
                store=ArtifactStore(Path(tmp) / "store.jsonl"),
                profiler=profiler,
            )
            outcome = self._execute(campaign, warm_up)
        outcome.profiler = profiler
        return outcome

    def run_pass(self) -> PassResult:
        return self._pooled()

    def replay(self) -> PassResult:
        return self._execute(RecordingCampaign())

    def profiled_pass(self) -> PassResult:
        return self._pooled(CampaignProfiler())

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        experiment: MBPTAExperimentResult = result.result
        mbpta = experiment.mbpta
        checks = [
            (f"i.i.d. {test.name} p > {MBPTA_CHECK_ALPHA:g}", test.p_value > MBPTA_CHECK_ALPHA)
            for test in mbpta.iid_tests
        ]
        checks += [
            (
                f"Gumbel goodness of fit p > {MBPTA_CHECK_ALPHA:g}",
                mbpta.evt.gof.p_value > MBPTA_CHECK_ALPHA,
            ),
            (
                f"fitted tail at {experiment.reference_exceedance:g} > observed analysis maximum",
                mbpta.evt.fit.value_at_exceedance(experiment.reference_exceedance)
                > mbpta.observed_max,
            ),
            ("pWCET bound dominates every operation sample",
             bool(len(experiment.operation_samples)) and experiment.bound_dominates_operation),
        ]
        return checks


def mbpta_outputs(
    result: MBPTAExperimentResult,
    summary: dict[str, object],
    points: list[tuple[float, float]],
) -> dict[str, object]:
    """The analysis outputs that enter the digest, from the printed report."""
    mbpta = result.mbpta
    return {
        "iid": [[t.name, t.statistic, t.p_value] for t in mbpta.iid_tests],
        "evt": [mbpta.evt.fit.location, mbpta.evt.fit.scale, mbpta.evt.gof.p_value],
        "summary": summary,
        "pwcet": [list(point) for point in points],
        "operation": [float(x) for x in result.operation_samples],
    }


# ----------------------------------------------------------------------
# consolidate-16
# ----------------------------------------------------------------------
class Consolidate16(Workload):
    """16 cores, each Figure 1 benchmark on four; RP, banked DRAM, FR-FCFS."""

    name = "consolidate-16"
    cores = 16

    def _inputs(self, scale: float):  # type: ignore[no-untyped-def]
        config = rp_config(self.cores).with_updates(
            memory=MemoryConfig(model="banked", controller_policy="frfcfs")
        )
        tasks = {
            core: scale_workload(
                eembc_workload(FIGURE1_BENCHMARKS[core % len(FIGURE1_BENCHMARKS)]), scale
            )
            for core in range(self.cores)
        }
        return config, tasks

    def set_up(self) -> None:
        config, tasks = self._inputs(WARM_UP_SCALE)
        run_multiprogram(tasks, config, seed=self.seed, allow_truncation=True)

    def run_pass(self) -> PassResult:
        config, tasks = self._inputs(self.size.consolidate_scale)
        scenarios = []
        run_ms: dict[str, float] = {}
        started = perf_counter()
        for run_index in range(self.size.consolidate_runs):
            run_started = perf_counter()
            scenarios.append(
                run_multiprogram(
                    tasks, config, seed=self.seed, run_index=run_index, allow_truncation=True
                )
            )
            run_ms[str(run_index)] = 1000.0 * (perf_counter() - run_started)
        wall = perf_counter() - started
        outputs = []
        observability = []
        for scenario in scenarios:
            record = asdict(scenario.system)
            observability.append(record.pop("observability"))
            outputs.append([scenario.tua_cycles, record])
        return PassResult(
            wall_s=wall,
            sim_cycles=sum(s.system.total_cycles for s in scenarios),
            run_ms=run_ms,
            runs=len(scenarios),
            truncated=sum(int(s.truncated) for s in scenarios),
            outputs=outputs,
            observability=observability,
            result=[s.system for s in scenarios],
        )

    def checks(self, result: PassResult) -> list[tuple[str, bool]]:
        checks: list[tuple[str, bool]] = []
        for index, system in enumerate(result.result):
            memory = system.extra["memory"]
            dram_accesses = memory["reads"] + memory["writes"]
            row_outcomes = memory["row_hits"] + memory["row_misses"] + memory["row_conflicts"]
            cycles = [system.execution_cycles(core) for core in range(self.cores)]
            checks += [
                (f"run {index}: every task finished",
                 all(0 < c <= system.total_cycles for c in cycles)),
                (f"run {index}: bandwidth shares sum to 1",
                 abs(sum(system.bandwidth_shares) - 1.0) < 1e-9),
                (f"run {index}: banked DRAM with FR-FCFS served the misses",
                 memory["model"] == "banked" and memory["controller_policy"] == "frfcfs"
                 and dram_accesses > 0),
                (f"run {index}: each DRAM access is one row hit, miss or conflict",
                 row_outcomes == dram_accesses),
            ]
        return checks


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Figure1Paper, MbptaPool, Consolidate16)
}
