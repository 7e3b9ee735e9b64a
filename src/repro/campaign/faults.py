"""Deterministic, seed-derived fault injection for campaign chaos testing.

A :class:`FaultPlan` decides — as a pure function of ``(seed, job_id,
attempt)`` — whether a given job attempt should crash its worker process,
fail with an injected exception, or hang.  It can also corrupt artifact-store
lines at planned append positions.  The plan is a small frozen dataclass, so
it pickles into worker processes alongside the job it targets.

Production code paths never branch on faults: executors submit the plain
:func:`~repro.campaign.jobs.run_job` unless a plan is explicitly configured,
in which case they submit :func:`run_job_with_faults` (a wrapper *around*
``run_job``); store corruption is injected by :class:`ChaosStore`, a subclass
used only by the chaos harness.  Disabling chaos therefore restores the exact
pre-resilience dispatch.

:func:`run_chaos` is the end-to-end harness behind ``repro campaign chaos``:
it runs a scenario grid twice — once clean and serial, once parallel under an
injected fault plan — and checks that the faulty campaign completes,
quarantines the corrupted store lines, and produces bit-identical samples.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..sim.errors import ConfigurationError, SimulationError
from .jobs import CampaignJob, JobResult, run_job
from .resilience import RetryPolicy, derived_unit
from .store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .campaign import CampaignReport

__all__ = [
    "ChaosReport",
    "ChaosStore",
    "FaultInjectedCrash",
    "FaultInjectedError",
    "FaultPlan",
    "run_chaos",
    "run_chaos_sweep",
    "run_job_with_faults",
]


class FaultInjectedError(SimulationError):
    """A transient failure injected by a :class:`FaultPlan`."""


class FaultInjectedCrash(FaultInjectedError):
    """An injected worker crash, surfaced as an exception in-process.

    In a worker process the crash action calls ``os._exit`` (the pool sees a
    dead worker, exactly like a segfault or OOM kill); executors running jobs
    in the campaign's own process raise this instead, since exiting would
    take the whole campaign down.
    """


#: Fault actions a plan can decide for one job attempt.
CRASH, FAIL, HANG = "crash", "fail", "hang"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of which faults to inject where.

    Faults come from two composable sources:

    * **targeted sets** (``crash_jobs`` / ``fail_jobs`` / ``hang_jobs``) —
      explicit job IDs, normally chosen by :meth:`for_jobs`, which guarantee
      coverage (the acceptance criterion's "at least one of each kind");
    * **rates** — seeded Bernoulli draws per ``(job_id, attempt)``, useful
      for property-based fuzzing over fault seeds.

    Either way a fault only fires while ``attempt <= max_faulty_attempts``,
    so a retrying campaign always terminates: once a job is past its faulty
    attempts it runs clean.
    """

    seed: int = 0
    crash_jobs: frozenset = frozenset()
    fail_jobs: frozenset = frozenset()
    hang_jobs: frozenset = frozenset()
    crash_rate: float = 0.0
    fail_rate: float = 0.0
    hang_rate: float = 0.0
    #: Attempts (1-based) on which faults may fire; later attempts run clean.
    max_faulty_attempts: int = 1
    #: How long an injected hang sleeps. Pair with a job timeout well below
    #: this so the executor kills the worker instead of waiting it out.
    hang_seconds: float = 30.0
    #: 1-based store append positions after which a corrupt line is injected
    #: (by :class:`ChaosStore`); position ``k`` corrupts after the k-th put.
    corrupt_puts: frozenset = frozenset()

    def __post_init__(self) -> None:
        total = self.crash_rate + self.fail_rate + self.hang_rate
        if min(self.crash_rate, self.fail_rate, self.hang_rate) < 0 or total > 1:
            raise ConfigurationError(
                "fault rates must be non-negative and sum to at most 1"
            )
        if self.max_faulty_attempts < 0:
            raise ConfigurationError("max_faulty_attempts cannot be negative")

    @classmethod
    def for_jobs(
        cls,
        jobs: Sequence[CampaignJob],
        *,
        seed: int,
        crashes: int = 1,
        failures: int = 1,
        hangs: int = 0,
        corrupt_lines: int = 1,
        **overrides: object,
    ) -> "FaultPlan":
        """Build a plan with guaranteed fault coverage over ``jobs``.

        Job IDs are ranked by a seeded hash and the requested counts are
        taken as disjoint slices of that ranking, so which jobs are hit is
        deterministic in ``seed`` but varies across seeds.  Corrupt lines
        are planned at the earliest append positions, which keeps them
        *non-trailing* whenever the campaign appends at least one more
        record afterwards.
        """
        unique_ids = sorted(
            {job.job_id for job in jobs},
            key=lambda job_id: hashlib.blake2b(
                f"{seed}:{job_id}".encode(), digest_size=8
            ).hexdigest(),
        )
        wanted = crashes + failures + hangs
        if wanted > len(unique_ids):
            raise ConfigurationError(
                f"cannot target {wanted} faults across {len(unique_ids)} unique jobs"
            )
        crash_ids = frozenset(unique_ids[:crashes])
        fail_ids = frozenset(unique_ids[crashes : crashes + failures])
        hang_ids = frozenset(unique_ids[crashes + failures : wanted])
        return cls(
            seed=seed,
            crash_jobs=crash_ids,
            fail_jobs=fail_ids,
            hang_jobs=hang_ids,
            corrupt_puts=frozenset(range(1, corrupt_lines + 1)),
            **overrides,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    def decide(self, job_id: str, attempt: int) -> str | None:
        """The fault (``"crash"``/``"fail"``/``"hang"``/None) for one attempt."""
        if attempt > self.max_faulty_attempts:
            return None
        if job_id in self.crash_jobs:
            return CRASH
        if job_id in self.fail_jobs:
            return FAIL
        if job_id in self.hang_jobs:
            return HANG
        if self.crash_rate or self.fail_rate or self.hang_rate:
            draw = derived_unit(self.seed, "fault", job_id, attempt)
            if draw < self.crash_rate:
                return CRASH
            if draw < self.crash_rate + self.fail_rate:
                return FAIL
            if draw < self.crash_rate + self.fail_rate + self.hang_rate:
                return HANG
        return None

    def planned_faults(self, jobs: Iterable[CampaignJob]) -> dict[str, int]:
        """First-attempt fault counts over ``jobs`` (for reports and checks)."""
        counts = {CRASH: 0, FAIL: 0, HANG: 0}
        for job_id in sorted({job.job_id for job in jobs}):
            action = self.decide(job_id, 1)
            if action is not None:
                counts[action] += 1
        return counts

    def corrupt_line(self, put_index: int) -> str:
        """The (deterministically garbled) line injected after put ``put_index``."""
        noise = derived_unit(self.seed, "corrupt", put_index)
        return f'{{"job_id": "injected-corruption-{put_index}", "samples": [{noise:.6f}'


def run_job_with_faults(
    job: CampaignJob, attempt: int, plan: FaultPlan, in_process: bool = False
) -> JobResult:
    """Run ``job`` through the fault plan, then through the real runner.

    This wrapper — not :func:`~repro.campaign.jobs.run_job` — is what
    executors submit when a plan is configured, so production dispatch never
    carries a fault branch.  ``in_process=True`` turns worker-crash actions
    into :class:`FaultInjectedCrash` exceptions (serial executors have no
    expendable worker process to kill).
    """
    action = plan.decide(job.job_id, attempt)
    if action == CRASH:
        if in_process:
            raise FaultInjectedCrash(
                f"injected worker crash for job {job.job_id} (attempt {attempt})"
            )
        os._exit(17)  # die the way a segfaulting worker dies: no cleanup
    if action == FAIL:
        raise FaultInjectedError(
            f"injected transient failure for job {job.job_id} (attempt {attempt})"
        )
    if action == HANG:
        time.sleep(plan.hang_seconds)
    return run_job(job)


class ChaosStore(ArtifactStore):
    """An :class:`ArtifactStore` that corrupts planned lines as it appends.

    Only the chaos harness instantiates this; the production store never
    consults a fault plan.  Corruption is written *behind* the in-memory
    index — the running campaign is oblivious, and the damage is only
    discovered (and quarantined) by the next reader of the file.
    """

    def __init__(self, path, plan: FaultPlan, strict: bool = False) -> None:
        super().__init__(path, strict=strict)
        self.plan = plan
        self.injected_corrupt_lines = 0
        self._puts = 0

    def put(self, result: JobResult) -> None:
        super().put(result)
        self._puts += 1
        if self._puts in self.plan.corrupt_puts:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(self.plan.corrupt_line(self._puts) + "\n")
                handle.flush()
            self.injected_corrupt_lines += 1


# ----------------------------------------------------------------------
# The chaos harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosReport:
    """What ``repro campaign chaos`` observed."""

    jobs: int
    injected: dict[str, int]
    injected_corrupt_lines: int
    quarantined_lines: int
    recovered_results: int
    samples_identical: bool
    campaign: "CampaignReport"
    labels: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """The acceptance criterion: survive every fault, change no sample."""
        return (
            self.samples_identical
            and not self.campaign.failures
            and self.quarantined_lines >= self.injected_corrupt_lines
            and self.recovered_results == self.jobs
        )

    def summary(self) -> dict[str, object]:
        return {
            "jobs": self.jobs,
            "injected worker crashes": self.injected.get(CRASH, 0),
            "injected transient failures": self.injected.get(FAIL, 0),
            "injected hangs": self.injected.get(HANG, 0),
            "injected corrupt store lines": self.injected_corrupt_lines,
            "quarantined store lines": self.quarantined_lines,
            "worker crashes survived": self.campaign.worker_crashes,
            "pool rebuilds": self.campaign.pool_rebuilds,
            "retries": self.campaign.retries,
            "job timeouts": self.campaign.timeouts,
            "degraded to serial": self.campaign.degraded,
            "poison jobs quarantined": len(self.campaign.failures),
            "recovered results": self.recovered_results,
            "samples bit-identical to clean serial": self.samples_identical,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def _chaos_grid(seed: int, runs_per_label: int, max_cycles: int) -> list[CampaignJob]:
    """The tracked chaos scenario grid: RP vs CBA max-contention, tiny runs."""
    from ..platform.presets import cba_config, rp_config
    from ..workloads.base import AddressPattern, WorkloadSpec
    from .jobs import seed_block_jobs

    workload = WorkloadSpec(
        name="chaos-tiny",
        num_accesses=120,
        working_set_bytes=4 * 1024,
        mean_compute_gap=6.0,
        gap_variability=0.3,
        pattern=AddressPattern.SEQUENTIAL,
        write_fraction=0.2,
        hot_fraction=0.5,
        hot_region_bytes=1024,
    )
    jobs: list[CampaignJob] = []
    for label, config in (("chaos/RP", rp_config()), ("chaos/CBA", cba_config())):
        jobs += seed_block_jobs(
            label,
            "max_contention",
            seed=seed,
            num_runs=runs_per_label,
            workload=workload,
            config=config,
            max_cycles=max_cycles,
        )
    return jobs


def run_chaos(
    *,
    seed: int = 2017,
    fault_seed: int = 2017,
    runs_per_label: int = 4,
    workers: int = 2,
    crashes: int = 1,
    failures: int = 1,
    hangs: int = 0,
    corrupt_lines: int = 1,
    retries: int = 2,
    job_timeout: float | None = None,
    store_path: str | os.PathLike[str] | None = None,
    max_cycles: int = 300_000,
    quiet: bool = True,
) -> ChaosReport:
    """Run the fault-injection harness against the tracked scenario grid.

    Three stages: a clean in-process serial campaign establishes reference
    samples; a parallel campaign runs the same jobs under an injected
    :class:`FaultPlan` (worker crashes, transient failures, optional hangs,
    corrupt store lines); a fresh :class:`ArtifactStore` then re-reads the
    battered store, quarantining the corruption, and the recovered samples
    are compared bit-for-bit against the reference.
    """
    import tempfile

    from .campaign import Campaign, aggregate_by_label
    from .executor import ParallelExecutor, SerialExecutor
    from .progress import NullProgress, ProgressReporter

    if hangs and job_timeout is None:
        raise ConfigurationError("injected hangs need --job-timeout to be survivable")

    jobs = _chaos_grid(seed, runs_per_label, max_cycles)
    plan = FaultPlan.for_jobs(
        jobs,
        seed=fault_seed,
        crashes=crashes,
        failures=failures,
        hangs=hangs,
        corrupt_lines=corrupt_lines,
        hang_seconds=(job_timeout or 0.0) * 10 + 30.0,
    )

    clean = Campaign(executor=SerialExecutor()).run(jobs)
    reference = aggregate_by_label(jobs, clean, allow_truncated=True)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = Path(store_path) if store_path is not None else Path(tmp) / "chaos.jsonl"
        store = ChaosStore(path, plan)
        executor = ParallelExecutor(max_workers=workers)
        campaign = Campaign(
            executor=executor,
            store=store,
            retry_policy=RetryPolicy(max_attempts=retries + 1, base_delay=0.01),
            job_timeout=job_timeout,
            fault_plan=plan,
            progress=NullProgress() if quiet else ProgressReporter(prefix="chaos"),
        )
        campaign.run(jobs)
        report = campaign.last_report
        assert report is not None  # run() always sets it

        # Recovery check: a *fresh* reader of the battered store must
        # quarantine the injected corruption and still yield every result.
        recovered_store = ArtifactStore(path)
        recovered = {r.job_id: r for r in recovered_store.results()}
        missing = [job.job_id for job in jobs if job.job_id not in recovered]
        if missing:
            samples_identical = False
        else:
            recovered_agg = aggregate_by_label(jobs, recovered, allow_truncated=True)
            samples_identical = all(
                np.array_equal(recovered_agg[label].samples, reference[label].samples)
                for label in reference
            )

        return ChaosReport(
            jobs=len({job.job_id for job in jobs}),
            injected=plan.planned_faults(jobs),
            injected_corrupt_lines=store.injected_corrupt_lines,
            quarantined_lines=recovered_store.quarantined_lines,
            recovered_results=len(recovered),
            samples_identical=samples_identical,
            campaign=report,
            labels=tuple(sorted(reference)),
        )


def run_chaos_sweep(
    count: int, *, fault_seed: int = 2017, **kwargs: object
) -> list[tuple[int, ChaosReport]]:
    """Run the chaos harness over ``count`` consecutive fault seeds.

    Each sweep iteration reuses every other knob and derives its fault seed
    as ``fault_seed + i``, so which jobs crash/fail/hang (and where the
    corruption lands in the store) varies across iterations
    while each one stays individually reproducible.  Returns the
    ``(fault_seed, report)`` pairs in sweep order.
    """
    if count < 1:
        raise ConfigurationError("a seed sweep needs at least one seed")
    reports: list[tuple[int, ChaosReport]] = []
    for offset in range(count):
        swept = fault_seed + offset
        reports.append((swept, run_chaos(fault_seed=swept, **kwargs)))  # type: ignore[arg-type]
    return reports
