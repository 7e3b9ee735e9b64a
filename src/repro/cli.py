"""Command-line interface.

``python -m repro <command>`` exposes the experiment drivers so the paper's
tables and figures can be regenerated without writing any Python:

========================  =====================================================
Command                   Regenerates
========================  =====================================================
``illustrative``          the Section II example (9.4x vs 2.8x slowdowns)
``table1``                the Table I signal behaviour and rule checks
``figure1``               the Figure 1 slowdown table (EEMBC, RP/CBA/H-CBA)
``overheads``             the Section IV-B implementation-overhead comparison
``mbpta``                 an MBPTA campaign and its pWCET curve
``hcba-sweep``            the H-CBA design-space ablation
``policy-sweep``          CBA over different base arbitration policies
``list-workloads``        the modelled EEMBC-like and synthetic workloads
``obs``                   observability: record/inspect traces, profiles, metrics
``campaign``              campaign engine utilities (``chaos`` fault harness)
``fuzz``                  the property-based scenario fuzzer (run/replay/shrink)
``lint``                  the repository-contract static analyzer
========================  =====================================================

Every command accepts ``--runs`` and ``--scale`` where applicable so the
fidelity/runtime trade-off is explicit (the paper averages 1,000 runs per
configuration; the defaults here are sized for a laptop).

Every experiment command also accepts the campaign-engine flags:

* ``--jobs N`` — execute the campaign's jobs on ``N`` worker processes
  (``1`` = serial, ``0`` = one worker per CPU).  Results are bit-identical
  whatever ``N`` is;
* ``--store PATH`` — persist per-job results to a JSON-lines artifact store;
* ``--resume`` — with ``--store``, skip jobs whose results are already in
  the store (resuming an interrupted campaign, or reusing results across
  related experiments);
* ``--quiet`` — suppress the progress/ETA lines written to stderr;
* ``--profile PATH`` — write a per-phase campaign wall-clock profile
  (spawn/dispatch/simulate/result/store, plus worker context-cache
  counters) as JSON to PATH;
* ``--metrics PATH`` — export a labelled metrics registry built from every
  job result to PATH (JSONL, or Prometheus text for ``.prom``/``.txt``);
* ``--retries N`` — retry failing jobs up to N extra times (seeded
  exponential backoff; poison jobs are quarantined after the budget);
* ``--job-timeout SECONDS`` — kill and retry jobs that hang past the budget
  (parallel execution only);
* ``--strict-store`` — fail hard on any corrupt store line instead of
  quarantining it into the ``.quarantine`` sidecar.

``repro campaign chaos`` runs the deterministic fault-injection harness: a
scenario grid executed once cleanly and once under injected worker crashes,
transient failures and store corruption, with the recovered samples checked
bit-for-bit against the clean run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.reporting import format_key_values, format_table
from .campaign.campaign import Campaign
from .campaign.executor import create_executor
from .campaign.progress import NullProgress, ProgressReporter
from .campaign.resilience import RetryPolicy
from .campaign.store import ArtifactStore
from .fuzz.cli import add_fuzz_arguments, run_from_args as _run_fuzz_args
from .lint.cli import add_lint_arguments, run_from_args as _run_lint_args
from .obs.profiler import CampaignProfiler
from .core.bounds import ContentionScenario
from .sim.errors import ConfigurationError, SimulationError
from .experiments.base_policy_sweep import run_base_policy_sweep
from .experiments.figure1 import run_figure1
from .experiments.hcba_sweep import run_hcba_sweep
from .experiments.illustrative import run_illustrative_example
from .experiments.mbpta_experiment import run_mbpta_experiment
from .experiments.overheads import run_overheads
from .experiments.table1 import run_table1
from .workloads.eembc import FIGURE1_BENCHMARKS, available_benchmarks
from .workloads.registry import available_workloads, workload_by_name

__all__ = ["build_parser", "campaign_from_args", "main"]


def _campaign_flags() -> argparse.ArgumentParser:
    """Shared parent parser holding the campaign-engine flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("campaign execution")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial, 0 = one per CPU; default: 1)",
    )
    group.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSON-lines artifact store for per-job results",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="skip jobs already present in --store",
    )
    group.add_argument(
        "--quiet", action="store_true",
        help="suppress campaign progress output on stderr",
    )
    group.add_argument(
        "--profile", default=None, metavar="PATH",
        help="write a per-phase campaign wall-clock profile (JSON) to PATH",
    )
    group.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="export campaign metrics to PATH (JSONL; .prom/.txt = Prometheus)",
    )
    group.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts for failing jobs (default: 0 = fail fast)",
    )
    group.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; hung jobs are killed and retried",
    )
    group.add_argument(
        "--strict-store", action="store_true",
        help="fail on corrupt store lines instead of quarantining them",
    )
    return parent


def campaign_from_args(args: argparse.Namespace) -> Campaign:
    """Build the campaign engine a command was asked to run on."""
    store = (
        ArtifactStore(args.store, strict=getattr(args, "strict_store", False))
        if args.store
        else None
    )
    progress = (
        NullProgress()
        if args.quiet
        else ProgressReporter(stream=sys.stderr, prefix=args.command)
    )
    profile_path = getattr(args, "profile", None)
    profiler = CampaignProfiler(output_path=profile_path) if profile_path else None
    retries = getattr(args, "retries", 0)
    if retries < 0:
        raise ConfigurationError("--retries cannot be negative")
    retry_policy = RetryPolicy(max_attempts=retries + 1) if retries else None
    job_timeout = getattr(args, "job_timeout", None)
    return Campaign(
        executor=create_executor(
            args.jobs,
            retry_policy=retry_policy,
            job_timeout=job_timeout,
        ),
        store=store,
        resume=args.resume,
        progress=progress,
        profiler=profiler,
        metrics_path=getattr(args, "metrics", None),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DATE 2017 credit-based bus arbitration paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    campaign_flags = _campaign_flags()

    illustrative = sub.add_parser(
        "illustrative", help="Section II example", parents=[campaign_flags]
    )
    illustrative.add_argument("--requests", type=int, default=1000)
    illustrative.add_argument("--isolation-cycles", type=int, default=10_000)
    illustrative.add_argument("--seed", type=int, default=2017)

    table1 = sub.add_parser(
        "table1", help="Table I signal behaviour", parents=[campaign_flags]
    )
    table1.add_argument("--tua-requests", type=int, default=25)
    table1.add_argument("--rows", type=int, default=20, help="signal rows to print")

    figure1 = sub.add_parser(
        "figure1", help="Figure 1 slowdowns", parents=[campaign_flags]
    )
    figure1.add_argument("--benchmarks", nargs="*", default=list(FIGURE1_BENCHMARKS),
                         choices=available_benchmarks())
    figure1.add_argument("--runs", type=int, default=3)
    figure1.add_argument("--scale", type=float, default=0.5)
    figure1.add_argument("--seed", type=int, default=2017)

    sub.add_parser(
        "overheads",
        help="Section IV-B implementation overheads",
        parents=[campaign_flags],
    )

    mbpta = sub.add_parser(
        "mbpta", help="MBPTA campaign and pWCET curve", parents=[campaign_flags]
    )
    mbpta.add_argument("benchmark", nargs="?", default="canrdr", choices=available_benchmarks())
    mbpta.add_argument("--config", default="CBA", choices=["RP", "CBA", "H-CBA"])
    mbpta.add_argument("--runs", type=int, default=40)
    mbpta.add_argument("--scale", type=float, default=0.25)
    mbpta.add_argument("--seed", type=int, default=7)

    hcba = sub.add_parser(
        "hcba-sweep", help="H-CBA design-space ablation", parents=[campaign_flags]
    )
    hcba.add_argument("--fractions", type=float, nargs="*", default=[0.25, 0.5, 0.75])
    hcba.add_argument("--runs", type=int, default=2)
    hcba.add_argument("--scale", type=float, default=0.5)

    policy = sub.add_parser(
        "policy-sweep",
        help="CBA over different base policies",
        parents=[campaign_flags],
    )
    policy.add_argument("--benchmark", default="matrix", choices=available_benchmarks())
    policy.add_argument("--runs", type=int, default=2)
    policy.add_argument("--scale", type=float, default=0.5)

    # list-workloads prints static metadata — no campaign runs, no flags.
    workloads = sub.add_parser("list-workloads", help="list modelled workloads")
    workloads.add_argument("--verbose", action="store_true")

    obs = sub.add_parser("obs", help="observability: traces, profiles, metrics")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    record = obs_sub.add_parser(
        "record",
        help="run one instrumented contention scenario and write its artifacts",
    )
    record.add_argument("--out", default="obs-artifacts", metavar="DIR",
                        help="output directory (default: obs-artifacts)")
    record.add_argument("--benchmark", default="canrdr", choices=available_benchmarks())
    record.add_argument("--cores", type=int, default=4)
    record.add_argument("--arbitration", default="random_permutations")
    record.add_argument("--cba", action="store_true", help="wrap the arbiter with CBA")
    record.add_argument("--scale", type=float, default=0.25)
    record.add_argument("--seed", type=int, default=2017)
    record.add_argument("--ring", type=int, default=None, metavar="N",
                        help="bound the timeline to the most recent N events")

    timeline = obs_sub.add_parser(
        "timeline", help="summarise a recorded Chrome trace-event file"
    )
    timeline.add_argument("path", help="timeline.json written by `repro obs record`")

    profile = obs_sub.add_parser(
        "profile", help="render a kernel or campaign profile JSON"
    )
    profile.add_argument("path", help="profile JSON (kernel_profile.json or --profile output)")

    metrics = obs_sub.add_parser(
        "metrics", help="render an exported metrics file (JSONL or Prometheus text)"
    )
    metrics.add_argument("path", help="metrics.jsonl / metrics.prom")

    campaign = sub.add_parser(
        "campaign", help="campaign engine utilities (chaos fault harness)"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    chaos = campaign_sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection harness on a scenario grid",
    )
    chaos.add_argument("--workers", type=int, default=2,
                       help="pool workers for the faulty campaign (default: 2)")
    chaos.add_argument("--runs", type=int, default=4,
                       help="runs per grid label (default: 4)")
    chaos.add_argument("--seed", type=int, default=2017,
                       help="simulation seed for the scenario grid")
    chaos.add_argument("--fault-seed", type=int, default=2017,
                       help="seed deriving which jobs crash/fail/hang")
    chaos.add_argument("--seed-sweep", type=int, default=None, metavar="N",
                       help="run the harness over N consecutive fault seeds "
                            "starting at --fault-seed (exit 0 only if all pass)")
    chaos.add_argument("--crashes", type=int, default=1,
                       help="worker crashes to inject (default: 1)")
    chaos.add_argument("--failures", type=int, default=1,
                       help="transient job failures to inject (default: 1)")
    chaos.add_argument("--hangs", type=int, default=0,
                       help="job hangs to inject (needs --job-timeout)")
    chaos.add_argument("--corrupt-lines", type=int, default=1,
                       help="store lines to corrupt (default: 1)")
    chaos.add_argument("--retries", type=int, default=2,
                       help="extra attempts per job (default: 2)")
    chaos.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    chaos.add_argument("--store", default=None, metavar="PATH",
                       help="store path (default: a temporary file)")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress chaos progress output on stderr")

    fuzz = sub.add_parser(
        "fuzz",
        help="property-based scenario fuzzer (run, replay, shrink)",
    )
    add_fuzz_arguments(fuzz)

    lint = sub.add_parser(
        "lint",
        help="AST-based contract analyzer (determinism, hot paths, resources)",
    )
    add_lint_arguments(lint)

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_illustrative(args: argparse.Namespace) -> int:
    scenario = ContentionScenario(
        isolation_cycles=args.isolation_cycles, tua_requests=args.requests
    )
    result = run_illustrative_example(
        scenario, seed=args.seed, campaign=campaign_from_args(args)
    )
    print(format_key_values(
        {
            "analytic request-fair slowdown": f"{result.analytic_request_fair_slowdown:.2f}x",
            "analytic cycle-fair slowdown": f"{result.analytic_cycle_fair_slowdown:.2f}x",
            "simulated request-fair slowdown": f"{result.simulated_request_fair_slowdown:.2f}x",
            "simulated cycle-fair slowdown": f"{result.simulated_cycle_fair_slowdown:.2f}x",
        },
        title="Section II illustrative example",
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    result = run_table1(
        tua_requests=args.tua_requests, campaign=campaign_from_args(args)
    )
    rows = result.wcet_mode_rows[: args.rows]
    headers = list(rows[0].keys())
    print(format_table(headers, [[row[h] for h in headers] for row in rows]))
    print()
    print(format_key_values(result.summary(), title="Table I rule checks"))
    return 0 if result.rules_hold else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    result = run_figure1(
        benchmarks=args.benchmarks, num_runs=args.runs,
        access_scale=args.scale, seed=args.seed,
        campaign=campaign_from_args(args),
    )
    print(result.to_table())
    print()
    print(format_key_values(
        {
            "worst RP-CON slowdown": (
                f"{result.worst_contention_slowdown('RP-CON'):.2f} (paper: 3.34)"
            ),
            "worst CBA-CON slowdown": (
                f"{result.worst_contention_slowdown('CBA-CON'):.2f} (paper: 2.34)"
            ),
            "CBA isolation overhead": (
                f"{100 * result.isolation_overhead('CBA-ISO'):.1f}% (paper: ~3%)"
            ),
            "H-CBA isolation overhead": f"{100 * result.isolation_overhead('H-CBA-ISO'):.1f}%",
        },
        title="Figure 1 headline numbers",
    ))
    return 0


def _cmd_overheads(args: argparse.Namespace) -> int:
    result = run_overheads(campaign=campaign_from_args(args))
    print(format_key_values(result.summary(), title="Implementation overheads (Section IV-B)"))
    return 0 if result.claim_holds else 1


def _cmd_mbpta(args: argparse.Namespace) -> int:
    result = run_mbpta_experiment(
        benchmark=args.benchmark, configuration=args.config,
        num_runs=args.runs, access_scale=args.scale, seed=args.seed,
        campaign=campaign_from_args(args),
    )
    print(format_key_values(result.summary(), title="MBPTA campaign"))
    print()
    print(format_table(
        ["exceedance probability", "pWCET (cycles)"],
        [[f"{p:g}", bound] for p, bound in result.mbpta.pwcet.points()],
        float_format="{:.0f}",
    ))
    return 0 if result.bound_dominates_operation else 1


def _cmd_hcba_sweep(args: argparse.Namespace) -> int:
    result = run_hcba_sweep(
        fractions=tuple(args.fractions), num_runs=args.runs,
        access_scale=args.scale, campaign=campaign_from_args(args),
    )
    rows = [
        [p.label, p.favoured_fraction, p.tua_slowdown, p.tua_bandwidth_share]
        for p in result.points
    ]
    print(format_table(
        ["configuration", "favoured fraction", "TuA slowdown", "TuA bus share"], rows
    ))
    return 0


def _cmd_policy_sweep(args: argparse.Namespace) -> int:
    result = run_base_policy_sweep(
        benchmark=args.benchmark, num_runs=args.runs,
        access_scale=args.scale, campaign=campaign_from_args(args),
    )
    rows = []
    for policy in result.policies():
        rows.append([
            policy,
            result.contention_slowdown(policy, use_cba=False),
            result.contention_slowdown(policy, use_cba=True),
            result.improvement(policy),
        ])
    print(format_table(
        ["base policy", "contention slowdown", "with CBA", "improvement"], rows
    ))
    return 0


def _cmd_list_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in available_workloads():
        spec = workload_by_name(name)
        if args.verbose:
            rows.append([
                name, spec.num_accesses, spec.working_set_bytes,
                spec.mean_compute_gap, spec.pattern, spec.description,
            ])
        else:
            rows.append([name, spec.description])
    headers = (
        ["name", "accesses", "working set (B)", "mean gap", "pattern", "description"]
        if args.verbose
        else ["name", "description"]
    )
    print(format_table(headers, rows))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    # The record path pulls in the whole platform layer; the render paths
    # only read JSON — import per subcommand to keep `repro obs metrics`
    # and friends instant.
    import json

    from .obs import report

    if args.obs_command == "record":
        from .obs.record import record_contention

        summary = record_contention(
            args.out,
            benchmark=args.benchmark,
            cores=args.cores,
            arbitration=args.arbitration,
            use_cba=args.cba,
            access_scale=args.scale,
            seed=args.seed,
            ring=args.ring,
        )
        utilization = float(summary["bus_utilization"])  # type: ignore[arg-type]
        print(format_key_values(
            {
                "benchmark": summary["benchmark"],
                "configuration": f"{summary['arbitration']}"
                                 f"{' + CBA' if summary['use_cba'] else ''}",
                "total cycles": summary["total_cycles"],
                "bus utilization": f"{utilization:.3f}",
                "trace events": summary["trace_events"],
                "metric series": summary["metrics_series"],
                "artifacts": args.out,
            },
            title="observability recording",
        ))
        return 0
    if args.obs_command == "timeline":
        with open(args.path, encoding="utf-8") as handle:
            document = json.load(handle)
        print(report.render_timeline_summary(document))
        return 0
    if args.obs_command == "profile":
        with open(args.path, encoding="utf-8") as handle:
            data = json.load(handle)
        print(report.render_profile(data))
        return 0
    print(report.render_metrics_file(args.path))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    # Only the chaos harness lives here for now; the subparser enforces it.
    from .campaign.faults import run_chaos, run_chaos_sweep

    knobs = dict(
        seed=args.seed,
        runs_per_label=args.runs,
        workers=args.workers,
        crashes=args.crashes,
        failures=args.failures,
        hangs=args.hangs,
        corrupt_lines=args.corrupt_lines,
        retries=args.retries,
        job_timeout=args.job_timeout,
        store_path=args.store,
        quiet=args.quiet,
    )
    if args.seed_sweep is None:
        report = run_chaos(fault_seed=args.fault_seed, **knobs)
        print(format_key_values(report.summary(), title="campaign chaos harness"))
        return 0 if report.passed else 1
    reports = run_chaos_sweep(args.seed_sweep, fault_seed=args.fault_seed, **knobs)
    for fault_seed, report in reports:
        print(
            format_key_values(
                report.summary(),
                title=f"campaign chaos harness (fault seed {fault_seed})",
            )
        )
    failed = [seed for seed, report in reports if not report.passed]
    verdict = (
        f"chaos sweep: {len(reports) - len(failed)}/{len(reports)} seeds passed"
    )
    if failed:
        verdict += f" (failed: {', '.join(map(str, failed))})"
    print(verdict)
    return 0 if not failed else 1


_COMMANDS = {
    "illustrative": _cmd_illustrative,
    "table1": _cmd_table1,
    "figure1": _cmd_figure1,
    "overheads": _cmd_overheads,
    "mbpta": _cmd_mbpta,
    "hcba-sweep": _cmd_hcba_sweep,
    "policy-sweep": _cmd_policy_sweep,
    "list-workloads": _cmd_list_workloads,
    "obs": _cmd_obs,
    "campaign": _cmd_campaign,
    "fuzz": _run_fuzz_args,
    "lint": _run_lint_args,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "store", None):
        parser.error("--resume requires --store PATH")
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except SimulationError as error:
        # Bad flag values, corrupt stores, inconsistent configurations:
        # user-facing problems, not crashes — report them like argparse does.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. `head`);
        # this is not an error from the experiment's point of view.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - depends on the platform
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
