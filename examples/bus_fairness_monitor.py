#!/usr/bin/env python3
"""Watch how CBA converges to a cycle-fair bandwidth split over time.

Builds the platform by hand (rather than through the scenario helpers), runs
a short-request task against three streaming tasks, attaches the windowed
:class:`~repro.bus.BusMonitor` and prints, window by window, the share of bus
cycles each core obtained — first on the baseline random-permutations bus,
then with CBA enabled.  The contrast between the two runs is the paper's
motivation made visible: equal slots are not equal bandwidth.

Run with::

    python examples/bus_fairness_monitor.py --window 2000
"""

from __future__ import annotations

import argparse

from repro import MulticoreSystem, cba_config, rp_config
from repro.analysis.fairness import fairness_report
from repro.analysis.reporting import format_table
from repro.workloads.synthetic import short_request_workload, streaming_workload


def run_once(config, window_cycles: int, seed: int):
    with MulticoreSystem(config, seed=seed, label=config.arbitration) as system:
        system.monitor.window_cycles = window_cycles
        system.add_task(0, short_request_workload(num_accesses=400, mean_compute_gap=6.0))
        for core in range(1, 4):
            system.add_task(core, streaming_workload(num_accesses=600))
        result = system.run(max_cycles=2_000_000)
    # A closed system stays readable: its monitor still reads the bus.
    return system, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=2000,
                        help="monitor window length in cycles (default: 2000)")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    for label, config in (("RP (request fair)", rp_config()), ("CBA (cycle fair)", cba_config())):
        system, result = run_once(config, args.window, args.seed)
        print(f"=== {label} ===")
        rows = []
        for window in system.monitor.windows[:10]:
            shares = window.shares
            rows.append([
                f"{window.start_cycle}-{window.end_cycle}",
                window.utilization,
                *shares,
            ])
        print(format_table(
            ["window (cycles)", "bus utilisation",
             "core0 share", "core1 share", "core2 share", "core3 share"],
            rows,
        ))
        report = fairness_report(result.grants_per_core, result.cycles_per_core)
        print()
        print(f"whole-run slot shares : {[round(s, 3) for s in [g / max(1, sum(result.grants_per_core)) for g in result.grants_per_core]]}")
        print(f"whole-run cycle shares: {[round(s, 3) for s in result.bandwidth_shares]}")
        print(f"Jain index — slots: {report.slot_jain:.3f}, cycles: {report.cycle_jain:.3f}")
        print(f"short-request task finished after {result.execution_cycles(0)} cycles")
        print()


if __name__ == "__main__":
    main()
