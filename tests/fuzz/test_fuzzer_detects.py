"""Mutation checks: the fuzzer must catch deliberately-broken components.

These are the acceptance tests of the whole fuzz lane.  Each test plants one
realistic bug — an arbiter whose fast-forward wake hint lies, a DRAM timing
that differs in one kernel mode — and asserts the fuzzer finds it within a
bounded, fixed seed budget, shrinks it, and that the shrunk repro file
replays to the same failure.
"""

from unittest import mock

from repro.arbiters import registry
from repro.arbiters.tdma import TDMAArbiter
from repro.fuzz import fuzz_run, load_repro, replay_file, replay_scenario


class _BrokenTDMA(TDMAArbiter):
    """TDMA whose wake hint overshoots by a slot: event-driven modes oversleep."""

    def next_grant_opportunity(self, requestors, cycle):
        wake = super().next_grant_opportunity(requestors, cycle)
        return None if wake is None else wake + self.slot_cycles


def _make_broken_tdma(num_masters, rng, options):
    return _BrokenTDMA(
        num_masters,
        slot_cycles=options.get("slot_cycles", 56),
        schedule=options.get("schedule"),
        issue_only_at_slot_start=options.get("issue_only_at_slot_start", True),
    )


def _perturb_banked_dram(system, mode_name):
    """Make banked DRAM slightly faster in the fast-forward mode only."""
    if mode_name == "fast_forward" and type(system.dram).__name__ == "BankedDRAM":
        system.dram.row_hit_latency += 3


def test_broken_arbiter_caught_within_seed_budget(tmp_path):
    with mock.patch.dict(registry.ARBITER_POLICIES, {"tdma": _make_broken_tdma}):
        report = fuzz_run(
            master_seed=2024,
            iterations=10,
            artifacts_dir=tmp_path,
            max_failures=1,
        )
        assert report.failures, "broken TDMA survived 10 fuzz iterations"
        failure = report.failures[0]
        assert failure.violation.invariant == "modes"
        assert failure.scenario.config.arbitration == "tdma"
        # The shrunk repro file replays to the same violation while the bug
        # is still planted...
        replayed = replay_file(failure.repro_path)
        assert replayed and replayed[0].invariant == "modes"
    # ...and passes once the arbiter is fixed: the repro pinpoints the bug.
    assert replay_file(failure.repro_path) == []


def test_mode_local_dram_bug_caught_and_shrunk(tmp_path):
    report = fuzz_run(
        master_seed=99,
        iterations=6,
        artifacts_dir=tmp_path,
        max_failures=1,
        perturb=_perturb_banked_dram,
    )
    assert report.failures, "mode-local DRAM bug survived 6 fuzz iterations"
    failure = report.failures[0]
    assert failure.violation.invariant == "modes"
    assert failure.scenario.config.memory.model == "banked"
    # Shrinking preserved the failure (checked with the bug still present).
    scenario, record = load_repro(failure.repro_path)
    assert record["invariant"] == "modes"
    replayed = replay_scenario(scenario, _perturb_banked_dram)
    assert replayed and replayed[0].invariant == "modes"
    # Without the perturbation the shrunk scenario is healthy.
    assert replay_scenario(scenario) == []


def test_clean_run_reports_no_failures(tmp_path):
    report = fuzz_run(master_seed=7, iterations=4, artifacts_dir=tmp_path)
    assert report.passed
    assert report.checks_run >= 4
    assert list(tmp_path.iterdir()) == []
