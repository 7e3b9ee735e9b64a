"""Recorded counter-examples to a paper claim.

Each file in ``tests/fuzz/findings/`` is a shrunk scenario on which the
model breaks a property the paper claims, found by the fuzzer's
``wcet_dominates`` check (CHANGES.md gives each one's measured extent).
Unlike the corpus, these must *keep* failing: a model change that mends
one should move it to the corpus and say so.  The bus replays the check
relies on are held to their simulations on the same scenarios.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz.harness import check_contention_replay
from repro.fuzz.runner import load_repro, replay_scenario

FINDINGS = sorted((Path(__file__).parent / "findings").glob("*.json"))


def test_findings_are_recorded():
    assert FINDINGS


@pytest.mark.parametrize("path", FINDINGS, ids=lambda p: p.stem)
def test_finding_still_breaks_its_invariant(path):
    scenario, record = load_repro(path)
    (violation,) = replay_scenario(scenario)
    assert violation.invariant == record["invariant"]
    assert violation.detail == record["detail"]
    for kind in ("max_contention", "wcet_estimation"):
        assert check_contention_replay(scenario.with_updates(kind=kind)) is None
