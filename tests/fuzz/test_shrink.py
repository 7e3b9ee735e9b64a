"""Tests for the deterministic greedy shrinker."""

from repro.fuzz import check_scenario, fuzz_iteration, shrink_scenario


def _failing_pair(seed: int = 99, budget: int = 40):
    """A (scenario, violation) pair produced by a one-mode perturbation."""

    def perturb(system, mode_name):
        if mode_name == "fast_forward":
            slave = system.l2_slave
            slave._duration_by_class = {
                kind: max(1, duration - 1)
                for kind, duration in slave._duration_by_class.items()
            }

    for i in range(budget):
        scenario = fuzz_iteration(seed, i)
        violations = check_scenario(scenario, perturb)
        if violations:
            return scenario, violations[0], perturb
    raise AssertionError(f"perturbation never caught within {budget} draws")


def test_shrink_preserves_the_failure():
    scenario, violation, perturb = _failing_pair()
    shrunk, shrunk_violation, attempts = shrink_scenario(scenario, violation, perturb)
    assert shrunk_violation.invariant == violation.invariant
    assert attempts > 0
    # The shrunk scenario still fails with the perturbation...
    found = check_scenario(shrunk, perturb)
    assert found and found[0].invariant == violation.invariant
    # ...and its checks were narrowed to the failing invariant.
    assert shrunk.checks == (violation.invariant,)


def test_shrink_is_deterministic():
    scenario, violation, perturb = _failing_pair()
    first = shrink_scenario(scenario, violation, perturb)
    second = shrink_scenario(scenario, violation, perturb)
    assert first == second


def test_shrink_simplifies_the_scenario():
    scenario, violation, perturb = _failing_pair()
    shrunk, _violation, _attempts = shrink_scenario(scenario, violation, perturb)
    before = sum(spec.num_accesses for _core, spec in scenario.workloads)
    after = sum(spec.num_accesses for _core, spec in shrunk.workloads)
    assert after <= before
    assert shrunk.config.num_cores <= scenario.config.num_cores


def test_shrink_respects_the_attempt_budget():
    scenario, violation, perturb = _failing_pair()
    _shrunk, _violation, attempts = shrink_scenario(
        scenario, violation, perturb, max_attempts=5
    )
    assert attempts <= 5
