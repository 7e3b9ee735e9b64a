"""Tests for the Gumbel distribution fitting."""

import math

import numpy as np
import pytest

from repro.mbpta.gumbel import GumbelFit, fit_gumbel_mle, fit_gumbel_moments
from repro.sim.errors import AnalysisError


@pytest.fixture
def gumbel_sample(rng):
    return rng.gumbel(loc=10_000.0, scale=250.0, size=3000)


def test_moments_fit_recovers_parameters(gumbel_sample):
    fit = fit_gumbel_moments(gumbel_sample)
    assert fit.location == pytest.approx(10_000.0, rel=0.02)
    assert fit.scale == pytest.approx(250.0, rel=0.1)
    assert fit.method == "moments"
    assert fit.sample_size == 3000


def test_mle_fit_recovers_parameters(gumbel_sample):
    fit = fit_gumbel_mle(gumbel_sample)
    assert fit.location == pytest.approx(10_000.0, rel=0.02)
    assert fit.scale == pytest.approx(250.0, rel=0.1)
    assert fit.method in ("mle", "moments")


def test_cdf_and_quantile_are_inverse():
    fit = GumbelFit(location=100.0, scale=10.0)
    for probability in (0.1, 0.5, 0.9, 0.999):
        assert fit.cdf(fit.quantile(probability)) == pytest.approx(probability, rel=1e-9)


def test_exceedance_probability_decreases_with_threshold():
    fit = GumbelFit(location=100.0, scale=10.0)
    assert fit.exceedance_probability(100) > fit.exceedance_probability(150)
    assert fit.exceedance_probability(150) > fit.exceedance_probability(200)


def test_value_at_exceedance_handles_tiny_probabilities():
    fit = GumbelFit(location=100.0, scale=10.0)
    bound_12 = fit.value_at_exceedance(1e-12)
    bound_15 = fit.value_at_exceedance(1e-15)
    assert bound_15 > bound_12 > fit.location
    # The asymptotic expansion: mu - beta * ln(p).
    assert bound_15 == pytest.approx(100.0 - 10.0 * math.log(1e-15), rel=1e-6)


def test_mean_formula():
    fit = GumbelFit(location=100.0, scale=10.0)
    assert fit.mean() == pytest.approx(100.0 + 0.5772156649 * 10.0)


def test_invalid_inputs_rejected():
    with pytest.raises(AnalysisError):
        GumbelFit(location=0.0, scale=0.0)
    with pytest.raises(AnalysisError):
        fit_gumbel_moments([1.0, 2.0])
    with pytest.raises(AnalysisError):
        fit_gumbel_moments(np.full(100, 7.0))
    with pytest.raises(AnalysisError):
        GumbelFit(location=0.0, scale=1.0).quantile(1.5)
    with pytest.raises(AnalysisError):
        GumbelFit(location=0.0, scale=1.0).value_at_exceedance(0.0)


def test_as_dict_round_trip(gumbel_sample):
    fit = fit_gumbel_moments(gumbel_sample)
    data = fit.as_dict()
    assert set(data) == {"location", "scale", "method", "sample_size"}


def test_mle_falls_back_to_scipy_when_newton_fails(monkeypatch, gumbel_sample):
    from scipy import stats

    import repro.mbpta.gumbel as gumbel

    monkeypatch.setattr(gumbel, "_solve_mle_scale", lambda data, initial_scale: None)
    guess = fit_gumbel_moments(gumbel_sample)
    location, scale = stats.gumbel_r.fit(gumbel_sample, loc=guess.location, scale=guess.scale)
    fit = fit_gumbel_mle(gumbel_sample)
    assert fit.method == "mle"
    assert (fit.location, fit.scale) == (location, scale)
    assert fit.sample_size == gumbel_sample.size


def test_mle_falls_back_to_moments_when_scipy_fails(monkeypatch, gumbel_sample):
    from scipy import stats

    import repro.mbpta.gumbel as gumbel

    def fail(*args, **kwargs):
        raise RuntimeError("optimizer did not converge")

    monkeypatch.setattr(gumbel, "_solve_mle_scale", lambda data, initial_scale: None)
    monkeypatch.setattr(stats.gumbel_r, "fit", fail)
    assert fit_gumbel_mle(gumbel_sample) == fit_gumbel_moments(gumbel_sample)
