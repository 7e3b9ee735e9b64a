"""The in-repo KS distribution and the p-values built on it match SciPy's.

:func:`repro.mbpta.ks_distribution.kstwo_sf` is a port of the survival path
of ``scipy.stats.kstwo`` that performs the same float operations, so against
the SciPy release it was taken from the results must be equal.  A different
SciPy may change a last bit upstream; there the comparison allows
``rel=1e-12``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.mbpta.evt import goodness_of_fit
from repro.mbpta.gumbel import fit_gumbel_mle
from repro.mbpta.iid import ks_identical_distribution_test, ljung_box_test, runs_test
from repro.mbpta.ks_distribution import SCIPY_VERSION, kstwo_sf

SAME_SCIPY = scipy.__version__ == SCIPY_VERSION


def assert_matches(ours: float, theirs) -> None:
    theirs = float(theirs)
    if math.isnan(theirs):
        assert math.isnan(ours)
    elif SAME_SCIPY:
        assert ours == theirs
    else:
        assert ours == pytest.approx(theirs, rel=1e-12, abs=0.0)


SIZES = [*range(1, 201), 250, 1_000, 5_000, 20_000, 100_001]


def grid(n: int, rng: np.random.Generator) -> list[float]:
    """Statistics that reach every method for sample size ``n``.

    The fixed points are the support edges and the Ruben–Gambino ends; the
    ``n d²`` targets straddle the switches between Durbin's matrix,
    Pomeranz, Pelz–Good and ``smirnov`` (``9e-4`` is Pelz–Good's underflow
    to 0 at ``n > 100000``); ``(1.4/n)**(2/3)`` is where large samples leave
    Durbin's matrix for Pelz–Good.
    """
    points = [0.0, 1e-9, 0.5 / n, np.nextafter(0.5 / n, 1.0), 0.75 / n, 1 / n, 0.5, 0.999]
    points += [1.0, (n - 1) / n, (n - 0.5) / n]
    points += [math.sqrt(target / n) for target in (9e-4, 0.5, 0.754693, 2.0, 3.0, 10.0, 400.0)]
    points += [factor * (1.4 / n) ** (2 / 3) for factor in (0.9, 1.1)]
    points += list(rng.uniform(0.0, 1.0, 3)) + list(rng.uniform(0.0, 3.0 / math.sqrt(n), 3))
    return [float(d) for d in points if d <= 1.0]


@pytest.mark.parametrize("n", SIZES)
def test_kstwo_sf_matches_scipy(n):
    rng = np.random.default_rng(n)
    for d in grid(n, rng):
        assert_matches(kstwo_sf(d, n), stats.kstwo.sf(d, n))


def test_kstwo_sf_support_clamps_and_bad_sizes():
    assert kstwo_sf(0.0, 10) == 1.0
    assert kstwo_sf(0.05, 10) == 1.0
    assert kstwo_sf(1.0, 10) == 0.0
    assert kstwo_sf(2.0, 10) == 0.0
    assert math.isnan(kstwo_sf(math.nan, 10))
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError):
            kstwo_sf(0.3, n)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(10, 3_000),
    scale=st.floats(1.0, 1_000.0),
    integral=st.booleans(),
)
def test_battery_and_goodness_of_fit_match_scipy(seed, size, scale, integral):
    sample = np.random.default_rng(seed).gumbel(10_000.0, scale, size)
    if integral:
        # Cycle counts are integers: ties exercise the two-sample CDF steps.
        sample = np.round(sample)

    fit = fit_gumbel_mle(sample)
    gof = goodness_of_fit(sample, fit)
    expected = stats.kstest(sample, "gumbel_r", args=(fit.location, fit.scale))
    assert_matches(gof.statistic, expected.statistic)
    assert_matches(gof.p_value, expected.pvalue)

    ks = ks_identical_distribution_test(sample)
    half = size // 2
    expected = stats.ks_2samp(sample[:half], sample[half:], method="asymp")
    assert_matches(ks.statistic, expected.statistic)
    assert_matches(ks.p_value, expected.pvalue)

    runs = runs_test(sample)
    if not runs.details.startswith("degenerate"):
        assert_matches(runs.p_value, 2 * stats.norm.sf(abs(runs.statistic)))

    ljung = ljung_box_test(sample)
    lags = int(ljung.details.removeprefix("lags="))
    assert_matches(ljung.p_value, stats.chi2.sf(ljung.statistic, df=lags))
