"""Independence and identical-distribution (i.i.d.) tests.

MBPTA is only sound when the execution-time observations collected at
analysis time can be treated as independent and identically distributed
random variables.  Industrial MBPTA practice (Cucu-Grosjean et al., ECRTS
2012) checks this with statistical tests before fitting EVT models; this
module provides the standard battery:

* two-sample Kolmogorov–Smirnov test on the two halves of the sample
  (identical distribution over time);
* Wald–Wolfowitz runs test around the median (independence / randomness);
* Ljung–Box test on the autocorrelation function (serial independence).

Each test returns a :class:`TestResult` with a statistic, a p-value and a
pass/fail verdict at the requested significance level (MBPTA commonly uses
α = 0.05).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.errors import AnalysisError

__all__ = [
    "TestResult",
    "ks_identical_distribution_test",
    "runs_test",
    "ljung_box_test",
    "iid_test_battery",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test."""

    name: str
    statistic: float
    p_value: float
    passed: bool
    alpha: float
    details: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
            "alpha": self.alpha,
            "details": self.details,
        }


def _as_array(samples) -> np.ndarray:
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1:
        raise AnalysisError("samples must be one-dimensional")
    if data.size < 10:
        raise AnalysisError(f"need at least 10 samples for i.i.d. testing, got {data.size}")
    return data


def ks_identical_distribution_test(samples, alpha: float = 0.05) -> TestResult:
    """Two-sample KS test between the first and second half of the sample.

    If the observations are identically distributed over time, the two halves
    come from the same distribution and the test should not reject.  The
    statistic and p-value are the float operations of
    SciPy's ``ks_2samp(first, second, method="asymp")``.
    """
    data = _as_array(samples)
    half = data.size // 2
    first, second = data[:half], data[half:]
    # The KS distribution needs scipy.special, which is imported on use:
    # the simulator alone never loads SciPy.
    from .ks_distribution import kstwo_sf

    sorted_first, sorted_second = np.sort(first), np.sort(second)
    pooled = np.concatenate([sorted_first, sorted_second])
    cdf_first = np.searchsorted(sorted_first, pooled, side="right") / first.size
    cdf_second = np.searchsorted(sorted_second, pooled, side="right") / second.size
    differences = cdf_first - cdf_second
    below = float(np.clip(-differences.min(), 0, 1))
    above = float(differences.max())
    statistic = below if below > above else above
    p_value = kstwo_sf(statistic, round(first.size * second.size / data.size))
    return TestResult(
        name="ks_identical_distribution",
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value > alpha),
        alpha=alpha,
        details=f"halves of sizes {first.size}/{second.size}",
    )


def runs_test(samples, alpha: float = 0.05) -> TestResult:
    """Wald–Wolfowitz runs test around the median.

    Counts runs of observations above/below the median; too few runs indicate
    positive serial correlation (trends), too many indicate alternation.  The
    test statistic is asymptotically standard normal under independence.
    """
    data = _as_array(samples)
    median = np.median(data)
    # Drop values equal to the median (standard treatment).
    signs = data[data != median] > median
    n1 = int(np.sum(signs))
    n2 = int(signs.size - n1)
    if n1 == 0 or n2 == 0:
        # Degenerate sample (e.g. all values identical): independence cannot
        # be rejected, but flag it in the details.
        return TestResult(
            name="runs_test",
            statistic=0.0,
            p_value=1.0,
            passed=True,
            alpha=alpha,
            details="degenerate sample: all observations on one side of the median",
        )
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    expected = 1 + 2 * n1 * n2 / (n1 + n2)
    variance = (2 * n1 * n2 * (2 * n1 * n2 - n1 - n2)) / (
        (n1 + n2) ** 2 * (n1 + n2 - 1)
    )
    if variance <= 0:
        raise AnalysisError("runs test variance is not positive")
    z = (runs - expected) / np.sqrt(variance)
    from scipy.special import ndtr

    p_value = 2 * ndtr(-abs(z))
    return TestResult(
        name="runs_test",
        statistic=float(z),
        p_value=float(p_value),
        passed=bool(p_value > alpha),
        alpha=alpha,
        details=f"runs={runs}, expected={expected:.1f}",
    )


#: Above this lag count the autocovariance sweep switches to the single
#: O(n log n) FFT pass (Wiener–Khinchin).  Below it — which includes the
#: battery's default of 10 lags at any sample size — ``lags + 1`` vectorised
#: dot products are both cheaper (measured: ~0.2 ms for 100k samples vs
#: ~12 ms for the FFT, and ~100x cheaper than a full ``np.correlate`` sweep)
#: and bit-exact against the scalar per-lag reference.
_AUTOCOVARIANCE_FFT_LAGS = 64


def _autocovariances(centred: np.ndarray, lags: int) -> np.ndarray:
    """``[sum(centred[k:] * centred[:-k]) for k in 0..lags]``.

    Few lags (the battery's case) take one vectorised dot product per lag —
    O(n * lags), exact; many-lag analyses take one FFT pass, whose round-off
    stays ~1e-9 relative on the statistic while costing O(n log n)
    regardless of the lag count.
    """
    if lags <= _AUTOCOVARIANCE_FFT_LAGS:
        values = np.empty(lags + 1, dtype=np.float64)
        values[0] = np.dot(centred, centred)
        for lag in range(1, lags + 1):
            values[lag] = np.dot(centred[lag:], centred[:-lag])
        return values
    n = centred.size
    size = 1 << int(np.ceil(np.log2(2 * n - 1)))
    spectrum = np.fft.rfft(centred, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[: lags + 1]


def ljung_box_test(samples, lags: int = 10, alpha: float = 0.05) -> TestResult:
    """Ljung–Box portmanteau test for autocorrelation up to ``lags`` lags.

    The autocovariances for every lag come out of one sweep
    (:func:`_autocovariances`); lag 0 of that sweep is the normalising sum of
    squares, so the statistic is then a couple of array reductions rather
    than a per-lag Python accumulation.
    """
    data = _as_array(samples)
    n = data.size
    lags = min(lags, n // 4)
    if lags < 1:
        raise AnalysisError("not enough samples for the Ljung-Box test")
    centred = data - data.mean()
    autocovariances = _autocovariances(centred, lags)
    denominator = float(autocovariances[0])
    if denominator == 0.0:
        return TestResult(
            name="ljung_box",
            statistic=0.0,
            p_value=1.0,
            passed=True,
            alpha=alpha,
            details="degenerate sample: zero variance",
        )
    autocorrelations = autocovariances[1:] / denominator
    weights = 1.0 / (n - np.arange(1, lags + 1, dtype=np.float64))
    q = float(n * (n + 2) * np.dot(np.square(autocorrelations), weights))
    from scipy.special import chdtrc

    p_value = float(chdtrc(lags, q))
    return TestResult(
        name="ljung_box",
        statistic=float(q),
        p_value=p_value,
        passed=bool(p_value > alpha),
        alpha=alpha,
        details=f"lags={lags}",
    )


def iid_test_battery(samples, alpha: float = 0.05) -> list[TestResult]:
    """Run the full i.i.d. battery and return the individual results."""
    return [
        ks_identical_distribution_test(samples, alpha=alpha),
        runs_test(samples, alpha=alpha),
        ljung_box_test(samples, alpha=alpha),
    ]
