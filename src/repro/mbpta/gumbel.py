"""Gumbel (EVT type I) distribution fitting.

MBPTA models the tail of the execution-time distribution with the Gumbel
distribution (the Generalised Extreme Value distribution with shape ξ = 0),
which is the standard choice for pWCET estimation: block maxima of
execution-time samples converge to a GEV, and industrial MBPTA constrains the
shape to the Gumbel case for conservativeness and stability.

Two estimators are provided:

* method of moments — closed form, robust, used as the initial guess;
* maximum likelihood — a Newton–Raphson solve of the Gumbel profile
  likelihood whose per-iteration work is fully vectorised over the sample
  array.  Only when the solve does not converge does it fall back to
  :func:`scipy.stats.gumbel_r.fit`, and then to moments; that fallback is the
  one place the MBPTA pipeline loads SciPy's statistics package.

The fitted model exposes the CDF, quantiles and exceedance probabilities the
pWCET curve needs; each accepts either a scalar or a numpy array, so a whole
grid of probabilities is evaluated in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..sim.errors import AnalysisError

__all__ = ["GumbelFit", "fit_gumbel_moments", "fit_gumbel_mle"]

#: Euler–Mascheroni constant, used by the method-of-moments estimator.
_EULER_GAMMA = 0.5772156649015329

#: Newton–Raphson controls for the maximum-likelihood scale solve.
_MLE_MAX_ITERATIONS = 100
_MLE_RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GumbelFit:
    """A fitted Gumbel distribution ``G(x) = exp(-exp(-(x - mu)/beta))``."""

    location: float
    scale: float
    method: str = "moments"
    sample_size: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise AnalysisError("Gumbel scale must be positive")

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Probability that an observation does not exceed ``x``."""
        if isinstance(x, np.ndarray):
            z = (x - self.location) / self.scale
            return np.exp(-np.exp(-z))
        z = (x - self.location) / self.scale
        return math.exp(-math.exp(-z))

    def exceedance_probability(self, x: float | np.ndarray) -> float | np.ndarray:
        """Probability that an observation exceeds ``x`` (the pWCET reading)."""
        return 1.0 - self.cdf(x)

    def quantile(self, probability: float | np.ndarray) -> float | np.ndarray:
        """Value not exceeded with the given probability (inverse CDF)."""
        if isinstance(probability, np.ndarray):
            p = np.asarray(probability, dtype=np.float64)
            # Element-wise check rather than min/max bounds: NaN compares
            # False against both bounds and would otherwise slip through.
            if p.size and not bool(np.all((p > 0.0) & (p < 1.0))):
                raise AnalysisError("quantile probability must be in (0, 1)")
            return self.location - self.scale * np.log(-np.log(p))
        if not 0.0 < probability < 1.0:
            raise AnalysisError("quantile probability must be in (0, 1)")
        return self.location - self.scale * math.log(-math.log(probability))

    def value_at_exceedance(self, exceedance: float | np.ndarray) -> float | np.ndarray:
        """The pWCET estimate at a target exceedance probability.

        For the tiny exceedance probabilities MBPTA uses (10^-9 ... 10^-16 per
        run), ``-log(1 - p)`` underflows, so the asymptotic expansion
        ``quantile(1 - p) ≈ mu - beta * log(p)`` is used instead.  An array
        argument evaluates the whole probability grid in one vectorised call
        (same formulas, same branch point as the scalar path).
        """
        if isinstance(exceedance, np.ndarray):
            e = np.asarray(exceedance, dtype=np.float64)
            # Element-wise for the same reason as quantile(): NaN must raise,
            # not propagate into the pWCET grid.
            if e.size and not bool(np.all((e > 0.0) & (e < 1.0))):
                raise AnalysisError("exceedance probability must be in (0, 1)")
            values = np.empty_like(e)
            tiny = e < 1e-12
            values[tiny] = self.location - self.scale * np.log(e[tiny])
            rest = ~tiny
            values[rest] = self.location - self.scale * np.log(-np.log(1.0 - e[rest]))
            return values
        if not 0.0 < exceedance < 1.0:
            raise AnalysisError("exceedance probability must be in (0, 1)")
        if exceedance < 1e-12:
            return self.location - self.scale * math.log(exceedance)
        return self.quantile(1.0 - exceedance)

    def mean(self) -> float:
        return self.location + _EULER_GAMMA * self.scale

    def as_dict(self) -> dict[str, float | str | int]:
        return {
            "location": self.location,
            "scale": self.scale,
            "method": self.method,
            "sample_size": self.sample_size,
        }


def _validate(samples) -> np.ndarray:
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 1:
        raise AnalysisError("samples must be one-dimensional")
    if data.size < 5:
        raise AnalysisError(f"need at least 5 samples to fit a Gumbel, got {data.size}")
    if np.std(data) == 0:
        raise AnalysisError("cannot fit a Gumbel to a constant sample")
    return data


def fit_gumbel_moments(samples) -> GumbelFit:
    """Method-of-moments fit: matches the sample mean and standard deviation."""
    data = _validate(samples)
    std = float(np.std(data, ddof=1))
    mean = float(np.mean(data))
    scale = std * math.sqrt(6.0) / math.pi
    location = mean - _EULER_GAMMA * scale
    return GumbelFit(location=location, scale=scale, method="moments", sample_size=data.size)


def _solve_mle_scale(data: np.ndarray, initial_scale: float) -> tuple[float, float] | None:
    """Newton–Raphson solve of the Gumbel likelihood equations.

    The MLE scale ``beta`` is the root of

        f(beta) = beta - mean(x) + sum(x * z) / sum(z),   z_i = exp(-x_i / beta),

    and the location then follows in closed form.  Each iteration is a few
    vectorised reductions over the sample; exponents are shifted by ``min(x)``
    for numerical stability (the shift cancels in the ratio).  Returns
    ``(location, scale)`` or ``None`` when the iteration leaves the valid
    domain or fails to converge.
    """
    x = data
    n = x.size
    minimum = float(x.min())
    mean = float(x.mean())
    shifted = x - minimum
    beta = float(initial_scale)
    for _ in range(_MLE_MAX_ITERATIONS):
        z = np.exp(-shifted / beta)
        sum_z = float(z.sum())
        sum_xz = float(np.dot(x, z))
        f = beta - mean + sum_xz / sum_z
        # d z_i / d beta = z_i * shifted_i / beta^2
        u = shifted / (beta * beta)
        zu = z * u
        sum_zu = float(zu.sum())
        sum_xzu = float(np.dot(x, zu))
        derivative = 1.0 + (sum_xzu * sum_z - sum_xz * sum_zu) / (sum_z * sum_z)
        if derivative == 0.0 or not math.isfinite(derivative):
            return None
        step = f / derivative
        beta_next = beta - step
        if not math.isfinite(beta_next) or beta_next <= 0.0:
            return None
        if abs(step) <= _MLE_RELATIVE_TOLERANCE * max(1.0, abs(beta_next)):
            beta = beta_next
            break
        beta = beta_next
    else:
        return None
    z = np.exp(-(x - minimum) / beta)
    location = minimum - beta * math.log(float(z.sum()) / n)
    if not math.isfinite(location):
        return None
    return location, beta


def fit_gumbel_mle(samples) -> GumbelFit:
    """Maximum-likelihood fit (vectorised Newton solve, scipy/moments fallback)."""
    data = _validate(samples)
    guess = fit_gumbel_moments(data)
    solved = _solve_mle_scale(data, guess.scale)
    if solved is None:
        # Imported on use: loading SciPy's statistics package takes about a
        # second, and the Newton solve above almost never needs it.
        from scipy import stats

        try:
            solved = stats.gumbel_r.fit(data, loc=guess.location, scale=guess.scale)
        except (RuntimeError, ValueError):
            return guess
    location, scale = solved
    if not np.isfinite(location) or not np.isfinite(scale) or scale <= 0:
        return guess
    return GumbelFit(
        location=float(location), scale=float(scale), method="mle", sample_size=data.size
    )
