"""Extreme value theory machinery: block maxima and tail fitting.

The MBPTA flow implemented here follows the standard recipe:

1. collect ``R`` end-to-end execution-time observations of the task under
   analysis under the analysis-time (worst contention) scenario;
2. group them into blocks and keep each block's maximum (block maxima);
3. fit a Gumbel distribution to the block maxima;
4. check the fit (Kolmogorov–Smirnov goodness-of-fit against the fitted
   Gumbel);
5. project the fitted tail to the exceedance probabilities of interest
   (the pWCET curve, see :mod:`repro.mbpta.pwcet`).

EVT keeps only the high execution times, which is why MBPTA is robust to
effects that change the *average* behaviour but not the tail — the property
the paper appeals to when discussing the ``tblook`` cache-placement
sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.errors import AnalysisError
from .gumbel import GumbelFit, fit_gumbel_mle, fit_gumbel_moments
from .iid import TestResult

__all__ = ["block_maxima", "goodness_of_fit", "EVTFit", "fit_evt"]


def block_maxima(samples, block_size: int = 10) -> np.ndarray:
    """Split ``samples`` into consecutive blocks and return each block's maximum.

    Trailing observations that do not fill a complete block are dropped, as is
    standard (they would bias the block-maximum distribution downwards).  The
    extraction is one reshape + row-max over the sample array; a ``float64``
    input (e.g. the read-only campaign sample vector) is used without copying.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 1:
        raise AnalysisError("samples must be one-dimensional")
    if block_size < 1:
        raise AnalysisError("block size must be at least 1")
    num_blocks = data.size // block_size
    if num_blocks < 2:
        raise AnalysisError(
            f"need at least 2 complete blocks (block_size={block_size}, "
            f"samples={data.size})"
        )
    trimmed = data[: num_blocks * block_size]
    return trimmed.reshape(num_blocks, block_size).max(axis=1)


def goodness_of_fit(samples, fit: GumbelFit, alpha: float = 0.05) -> TestResult:
    """One-sample KS test of ``samples`` against the fitted Gumbel.

    The statistic and the exact p-value are the float operations of
    SciPy's ``kstest(samples, "gumbel_r", args=(location, scale))``.
    """
    # The KS distribution needs scipy.special, which is imported on use:
    # the simulator alone never loads SciPy.
    from .ks_distribution import kstwo_sf

    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = data.size
    cdf = fit.cdf(data)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0.0, n) / n))
    statistic = d_plus if d_plus > d_minus else d_minus
    p_value = kstwo_sf(statistic, n)
    return TestResult(
        name="ks_goodness_of_fit",
        statistic=float(statistic),
        p_value=float(p_value),
        passed=bool(p_value > alpha),
        alpha=alpha,
        details=f"against Gumbel(mu={fit.location:.1f}, beta={fit.scale:.1f})",
    )


@dataclass(frozen=True)
class EVTFit:
    """Result of the EVT step: the tail model and its diagnostics."""

    fit: GumbelFit
    block_size: int
    num_blocks: int
    gof: TestResult

    @property
    def acceptable(self) -> bool:
        """Whether the tail model passed the goodness-of-fit check."""
        return self.gof.passed

    def as_dict(self) -> dict[str, object]:
        return {
            "fit": self.fit.as_dict(),
            "block_size": self.block_size,
            "num_blocks": self.num_blocks,
            "goodness_of_fit": self.gof.as_dict(),
        }


def fit_evt(
    samples,
    block_size: int = 10,
    use_mle: bool = True,
    alpha: float = 0.05,
) -> EVTFit:
    """Run the block-maxima + Gumbel pipeline on raw execution times."""
    maxima = block_maxima(samples, block_size=block_size)
    if np.std(maxima) == 0:
        # A perfectly deterministic tail (possible for tiny tests): widen it
        # with the raw sample's variability so a degenerate fit still yields a
        # usable, conservative model instead of crashing.
        raw = np.asarray(samples, dtype=np.float64)
        jitter = max(np.std(raw), 1.0) * 1e-3
        maxima = maxima + np.linspace(0.0, jitter, maxima.size)
    fitter = fit_gumbel_mle if use_mle else fit_gumbel_moments
    fit = fitter(maxima)
    gof = goodness_of_fit(maxima, fit, alpha=alpha)
    return EVTFit(fit=fit, block_size=block_size, num_blocks=int(maxima.size), gof=gof)
