"""Heterogeneous CBA (H-CBA).

Section III-A of the paper describes two ways to give one core a larger share
of the bus bandwidth than the others while keeping the CBA machinery intact:

1. **Budget-cap growth** — let the favoured core's budget saturate above
   ``MaxL`` (e.g. ``2*MaxL``), so it can issue several requests back-to-back.
   Good for the favoured core, but creates temporal starvation windows for
   the others.
2. **Replenishment-share redistribution** — keep the total replenishment of 1
   budget cycle per clock cycle, but split it unevenly: in the paper's
   evaluation the task under analysis recovers 1/2 cycle of budget per cycle
   and each other core 1/6, which virtually allocates 50% of the bandwidth to
   the TuA.  This is the configuration labelled **H-CBA** in Figure 1.

Both variants are expressed here as factory functions that produce the
corresponding :class:`~repro.sim.config.CBAParameters` (wrap them in a
:class:`~repro.core.cba.CreditBasedArbiter`), plus a helper to reason about
the resulting bandwidth fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..sim.config import CBAParameters
from ..sim.errors import ConfigurationError

__all__ = [
    "heterogeneous_share_parameters",
    "budget_cap_parameters",
    "bandwidth_fractions",
]


def heterogeneous_share_parameters(
    num_cores: int,
    max_latency: int,
    favoured_core: int,
    favoured_fraction: Fraction | float = Fraction(1, 2),
) -> CBAParameters:
    """Build CBA parameters implementing the replenishment-share variant.

    The favoured core receives ``favoured_fraction`` of the total
    replenishment; the remaining fraction is split evenly among the other
    cores.  Fractions are converted to integer scaled shares by putting all
    shares over a common denominator, which preserves exactness (the paper's
    1/2 vs 1/6 becomes scaled shares 3 and 1 with drain 6 per busy cycle —
    equivalently, everything is simply measured in finer budget units).
    """
    if not 0 <= favoured_core < num_cores:
        raise ConfigurationError(f"favoured core {favoured_core} out of range")
    if num_cores < 2:
        raise ConfigurationError("heterogeneous sharing needs at least two cores")
    favoured = Fraction(favoured_fraction).limit_denominator(10_000)
    if not 0 < favoured < 1:
        raise ConfigurationError("favoured fraction must be strictly between 0 and 1")
    others = (1 - favoured) / (num_cores - 1)
    denominator = favoured.denominator
    denominator = denominator * others.denominator // gcd(denominator, others.denominator)
    shares = []
    for core in range(num_cores):
        fraction = favoured if core == favoured_core else others
        shares.append(int(fraction * denominator))
    if any(share <= 0 for share in shares):
        raise ConfigurationError("favoured fraction leaves another core with no share")
    # The per-cycle total replenishment must equal one bus cycle of budget,
    # i.e. the drain applied per busy cycle.  With shares over `denominator`
    # the drain per busy cycle is exactly `denominator` fine-grained units,
    # and the full budget is `denominator * MaxL` units.  We express this by
    # reusing CBAParameters with a virtual core count equal to `denominator`.
    return CBAParameters(
        max_latency=max_latency,
        num_cores=num_cores,
        replenish_shares=tuple(shares),
        budget_caps=None,
        initial_budget=None,
    )


def budget_cap_parameters(
    num_cores: int,
    max_latency: int,
    favoured_core: int,
    cap_multiplier: int = 2,
) -> CBAParameters:
    """Build CBA parameters implementing the budget-cap variant.

    The favoured core's budget may saturate at ``cap_multiplier * MaxL``
    (scaled), letting it issue up to ``cap_multiplier`` maximum-length
    requests back-to-back once it has been idle long enough.
    """
    if not 0 <= favoured_core < num_cores:
        raise ConfigurationError(f"favoured core {favoured_core} out of range")
    if cap_multiplier < 1:
        raise ConfigurationError("cap multiplier must be at least 1")
    full = num_cores * max_latency
    caps = tuple(
        full * cap_multiplier if core == favoured_core else full
        for core in range(num_cores)
    )
    return CBAParameters(
        max_latency=max_latency,
        num_cores=num_cores,
        replenish_shares=None,
        budget_caps=caps,
        initial_budget=None,
    )


def bandwidth_fractions(params: CBAParameters) -> list[Fraction]:
    """Long-run bandwidth fraction each core can sustain under saturation.

    Under CBA a core that keeps the bus saturated can use at most as much bus
    time per cycle as it replenishes, so its sustainable share is its
    replenishment share divided by the total replenishment.
    """
    shares = [Fraction(params.share_for(core)) for core in range(params.num_cores)]
    total = sum(shares)
    return [share / total for share in shares]
