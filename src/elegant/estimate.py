"""One-sided binomial lower confidence bounds.

Both smoothing layers reduce their Monte-Carlo evidence to the same
primitive: given n_success hits out of n trials, a lower confidence bound
on the underlying probability that holds with confidence 1 - alpha.  We use
the one-sided Clopper-Pearson construction, i.e. the alpha quantile of
Beta(n_success, n_fail + 1), which is exact (conservative) for binomial
data and well defined even when one count is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class ProbabilityBound:
    """Point estimate and one-sided lower confidence bound for a Bernoulli mean."""

    point: float
    lower: float
    n_success: int
    n_fail: int
    alpha: float


def binomial_lower_bound(n_success: int, n_fail: int, alpha: float) -> ProbabilityBound:
    """One-sided lower confidence bound for a binomial proportion.

    Returns the alpha quantile of Beta(n_success, n_fail + 1), the
    Clopper-Pearson bound: with probability at least 1 - alpha over the
    sampling, the true success probability is >= the bound.  n_success = 0
    gives bound 0 exactly.  The bound itself, and the input checks, come
    from binomial_lower_bound_vec.

    Parameters
    ----------
    n_success, n_fail : nonnegative counts with at least one trial total.
    alpha : miscoverage level in (0, 1).
    """
    lower = float(binomial_lower_bound_vec(n_success, n_fail, alpha))
    return ProbabilityBound(
        point=n_success / (n_success + n_fail),
        lower=lower,
        n_success=int(n_success),
        n_fail=int(n_fail),
        alpha=float(alpha),
    )


def binomial_lower_bound_vec(n_success: np.ndarray, n_fail: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized Clopper-Pearson lower bounds; zero successes map to 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    ns = np.asarray(n_success, dtype=np.float64)
    nf = np.asarray(n_fail, dtype=np.float64)
    if np.any(ns < 0) or np.any(nf < 0) or np.any(ns + nf < 1):
        raise ValueError("counts must be nonnegative with at least one trial")
    # betaincinv rejects a = 0, so compute on clamped counts and mask after
    out = special.betaincinv(np.maximum(ns, 1.0), nf + 1.0, alpha)
    return np.where(ns == 0, 0.0, out)
