"""Certification mathematics for the dual smoothing construction.

Attribute side: with Gaussian noise of scale sigma on the vulnerable rows, a
binary smoothed vote with positive probability at least p_lower survives any
perturbation of those rows with L2 norm below sigma * Phi^{-1}(p_lower).

Structure side: with symmetric Bernoulli pair flips (keep probability
beta > 1/2), the worst case over all perturbations that differ in exactly k
pairs is a Neyman-Pearson problem whose optimum is attained region by
region on the likelihood ratio of the flip noise.  Region tables, the
greedy bound, and the budget search live here; the test suite cross-checks
them against a full-dimension recomputation of the region probabilities
and an exact rational enumeration of all 2^k noise patterns.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, fsum, lgamma, log, log1p

import numpy as np
from scipy import special

logger = logging.getLogger(__name__)

DEFAULT_K_MAX = 64
# float bounds this close to 1/2 are re-decided in exact rational arithmetic
BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class CertifiedBudgets:
    """Joint certificate: any eps_A pair flips plus any attribute change of L2 norm below eps_X."""

    eps_A: int
    eps_X: float


@dataclass(frozen=True)
class RegionTable:
    """Likelihood-ratio regions induced by k flipped pairs.

    Restricted to the k pairs where the clean and the perturbed graph
    differ, a noise outcome leaving a of them unflipped has clean/perturbed
    density ratio (beta / (1 - beta)) ** (2a - k).  Region i collects the
    outcomes with 2a - k = i, for i = k, k-2, ..., -k.  Entries are ordered
    by decreasing ratio index; prob_perturbed is prob_clean reversed because
    swapping the two base graphs negates every index.
    """

    k: int
    beta: float
    ratio_index: tuple[int, ...]
    prob_clean: tuple[float, ...]
    prob_perturbed: tuple[float, ...]


def _check_beta(beta: float) -> None:
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie strictly in (1/2, 1), got {beta}")


@lru_cache(maxsize=None)
def region_table(k: int, beta: float) -> RegionTable:
    """Exact region probabilities for k flipped pairs, computed in log space."""
    if k < 1:
        raise ValueError(f"region table needs k >= 1, got {k}")
    _check_beta(beta)
    lb = log(beta)
    l1b = log1p(-beta)
    index = []
    clean = []
    for a in range(k, -1, -1):  # a pairs left unflipped by the noise
        logp = lgamma(k + 1) - lgamma(a + 1) - lgamma(k - a + 1) + a * lb + (k - a) * l1b
        index.append(2 * a - k)
        clean.append(exp(logp))
    return RegionTable(
        k=k,
        beta=float(beta),
        ratio_index=tuple(index),
        prob_clean=tuple(clean),
        prob_perturbed=tuple(clean[::-1]),
    )


def positive_prob_lower_bound(p_lower: float, k: int, beta: float) -> float:
    """Worst-case smoothed positive probability after k adversarial pair flips.

    Greedy Neyman-Pearson optimum: the adversary places the classifier's
    positive mass in regions of decreasing clean/perturbed density ratio,
    which minimizes the perturbed positive probability subject to the clean
    positive probability being at least p_lower.  k = 0 returns p_lower
    unchanged; p_lower = 1 forces every noise outcome positive, so the
    perturbed probability is 1 as well.
    """
    if not 0.0 <= p_lower <= 1.0:
        raise ValueError(f"p_lower must lie in [0, 1], got {p_lower}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k == 0:
        return float(p_lower)
    _check_beta(beta)
    if p_lower == 1.0:
        return 1.0
    table = region_table(k, beta)
    remaining = p_lower
    parts = []
    for pc, pp in zip(table.prob_clean, table.prob_perturbed):
        if remaining <= 0.0:
            break
        take = pc if pc <= remaining else remaining
        parts.append(take * (pp / pc))
        remaining -= take
    return min(1.0, fsum(parts))


def _bound_exact(p_lower: float, k: int, beta: float) -> Fraction:
    """positive_prob_lower_bound in exact rational arithmetic (region route)."""
    pl = Fraction(p_lower)
    b = Fraction(beta)
    remaining = pl
    total = Fraction(0)
    for a in range(k, -1, -1):
        if remaining <= 0:
            break
        ways = comb(k, a)
        pc = ways * b**a * (1 - b) ** (k - a)
        pp = ways * b ** (k - a) * (1 - b) ** a
        take = pc if pc <= remaining else remaining
        total += take * pp / pc
        remaining -= take
    return total if total < 1 else Fraction(1)


def structure_budget(p_lower: float, beta: float, k_max: int = DEFAULT_K_MAX) -> int:
    """Number of pair flips the smoothed positive vote provably survives.

    The certificate covers every k <= eps_A, so the budget is the length of
    the certified prefix: k = 1, 2, ... up to k_max while the Neyman-Pearson
    bound stays strictly above 1/2, stopping at the first k that fails.
    Float bounds within BOUNDARY_SLACK of 1/2 are re-decided exactly, so
    ties at the boundary never certify.  Returns 0 when not even one flip is
    certified; p_lower <= 1/2 certifies nothing and logs a warning.
    """
    _check_beta(beta)
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if not 0.0 <= p_lower <= 1.0:
        raise ValueError(f"p_lower must lie in [0, 1], got {p_lower}")
    if p_lower <= 0.5:
        logger.warning("structure budget degenerate: p_lower=%.6g <= 1/2 certifies nothing", p_lower)
        return 0
    for k in range(1, k_max + 1):
        bound = positive_prob_lower_bound(p_lower, k, beta)
        if abs(bound - 0.5) <= BOUNDARY_SLACK:
            certified = _bound_exact(p_lower, k, beta) > Fraction(1, 2)
        else:
            certified = bound > 0.5
        if not certified:
            return k - 1
    return k_max


def attribute_radius(p_lower, sigma: float):
    """Certified L2 radius on the vulnerable attribute rows, elementwise.

    For a binary vote the Gaussian certificate is
    sigma / 2 * (Phi^{-1}(p_lower) - Phi^{-1}(1 - p_lower)), which collapses
    to sigma * Phi^{-1}(p_lower) by symmetry of the normal quantile.  Votes
    with p_lower <= 1/2 certify nothing and get radius 0; p_lower = 1 means
    the vote never changes under the noise and the radius is unbounded.
    p_lower may be a scalar, which returns a float, or an array, which
    returns an array of its shape.  Raises ValueError for a sigma that is
    not positive and finite, as SmoothingConfig does.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    p = np.asarray(p_lower, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p_lower must lie in [0, 1], got {p_lower}")
    radius = np.where(p <= 0.5, 0.0, sigma * special.ndtri(p))  # ndtri(1) is inf
    return float(radius) if radius.ndim == 0 else radius

