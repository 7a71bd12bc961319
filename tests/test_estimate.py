"""Quantile and confidence-bound checks against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elegant.certify import attribute_radius
from elegant.estimate import (
    binomial_lower_bound,
    binomial_lower_bound_vec,
)

import oracles

# frozen from bisection on the erf-based CDF (see oracles.norm_quantile)
PHI_INV_0975 = 1.9599639845400536
PHI_INV_09 = 1.2815515655446004

# the library evaluates the normal quantile only as attribute_radius(p, 1.0),
# Phi^{-1}(p) on (1/2, 1), so these tests check it there

# frozen from Simpson integration + bisection (oracles.beta_quantile); the
# Clopper-Pearson bound for (a, b - 1, q) is the q quantile of Beta(a, b)
BETA_5_3_MEDIAN = 0.635883913551917
BETA_180_21_Q03 = 0.8852182717006383


def test_normal_quantile_frozen_values():
    assert attribute_radius(0.975, 1.0) == pytest.approx(PHI_INV_0975, abs=1e-12)
    assert attribute_radius(0.9, 1.0) == pytest.approx(PHI_INV_09, abs=1e-12)
    assert attribute_radius(np.nextafter(0.5, 1.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_normal_quantile_symmetry():
    # Phi(-Phi^{-1}(p)) = 1 - p, the symmetry that turns the two-sided radius into sigma Phi^{-1}(p)
    for p in (0.6, 0.75, 0.9, 0.99, 0.999):
        assert oracles.norm_cdf(-attribute_radius(p, 1.0)) == pytest.approx(1.0 - p, abs=1e-12)


def test_normal_quantile_round_trip():
    # Phi(Phi^{-1}(p)) recovers p to 1e-12 across the open half-interval
    grid = np.linspace(0.5, 1.0 - 1e-6, 201)[1:]
    for p in grid:
        z = attribute_radius(float(p), 1.0)
        assert abs(oracles.norm_cdf(z) - p) <= 1e-12


def test_normal_quantile_domain():
    # the ends of the half-interval are masked, not evaluated; outside [0, 1] is an error
    assert attribute_radius(0.5, 1.0) == 0.0
    assert attribute_radius(1.0, 1.0) == float("inf")
    for bad in (-0.2, 1.1):
        with pytest.raises(ValueError):
            attribute_radius(bad, 1.0)


def test_beta_quantile_frozen_values():
    assert binomial_lower_bound(5, 2, 0.5).lower == pytest.approx(BETA_5_3_MEDIAN, abs=1e-10)
    assert binomial_lower_bound(180, 20, 0.3).lower == pytest.approx(BETA_180_21_Q03, abs=1e-10)


def test_beta_quantile_closed_form_b_equals_one():
    # Beta(n, 1), the bound after n successes and no failure, has CDF x^n, so its q quantile is q^(1/n)
    ns = np.array([1, 2, 10, 100, 150, 200])
    np.testing.assert_allclose(binomial_lower_bound_vec(ns, 0, 0.3), 0.3 ** (1.0 / ns), rtol=0, atol=1e-10)


def test_binomial_lower_bound_basic():
    b = binomial_lower_bound(180, 20, 0.3)
    assert b.point == pytest.approx(0.9)
    assert b.lower == pytest.approx(BETA_180_21_Q03, abs=1e-10)
    assert b.n_success == 180 and b.n_fail == 20 and b.alpha == 0.3
    # the bound must sit below the point estimate here
    assert b.lower < b.point


def test_binomial_lower_bound_zero_successes():
    assert binomial_lower_bound(0, 50, 0.3).lower == 0.0


def test_binomial_lower_bound_all_successes():
    # Beta(n, 1) closed form again, through the public API
    b = binomial_lower_bound(200, 0, 0.3)
    assert b.lower == pytest.approx(0.3 ** (1.0 / 200), abs=1e-10)
    assert b.lower < 1.0


def test_binomial_lower_bound_validation():
    with pytest.raises(ValueError):
        binomial_lower_bound(0, 0, 0.3)
    with pytest.raises(ValueError):
        binomial_lower_bound(-1, 5, 0.3)
    with pytest.raises(ValueError):
        binomial_lower_bound(5, 5, 0.0)


def test_vectorized_bounds_match_scalar():
    ns = np.array([0, 1, 37, 180, 200, 149])
    nf = np.array([50, 9, 13, 20, 0, 51])
    got = binomial_lower_bound_vec(ns, nf, 0.3)
    want = [binomial_lower_bound(int(a), int(b), 0.3).lower for a, b in zip(ns, nf)]
    np.testing.assert_allclose(got, want, atol=1e-12)


@given(
    n_success=st.integers(min_value=0, max_value=400),
    n_fail=st.integers(min_value=0, max_value=400),
    alpha=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_bound_below_point_and_in_range(n_success, n_fail, alpha):
    if n_success + n_fail == 0:
        return
    b = binomial_lower_bound(n_success, n_fail, alpha)
    assert 0.0 <= b.lower < 1.0
    # one-sided lower bounds never exceed the MLE
    assert b.lower <= b.point + 1e-12


@given(
    n=st.integers(min_value=10, max_value=300),
    k=st.integers(min_value=1, max_value=300),
    a1=st.floats(min_value=0.02, max_value=0.45),
    a2=st.floats(min_value=0.02, max_value=0.45),
)
@settings(max_examples=100, deadline=None)
def test_bound_monotone_in_alpha_and_successes(n, k, a1, a2):
    k = min(k, n)
    lo, hi = sorted((a1, a2))
    # smaller alpha -> more conservative (smaller) bound
    assert binomial_lower_bound(k, n - k, lo).lower <= binomial_lower_bound(k, n - k, hi).lower + 1e-12
    if k < n:
        # extra success -> bound cannot drop
        assert binomial_lower_bound(k, n - k, lo).lower <= binomial_lower_bound(k + 1, n - k - 1, lo).lower + 1e-12


def test_quantile_matches_simpson_oracle_on_grid():
    for a, b, q in [(2, 5, 0.25), (7, 7, 0.5), (30, 4, 0.1), (1, 1, 0.7)]:
        ref = oracles.beta_quantile(a, b, q)
        assert binomial_lower_bound(a, b - 1, q).lower == pytest.approx(ref, abs=5e-10)
