"""Certification math: region tables, Neyman-Pearson bounds, budgets, radii."""

import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elegant.certify import (
    attribute_radius,
    positive_prob_lower_bound,
    region_table,
    structure_budget,
)

import oracles

# the outer Clopper-Pearson bound of a constant positive vote over 200 samples
P_CONST_200 = 0.3 ** (1.0 / 200)  # 0.9939982190557052


def test_region_table_k1():
    t = region_table(1, 0.8)
    assert t.ratio_index == (1, -1)
    assert t.prob_clean == pytest.approx((0.8, 0.2))
    assert t.prob_perturbed == pytest.approx((0.2, 0.8))


def test_region_table_k2():
    t = region_table(2, 0.8)
    assert t.ratio_index == (2, 0, -2)
    assert t.prob_clean == pytest.approx((0.64, 0.32, 0.04), abs=1e-15)
    assert t.prob_perturbed == pytest.approx((0.04, 0.32, 0.64), abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 33, 64])
@pytest.mark.parametrize("beta", [0.6, 0.7, 0.8, 0.9, 0.99])
def test_region_table_invariants(k, beta):
    t = region_table(k, beta)
    assert len(t.ratio_index) == k + 1
    assert list(t.ratio_index) == list(range(k, -k - 1, -2))
    assert sum(t.prob_clean) == pytest.approx(1.0, abs=1e-12)
    assert sum(t.prob_perturbed) == pytest.approx(1.0, abs=1e-12)
    # per-region density ratio matches (beta/(1-beta))^index to 1e-9 relative
    for pos, i in enumerate(t.ratio_index):
        got = t.prob_clean[pos] / t.prob_perturbed[pos]
        want = (beta / (1.0 - beta)) ** i
        assert got == pytest.approx(want, rel=1e-9)


def test_region_table_rejects_bad_inputs():
    with pytest.raises(ValueError):
        region_table(0, 0.8)
    with pytest.raises(ValueError):
        region_table(3, 0.5)
    with pytest.raises(ValueError):
        region_table(3, 1.0)


@pytest.mark.parametrize("d_total,k", [(1, 1), (5, 1), (5, 5), (12, 3), (20, 7)])
@pytest.mark.parametrize("beta", [0.6, 0.8, 0.9])
def test_full_dimension_route_matches_reduced_table(d_total, k, beta):
    idx_full, clean_full, pert_full = oracles.region_probs_full(d_total, k, beta)
    t = region_table(k, beta)
    assert idx_full == t.ratio_index
    for a, b in zip(clean_full, t.prob_clean):
        assert a == pytest.approx(b, abs=1e-12)
    for a, b in zip(pert_full, t.prob_perturbed):
        assert a == pytest.approx(b, abs=1e-12)


def test_bound_worked_examples():
    # one flip, beta 0.8: consume 0.8 from the ratio-4 region (pays 0.2) and
    # 0.1 from the ratio-1/4 region (pays 0.4): 0.2 + 0.1 * 4 * ... = 0.6
    assert positive_prob_lower_bound(0.9, 1, 0.8) == pytest.approx(0.6, abs=1e-12)
    assert positive_prob_lower_bound(0.9, 2, 0.8) == pytest.approx(0.30, abs=1e-12)
    assert positive_prob_lower_bound(0.99, 3, 0.8) == pytest.approx(0.48, abs=1e-12)


def test_bound_edge_cases():
    assert positive_prob_lower_bound(0.7, 0, 0.8) == 0.7
    assert positive_prob_lower_bound(1.0, 5, 0.8) == 1.0
    assert positive_prob_lower_bound(0.0, 3, 0.8) == 0.0
    with pytest.raises(ValueError):
        positive_prob_lower_bound(1.2, 1, 0.8)
    with pytest.raises(ValueError):
        positive_prob_lower_bound(0.9, -1, 0.8)
    with pytest.raises(ValueError):
        positive_prob_lower_bound(0.9, 1, 0.5)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("beta", [0.6, 0.8, 0.9])
@pytest.mark.parametrize("p", [0.55, 0.7, 0.9, 0.99, 0.999])
def test_bound_matches_enumeration_oracles(k, beta, p):
    got = positive_prob_lower_bound(p, k, beta)
    assert got == pytest.approx(float(oracles.np_bound_exact(p, k, beta)), abs=1e-12)


def test_structure_budget_frozen_values():
    assert structure_budget(0.9, 0.8, 8) == 1
    assert structure_budget(0.99, 0.8, 8) == 2
    # constant-positive vote over 200 outer samples at alpha = 0.3
    assert structure_budget(P_CONST_200, 0.8, 64) == 4
    assert structure_budget(P_CONST_200, 0.9, 16) == 2
    assert structure_budget(P_CONST_200, 0.7, 16) == 9
    # weak noise stretches the budget to the cap
    assert structure_budget(P_CONST_200, 0.6, 16) == 16


def test_structure_budget_saturates_at_kmax_for_certain_vote():
    for beta in (0.6, 0.8, 0.9):
        assert structure_budget(1.0, beta, 16) == 16


def test_structure_budget_boundary_is_strict():
    # at p = 7/8, beta = 4/5 the k = 1 bound equals 1/2 exactly in rational
    # arithmetic; the float route lands within 1e-9 of 1/2 and the exact
    # confirmation must refuse to certify
    assert structure_budget(0.875, 0.8, 4) == 0


def test_structure_budget_degenerate_inputs(caplog):
    with caplog.at_level(logging.WARNING, logger="elegant.certify"):
        assert structure_budget(0.4, 0.8, 8) == 0
        assert structure_budget(0.5, 0.8, 8) == 0
    assert any("certifies nothing" in r.message for r in caplog.records)
    assert structure_budget(0.9, 0.8, 0) == 0
    with pytest.raises(ValueError):
        structure_budget(0.9, 0.8, -1)
    with pytest.raises(ValueError):
        structure_budget(0.9, 1.2, 8)


@given(
    p1=st.floats(min_value=0.501, max_value=0.999999),
    p2=st.floats(min_value=0.501, max_value=0.999999),
    beta=st.floats(min_value=0.51, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_structure_budget_monotone_in_p_lower(p1, p2, beta):
    lo, hi = sorted((p1, p2))
    assert structure_budget(lo, beta, 12) <= structure_budget(hi, beta, 12)


@given(
    p=st.floats(min_value=0.0, max_value=0.999999),
    k=st.integers(min_value=1, max_value=10),
    beta=st.floats(min_value=0.51, max_value=0.99),
)
@settings(max_examples=80, deadline=None)
def test_bound_monotone_in_p_lower(p, k, beta):
    eps = 0.0005
    if p + eps > 1.0:
        return
    assert positive_prob_lower_bound(p, k, beta) <= positive_prob_lower_bound(p + eps, k, beta) + 1e-12


def test_attribute_radius_frozen_value():
    # sigma = 0.5, p = 0.9: 0.5 * Phi^{-1}(0.9)
    assert attribute_radius(0.9, 0.5) == pytest.approx(0.6407757827723002, abs=1e-12)


def test_attribute_radius_edge_cases():
    assert attribute_radius(0.5, 1.0) == 0.0
    assert attribute_radius(0.3, 1.0) == 0.0
    assert attribute_radius(1.0, 1.0) == float("inf")
    with pytest.raises(ValueError):
        attribute_radius(0.9, 0.0)
    with pytest.raises(ValueError):
        attribute_radius(0.9, -1.0)
    # NaN would give a NaN radius and inf an infinite one; SmoothingConfig refuses both too
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            attribute_radius(0.9, sigma)
    with pytest.raises(ValueError):
        attribute_radius(1.5, 1.0)


def test_attribute_radius_array_equals_scalar_calls():
    p = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.9, 0.999, 1.0])
    for sigma in (0.05, 0.5, 3.0):
        got = attribute_radius(p.reshape(2, 4), sigma)
        assert got.shape == (2, 4)
        want = np.array([attribute_radius(float(x), sigma) for x in p])
        assert got.ravel().tobytes() == want.tobytes()
        inside = (p > 0.5) & (p < 1.0)
        assert want[inside].tolist() == [sigma * attribute_radius(x, 1.0) for x in p[inside]]
    assert type(attribute_radius(0.9, 0.5)) is float
    assert type(attribute_radius(np.float64(0.3), 0.5)) is float
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="p_lower"):
            attribute_radius(np.array([0.9, bad]), 1.0)


@given(
    p=st.floats(min_value=0.501, max_value=0.9999),
    s1=st.floats(min_value=0.01, max_value=10.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_attribute_radius_linear_in_sigma(p, s1, scale):
    r1 = attribute_radius(p, s1)
    r2 = attribute_radius(p, s1 * scale)
    assert r2 == pytest.approx(r1 * scale, rel=1e-9)


@given(
    p1=st.floats(min_value=0.0, max_value=0.9999),
    p2=st.floats(min_value=0.0, max_value=0.9999),
    sigma=st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_attribute_radius_monotone_in_p(p1, p2, sigma):
    lo, hi = sorted((p1, p2))
    assert attribute_radius(lo, sigma) <= attribute_radius(hi, sigma) + 1e-12


def test_exact_rational_worked_example():
    # bound(0.9, 1, 0.8) = 3/5 exactly when inputs are exact rationals
    got = oracles.np_bound_exact(Fraction(9, 10), 1, Fraction(4, 5))
    assert got == Fraction(3, 5)
    got = oracles.np_bound_exact(Fraction(9, 10), 2, Fraction(4, 5))
    assert got == Fraction(3, 10)
