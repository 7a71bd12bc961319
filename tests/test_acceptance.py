"""Acceptance suite: the eight behavioral guarantees the package ships under.

One test per guarantee, so `pytest -v` prints one verdict line each.  Where
a guarantee carries a time box the elapsed wall time is asserted too.
"""

import json
import os
import time
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
from elegant.cli import (
    build_config,
    load_models,
    load_world,
    main,
    make_parser,
    resolve_eta,
    smoothing_config,
    threshold_fractions,
)
from elegant.data import Graph
from elegant.estimate import binomial_lower_bound_vec, std_normal_quantile
from elegant.gnn import GcnModel
from elegant.pipeline import CERTIFIED, certify_and_predict, fcr_run
from elegant.smoothing import eligible_pairs
from oracles import finite_difference_loss_grads, norm_cdf, np_bound_exact, region_probs_full


@pytest.fixture(scope="module")
def sbm200_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc200")
    cfg_path = root / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dataset": {"fixture": "sbm200"},
                "smoothing": {"n_outer": 60, "n_inner": 40},
                "fcr": {"ratio": 0.5, "count": 3},
            }
        )
    )
    out = str(root / "run")
    assert main(["train", "--config", str(cfg_path), "--out", out, "--seed", "0"]) == 0
    return {"config": str(cfg_path), "out": out}


@pytest.fixture(scope="module")
def german_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accg") / "run")
    assert main(["train", "--out", out, "--seed", "0"]) == 0
    t0 = time.monotonic()
    rc = main(["fcr", "--out", out, "--seed", "0"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    return {"out": out, "fcr_seconds": elapsed}


def test_structure_bound_matches_exhaustive_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (0.6, 0.7, 0.8, 0.9):
        for k in range(1, 13):
            for p_lower in (0.55, 0.7, 0.9, 0.99):
                got = positive_prob_lower_bound(p_lower, k, beta)
                want = float(np_bound_exact(p_lower, k, beta))
                worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_full_dimension_region_sums_match_reduced_table():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (0.6, 0.75, 0.9):
        for d_total in range(1, 21):
            for k in range(1, d_total + 1):
                idx, clean, pert = region_probs_full(d_total, k, beta)
                table = region_table(k, beta)
                assert idx == table.ratio_index
                worst = max(worst, float(np.max(np.abs(np.array(clean) - np.array(table.prob_clean)))))
                worst = max(worst, float(np.max(np.abs(np.array(pert) - np.array(table.prob_perturbed)))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_gcn_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 5))
        h = int(rng.integers(2, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n=n, edges=frozenset(pairs))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, size=n)
        idx = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        model = GcnModel.init(rng, d=d, hidden=h, classes=2)
        ops = model.build_ops(g)
        _, grads, dX = model.loss_grads(ops, X, y, idx)
        fd_grads, fd_X = finite_difference_loss_grads(model, ops, X, y, idx, step=1e-5)
        for name in fd_grads:
            a, f = grads[name], fd_grads[name]
            worst = max(worst, float(np.max(np.abs(a - f) / np.maximum(1.0, np.abs(f)))))
        worst = max(worst, float(np.max(np.abs(dX - fd_X) / np.maximum(1.0, np.abs(fd_X)))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_quantile_kernels_round_trip_and_coverage():
    # normal quantile against an erf-based CDF
    grid = np.linspace(5e-4, 1.0 - 5e-4, 200)
    worst = max(abs(norm_cdf(std_normal_quantile(float(p))) - float(p)) for p in grid)
    assert worst <= 1e-10

    # the bound after n successes and no failure is the alpha quantile of
    # Beta(n, 1), which has the closed form alpha ** (1/n)
    for n in (1, 2, 3, 5, 10, 50, 100, 200, 500):
        for alpha in (0.05, 0.3, 0.5, 0.9):
            assert abs(float(binomial_lower_bound_vec(n, 0, alpha)) - alpha ** (1.0 / n)) <= 1e-10

    # one-sided lower bounds cover the truth at least 1 - alpha of the time
    rng = np.random.default_rng(7)
    for trials, p_true, alpha in ((60, 0.65, 0.3), (25, 0.9, 0.1)):
        hits = rng.binomial(trials, p_true, size=10_000)
        lows = binomial_lower_bound_vec(hits, trials - hits, alpha)
        coverage = float(np.mean(lows <= p_true))
        floor = (1.0 - alpha) - 3.0 * np.sqrt(alpha * (1.0 - alpha) / 10_000)
        assert coverage >= floor


def test_certificates_survive_inbudget_perturbations(sbm200_run):
    t0 = time.monotonic()
    args = make_parser().parse_args(["fcr", "--out", sbm200_run["out"], "--seed", "0"])
    cfg = build_config(sbm200_run["config"], args)
    g, X, labels, split = load_world(cfg)
    vanilla, noise = load_models(cfg, X.shape[1])
    eta = resolve_eta(cfg, vanilla, g, X, labels, split)
    scfg = smoothing_config(cfg, eta)

    result = fcr_run(noise, g, X, labels, split, scfg, ratio=0.5, count=2, eta=eta)
    certified = [r for r in result.reports if r.outcome == CERTIFIED]
    assert certified, "nothing certified; the guarantee would be vacuous"

    pairs = eligible_pairs(g.n, split.vulnerable)
    vul = np.asarray(split.vulnerable, dtype=np.int64)
    rng = np.random.default_rng(12345)
    violations = 0
    for rep in certified:
        eps_a, eps_x = rep.budgets.eps_A, rep.budgets.eps_X
        for _ in range(200):
            k = int(rng.integers(0, eps_a + 1))
            if k:
                pick = rng.choice(pairs.shape[0], size=k, replace=False)
                flips = {(int(pairs[i, 0]), int(pairs[i, 1])) for i in pick}
                g2 = Graph(n=g.n, edges=g.edges.symmetric_difference(flips))
            else:
                g2 = g
            delta = rng.normal(size=(vul.size, X.shape[1]))
            delta *= rng.uniform(0.0, eps_x) / np.linalg.norm(delta)
            X2 = X.copy()
            X2[vul] += delta
            rep2 = certify_and_predict(noise, g2, X2, labels, split, rep.test_set, scfg, eta=eta)
            if rep2.selected_bias is not None and rep2.selected_bias >= eta.eta:
                violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 300.0


def test_reference_pipeline_certifies_benchmark_fixture(german_run):
    with open(os.path.join(german_run["out"], "fcr.json")) as fh:
        fcr = json.load(fh)
    with open(os.path.join(german_run["out"], "metrics.json")) as fh:
        metrics = json.load(fh)
    assert fcr["count"] == 100
    assert fcr["fcr"] >= 0.85
    assert fcr["mean_bias"] <= metrics["vanilla"]["delta_sp"]
    assert abs(fcr["mean_accuracy"] - metrics["vanilla"]["accuracy"]) <= 0.05
    assert german_run["fcr_seconds"] <= 600.0


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    q=st.floats(0.0, 1.0),
    beta=st.floats(0.55, 0.99),
    sigma=st.floats(1e-3, 50.0),
    budgets=st.lists(st.floats(0.0, 100.0), max_size=30),
    thresholds=st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True),
)
def test_budget_monotonicity_properties(p, q, beta, sigma, budgets, thresholds):
    lo, hi = sorted((p, q))
    assert structure_budget(lo, beta, k_max=8) <= structure_budget(hi, beta, k_max=8)

    # the certificate covers every k <= eps_A: the exact bound never rises
    # with k, and the budget is the length of the certified prefix
    bounds = [Fraction(hi)] + [np_bound_exact(hi, k, beta) for k in range(1, 9)]
    assert all(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:]))
    prefix = next((k - 1 for k in range(1, 9) if bounds[k] <= Fraction(1, 2)), 8)
    assert structure_budget(hi, beta, k_max=8) == prefix

    assert attribute_radius(hi, sigma) == pytest.approx(sigma * attribute_radius(hi, 1.0), rel=1e-12)
    assert attribute_radius(lo, sigma) <= attribute_radius(hi, sigma) + 1e-9

    grid = sorted(set([0] + thresholds))
    cells = threshold_fractions(budgets, grid, max(len(budgets), 1))
    values = [cells[f"thr_{t:g}"] for t in grid]
    assert values == sorted(values, reverse=True)


def test_fcr_artifact_identical_across_job_counts(sbm200_run):
    base = ["fcr", "--config", sbm200_run["config"], "--out", sbm200_run["out"], "--seed", "0"]
    path = os.path.join(sbm200_run["out"], "fcr.json")
    assert main(base + ["--jobs", "1"]) == 0
    with open(path, "rb") as fh:
        serial = fh.read()
    assert main(base + ["--jobs", "4"]) == 0
    with open(path, "rb") as fh:
        threaded = fh.read()
    assert serial == threaded
