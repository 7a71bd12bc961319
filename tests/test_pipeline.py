"""Certification pipeline: vote aggregation, abstain rules, selection."""

import itertools
import logging
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from elegant import gnn, pipeline, smoothing
from elegant.certify import attribute_radius
from elegant.data import Graph, NodeLabels, SplitSpec
from elegant.estimate import binomial_lower_bound
from elegant.fairness import BiasThreshold, UndefinedMetricError, bias_value, metric_groups
from elegant.pipeline import (
    ABSTAIN,
    CERTIFIED,
    CertificationReport,
    FcrResult,
    PredictionCache,
    certify_and_predict,
    certify_sets,
    fcr_run,
    prop1_bound,
    select_fair_output,
)
from elegant.smoothing import SmoothingConfig


class _ConstantModel:
    """Predicts a fixed class everywhere, whatever the noise does."""

    backbone = "gcn"

    def __init__(self, cls=1, classes=2):
        self.cls = cls
        self.C = classes

    @staticmethod
    def build_ops(g):
        return g

    def forward(self, ops, X):
        out = np.zeros((X.shape[0], self.C))
        out[:, self.cls] = 1.0
        return out

    def forward_many(self, ops, X, rows, deltas, out):
        out[...] = self.cls
        return out


def _world(n=24, vul=(0, 1)):
    g = Graph(n=n, edges=frozenset({(0, 1), (2, 3)}))
    X = np.zeros((n, 3))
    # alternate sensitive groups so sp is defined on any even slice
    labels = NodeLabels(y=np.tile([0, 1], n // 2), s=np.tile([0, 1], n // 2))
    pool = tuple(range(n))
    split = SplitSpec(train=(), validation=(), test_pool=pool, vulnerable=vul)
    return g, X, labels, split


def test_prop1_bound():
    assert prop1_bound(0) == 1.0
    assert prop1_bound(3) == 0.125
    with pytest.raises(ValueError):
        prop1_bound(-1)


def test_constant_fair_model_certifies():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=60, n_inner=20, master_seed=0)
    rep = certify_and_predict(_ConstantModel(), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.25))
    assert rep.outcome == CERTIFIED
    # constant class 1 everywhere: zero bias on every draw, unanimous votes
    assert rep.n_outer_positive == 60
    assert rep.selected_bias == 0.0
    assert rep.budgets.eps_A >= 1
    assert rep.budgets.eps_X > 0
    assert rep.prop1_bound == pytest.approx(0.5**60)
    assert rep.selected_prediction.dtype == np.uint8
    np.testing.assert_array_equal(rep.selected_prediction, np.ones(g.n))
    assert rep.accuracy == pytest.approx(0.5)


def test_budget_saturates_at_k_max_for_weak_flip_noise():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=200, n_inner=5, beta=0.6, k_max=16, master_seed=0)
    rep = certify_and_predict(_ConstantModel(), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.25))
    assert rep.outcome == CERTIFIED
    assert rep.budgets.eps_A == 16  # frozen: beta=0.6 bound stays above 1/2 through k_max


def test_eta_zero_abstains():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=20, n_inner=10, master_seed=0)
    rep = certify_and_predict(_ConstantModel(), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.0))
    assert rep.outcome == ABSTAIN
    assert rep.budgets is None
    assert rep.selected_prediction is None
    assert rep.abstain_reason


class _FixedClassModel(_ConstantModel):
    """Predicts a given class vector on every draw; class s is bias 1."""

    def __init__(self, classes):
        super().__init__()
        self.classes = np.asarray(classes)

    def forward(self, ops, X):
        out = np.zeros((X.shape[0], 2))
        out[np.arange(X.shape[0]), self.classes] = 1.0
        return out

    def forward_many(self, ops, X, rows, deltas, out):
        out[...] = self.classes
        return out


def test_certifiably_biased_model_abstains_without_undecided():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=30, n_inner=20, master_seed=0)
    rep = certify_and_predict(_FixedClassModel(labels.s), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.5))
    # every inner vote certifies the biased side; strict mode has nothing
    # undecided, the outer bound just fails
    assert rep.outcome == ABSTAIN
    assert rep.n_outer_positive == 0
    assert "outer" in rep.abstain_reason


def test_indicator_is_strict_at_eta():
    g, X, labels, split = _world()
    # class 1 on 6 of the 12 s=0 nodes and 3 of the 12 s=1 nodes: bias exactly 1/2 - 1/4
    classes = np.zeros(g.n, dtype=int)
    classes[[0, 2, 4, 6, 8, 10, 1, 3, 5]] = 1
    model = _FixedClassModel(classes)
    cfg = SmoothingConfig(n_outer=4, n_inner=10, master_seed=0)
    for eta, n1 in ((0.25, 0), (np.nextafter(0.25, 1.0), cfg.n_inner)):
        rep = certify_and_predict(model, g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(eta))
        assert [r.n1 for r in rep.records] == [n1] * cfg.n_outer


class _StreamParityModel(_ConstantModel):
    """Bias flips with the attribute draw: even inner streams fair, odd biased."""

    def __init__(self, s):
        super().__init__()
        self.s = np.asarray(s)

    def forward_many(self, ops, X, rows, deltas, out):
        # the noise block is the only thing varying per stream; use its
        # sign as a fair-coin proxy to split the inner votes near 50/50
        out[...] = np.where(deltas[:, :1, 0] > 0, 1, self.s)
        return out


def test_strict_mode_aborts_on_undecided_inner_vote():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=10, n_inner=40, master_seed=0, strict=True)
    rep = certify_and_predict(_StreamParityModel(labels.s), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.5))
    assert rep.outcome == ABSTAIN
    assert "undecided" in rep.abstain_reason


def test_tolerant_mode_counts_undecided_against():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=10, n_inner=40, master_seed=0, strict=False)
    rep = certify_and_predict(_StreamParityModel(labels.s), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.5))
    # no abort, but the undecided votes count as failures and sink the bound
    assert rep.outcome == ABSTAIN
    assert "outer" in rep.abstain_reason


def test_undefined_metric_forces_zero_indicators(caplog):
    g, X, labels, split = _world()
    one_group = NodeLabels(y=labels.y, s=np.zeros(g.n, dtype=int))
    cfg = SmoothingConfig(n_outer=8, n_inner=5, master_seed=0)
    with caplog.at_level("WARNING"):
        rep = certify_and_predict(_ConstantModel(), g, X, one_group, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.5))
    assert rep.outcome == ABSTAIN
    assert rep.n_outer_positive == 0
    assert any("undefined" in r.message for r in caplog.records)


def test_test_set_validation():
    g, X, labels, split = _world()
    cfg, eta = SmoothingConfig(n_outer=4, n_inner=4, master_seed=0), BiasThreshold.absolute(0.1)
    with pytest.raises(ValueError, match="vulnerable nodes must belong to the test set; test set 0 lacks node 0"):
        certify_and_predict(_ConstantModel(), g, X, labels, split, (4, 5, 6), cfg, eta=eta)
    with pytest.raises(ValueError, match="vulnerable nodes must belong to the test set; test set 1 lacks node 1"):
        certify_sets(_ConstantModel(), g, X, labels, split, [(0, 1, 3), (5, 0, 4)], cfg, eta=eta)
    small_pool = SplitSpec(train=(2,), validation=(), test_pool=tuple(range(3, g.n)) + (0, 1), vulnerable=split.vulnerable)
    for outside in (2, -1, g.n):
        with pytest.raises(ValueError, match=re.escape(f"test set 0 must lie in the test pool; node {outside} does not")):
            certify_and_predict(_ConstantModel(), g, X, labels, small_pool, (0, 1, 3, outside), cfg, eta=eta)
        with pytest.raises(ValueError, match=re.escape(f"test set 2 must lie in the test pool; node {outside} does not")):
            certify_sets(_ConstantModel(), g, X, labels, small_pool, np.array([[0, 1, 3], [1, 0, 4], [0, outside, 1]]), cfg, eta=eta)
    bad = SplitSpec(train=(), validation=(), test_pool=split.test_pool, vulnerable=())
    with pytest.raises(ValueError, match="nonempty"):
        certify_and_predict(_ConstantModel(), g, X, labels, bad, split.test_pool, cfg, eta=eta)


def _grid(bias, eligible=None):
    """Cache classes[o, i] = [o, i, 7], so the picked draw names itself."""
    bias = np.asarray(bias, dtype=np.float64)
    n_outer, n_inner = bias.shape
    classes = np.array([[[o, i, 7] for i in range(n_inner)] for o in range(n_outer)], dtype=np.uint8)
    return classes, bias, np.ones(bias.shape, dtype=bool) if eligible is None else np.asarray(eligible)


def test_select_fair_output_minimum_bias():
    classes, bias, eligible = _grid([[0.4, 0.3], [0.1, 0.2], [0.2, 0.5]])
    pred, b = select_fair_output(classes, bias, eligible)
    assert b == 0.1
    assert pred.dtype == np.uint8
    np.testing.assert_array_equal(pred, [1, 0, 7])
    pred[0] = 9
    assert classes[1, 0, 0] == 1  # the selection is a copy


def test_select_fair_output_tie_breaks_on_stream():
    # equal bias at (0, 3) and (1, 0): stream id 3 comes before 4
    bias = np.full((2, 4), 0.5)
    bias[0, 3] = bias[1, 0] = 0.2
    pred, b = select_fair_output(*_grid(bias))
    assert b == 0.2
    np.testing.assert_array_equal(pred, [0, 3, 7])


def test_select_fair_output_skips_uncertified():
    eligible = np.array([[False, True], [True, False]])
    classes, bias, _ = _grid([[0.05, 0.3], [0.2, 0.1]])
    pred, b = select_fair_output(classes, bias, eligible)
    assert b == 0.2
    np.testing.assert_array_equal(pred, [1, 0, 7])
    with pytest.raises(ValueError):
        select_fair_output(classes, bias, np.zeros_like(eligible))


def _random_cache_world(seed, eta=0.6, n_outer=12, n_inner=6, vul=(0, 1)):
    """The eight-node world with a hand-built cache of uniform random classes, plus an absolute threshold eta.

    Two groups of four put every bias on a multiple of 1/4, so equal-bias
    draws, within and across outer samples, are common.
    """
    g, X, labels, split = _world(n=8, vul=vul)
    cfg = SmoothingConfig(n_outer=n_outer, n_inner=n_inner, master_seed=seed, strict=False)
    classes = np.random.default_rng(seed).integers(0, 2, (n_outer, n_inner, g.n), dtype=np.uint8)
    return g, X, labels, split, cfg, BiasThreshold.absolute(eta), PredictionCache(classes, split.vulnerable, cfg)


def _draw_evidence(cache, labels, nodes, cfg, eta):
    """Per-draw bias and indicator, and per-outer inner certification, from the scalar public functions."""
    n_outer, n_inner, _ = cache.classes.shape
    bias = [[bias_value(cache.classes[o, i], labels, nodes, cfg.metric) for i in range(n_inner)] for o in range(n_outer)]
    indicator = [[b < eta.eta for b in row] for row in bias]
    certified = []
    for row in indicator:
        n1 = sum(row)
        certified.append(n1 > n_inner - n1 and binomial_lower_bound(n1, n_inner - n1, cfg.alpha).lower > 0.5)
    return bias, indicator, certified


def test_selection_matches_the_per_record_oracle():
    n_certified = n_tied = 0
    for seed in range(40):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed)
        # the cache stands in for the model, which is never called
        rep = certify_and_predict(None, g, X, labels, split, split.test_pool, cfg, cache=cache, eta=eta)
        if rep.outcome != CERTIFIED:
            continue
        n_certified += 1
        bias, indicator, certified = _draw_evidence(cache, labels, split.test_pool, cfg, eta)
        assert [r.inner_certified for r in rep.records] == certified
        classes, sel_bias = oracles.select_fair_output_oracle(cache.classes, bias, indicator, certified)
        assert rep.selected_prediction.tolist() == classes
        assert rep.selected_bias == sel_bias
        eligible = [b for o, row in enumerate(bias) if certified[o] for b, fair in zip(row, indicator[o]) if fair]
        n_tied += eligible.count(min(eligible)) > 1
    assert n_certified >= 20
    assert n_tied >= 20


def test_records_match_the_scalar_oracles():
    # eta 0.1 makes certifiably biased inner votes common, eta 0.6 certifiably fair ones
    seen = {"certified": 0, "biased": 0, "undecided": 0, "CERTIFIED": 0}
    for seed, eta in itertools.product(range(20), (0.1, 0.6)):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, eta=eta)
        rep = certify_and_predict(None, g, X, labels, split, split.test_pool, cfg, cache=cache, eta=eta)
        records = rep.records
        assert records.shape == (cfg.n_outer,)
        _, indicator, certified = _draw_evidence(cache, labels, split.test_pool, cfg, eta)
        radii = []
        for o, row in enumerate(indicator):
            n1 = sum(row)
            n0 = cfg.n_inner - n1
            low = binomial_lower_bound(n1, n0, cfg.alpha).lower
            decided = certified[o] or (n0 > n1 and binomial_lower_bound(n0, n1, cfg.alpha).lower > 0.5)
            r = records[o]
            assert (r.n1, r.inner_lower_bound, r.inner_certified, r.decided) == (n1, low, certified[o], decided)
            if certified[o]:
                radii.append(attribute_radius(low, cfg.sigma))
                assert r.attribute_radius == radii[-1]
            else:
                assert np.isnan(r.attribute_radius)
            seen["certified"] += certified[o]
            seen["biased"] += decided and not certified[o]
            seen["undecided"] += not decided
        np.testing.assert_array_equal(np.isnan(records.attribute_radius), ~records.inner_certified)
        with pytest.raises(ValueError, match="read-only"):
            records.n1[0] = 0
        if rep.outcome == CERTIFIED:
            seen["CERTIFIED"] += 1
            assert rep.budgets.eps_X == min(radii)
    assert min(seen.values()) >= 10, seen


def test_prediction_cache_jobs_do_not_change_classes():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=12, n_inner=6, master_seed=5)
    model = _FixedClassModel(labels.s)
    c1 = PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=1)
    c4 = PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=4)
    np.testing.assert_array_equal(c1.classes, c4.classes)


def test_prediction_cache_starts_no_worker_beyond_the_masks(monkeypatch):
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=2, n_inner=3, master_seed=5)
    model, sizes = _FixedClassModel(labels.s), []

    class Pool(pipeline.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    want = PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=1).classes
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Pool)
    np.testing.assert_array_equal(PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=4).classes, want)
    assert sizes == [1]


@pytest.mark.parametrize("jobs", [0, -3])
def test_cache_build_refuses_jobs_below_one(monkeypatch, jobs):
    g, X, labels, split = _world()
    model, pools = _CountingModel(), []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", lambda **k: pools.append(k))
    cfg = SmoothingConfig(n_outer=2, n_inner=3, master_seed=5)
    with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
        PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=jobs)
    with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
        certify_sets(model, g, X, labels, split, [split.test_pool], cfg, jobs=jobs, eta=BiasThreshold.absolute(0.25))
    assert model.forward_many_calls == 0 and pools == []


def test_cache_build_refuses_jobs_that_are_not_integers(monkeypatch):
    # 2.5 used to fail inside the pool set-up with a TypeError
    g, X, labels, split = _world()
    model, masks = _CountingModel(), []
    monkeypatch.setattr(pipeline, "sample_structure_mask", lambda *args, **kwargs: masks.append(args))
    cfg = SmoothingConfig(n_outer=4, n_inner=3, master_seed=5)
    with pytest.raises(ValueError, match=re.escape("jobs must be a positive integer, got 2.5")):
        PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=2.5)
    assert model.forward_many_calls == 0 and masks == []


def _real_world(backbone):
    """A random 80-node graph with a real backbone: random weights and a nonzero b1."""
    rng = np.random.default_rng(71)
    n, d = 80, 6
    keys = rng.choice(n * n, size=4 * n, replace=False)
    u, v = keys // n, keys % n
    g = Graph(n=n, edges=np.column_stack((u, v))[u < v])
    X = rng.standard_normal((n, d))
    labels = NodeLabels(y=np.tile([0, 1], n // 2), s=np.tile([0, 0, 1, 1], n // 4))
    split = SplitSpec(train=(), validation=(), test_pool=tuple(range(n)), vulnerable=(0, 3, 7))
    model = gnn.BACKBONES[backbone].init(rng, d=d, hidden=16)
    model.b1 = rng.standard_normal(16)
    return model, g, X, labels, split


def _float64_argmax(model):
    """A copy of model whose forward_many classes are the argmax of its float64 logits, from the unchunked oracle."""

    class Reference(type(model)):
        def forward_many(self, ops, X, rows, deltas, out):
            out[...] = oracles.forward_many_oracle(self, ops, X, rows, deltas).argmax(axis=2)
            return out

    return Reference(**model.params())


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_prediction_cache_jobs_do_not_change_classes_of_real_backbones(backbone):
    model, g, X, _, split = _real_world(backbone)
    cfg = SmoothingConfig(n_outer=8, n_inner=40, master_seed=5)
    want = PredictionCache.build(_float64_argmax(model), g, X, split.vulnerable, cfg).classes
    for jobs in (1, 2):
        np.testing.assert_array_equal(PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=jobs).classes, want)


@pytest.mark.parametrize("jobs, inside", [(1, None), (2, 1)])
def test_cache_build_holds_openblas_to_one_thread_with_workers(monkeypatch, jobs, inside):
    blas = pipeline._bundled_openblas()
    if blas is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    threads = blas[0]
    g, X, labels, split = _world()
    model, seen = _FixedClassModel(labels.s), []
    forward_many = model.forward_many
    monkeypatch.setattr(model, "forward_many", lambda *a, **k: seen.append(threads()) or forward_many(*a, **k))
    old = threads()
    PredictionCache.build(model, g, X, split.vulnerable, SmoothingConfig(n_outer=6, n_inner=3, master_seed=5), jobs=jobs)
    assert set(seen) == {old if inside is None else inside}
    assert threads() == old


@pytest.mark.parametrize("jobs", [1, 2])
def test_cache_build_logs_progress_and_its_fallbacks(caplog, jobs):
    model, g, X, _, split = _real_world("gcn")
    cfg = SmoothingConfig(n_outer=20, n_inner=10, master_seed=5)
    settled, rerun, skipped, moving = model.fallbacks.settled, model.fallbacks.rerun, model.fallbacks.skipped, model.fallbacks.moving
    with caplog.at_level(logging.DEBUG, logger="elegant.pipeline"):
        PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=jobs)
    progress = [re.fullmatch(r"prediction cache: (\d+)/20 masks in [\d.]+ s, ETA [\d.]+ s", r.getMessage()) for r in caplog.records if r.levelno == logging.INFO]
    assert all(progress) and sorted(int(m.group(1)) for m in progress) == list(range(2, 21, 2))
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert debug[-1] == (
        f"prediction cache: {model.fallbacks.settled - settled} of {20 * 10 * g.n} node-draws settled by the float64 re-evaluation, "
        f"{model.fallbacks.rerun - rerun} of 200 draws rerun on the float64 path, "
        f"{(model.fallbacks.skipped - skipped) / 20:.1f} of {model.h} hidden units skipped per mask, "
        f"{(model.fallbacks.moving - moving) / 20:.1f} of {g.n} rows reached by the noise per mask"
    )
    # every mask's noise reaches at least the vulnerable rows
    assert len(split.vulnerable) <= (model.fallbacks.moving - moving) / 20 <= g.n


def test_cache_build_enumerates_eligible_pairs_once(monkeypatch):
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=5, n_inner=3, master_seed=5)
    calls = {"eligible_pairs": 0, "sample_structure_mask": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counted(name, getattr(smoothing, name))
        for module in (smoothing, pipeline):
            monkeypatch.setattr(module, name, wrapped, raising=False)
    PredictionCache.build(_FixedClassModel(labels.s), g, X, split.vulnerable, cfg)
    assert calls == {"eligible_pairs": 1, "sample_structure_mask": 5}


# field the cache differs in -> (vulnerable set, n, config change) it is built with
_CACHE_MISMATCHES = {
    "vulnerable": ((0, 2), 24, {}),
    "n_outer": ((0, 1), 24, {"n_outer": 20}),
    "n_inner": ((0, 1), 24, {"n_inner": 4}),
    "n": ((0, 1), 26, {}),
    "sigma": ((0, 1), 24, {"sigma": 0.5}),
    "beta": ((0, 1), 24, {"beta": 0.8}),
    "master_seed": ((0, 1), 24, {"master_seed": 6}),
}


@pytest.mark.parametrize("field", list(_CACHE_MISMATCHES))
def test_mismatched_cache_is_rejected(field):
    vul, n, change = _CACHE_MISMATCHES[field]
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=12, n_inner=6, master_seed=5)
    g_built, X_built, _, _ = _world(n=n)
    cache = PredictionCache.build(_ConstantModel(), g_built, X_built, vul, replace(cfg, **change))
    with pytest.raises(ValueError, match=f"built for {field}="):
        certify_and_predict(_ConstantModel(), g, X, labels, split, split.test_pool, cfg, cache=cache, eta=BiasThreshold.absolute(0.25))


def test_cache_built_for_another_eta_is_reused():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=12, n_inner=6, master_seed=5)
    model = _ConstantModel()
    cache = PredictionCache.build(model, g, X, split.vulnerable, cfg)
    for eta in (BiasThreshold.absolute(0.9), BiasThreshold.absolute(0.25)):
        cached = certify_and_predict(model, g, X, labels, split, split.test_pool, cfg, cache=cache, eta=eta)
        fresh = certify_and_predict(model, g, X, labels, split, split.test_pool, cfg, eta=eta)
        assert cached.outcome == CERTIFIED
        assert cached.to_json_dict() == fresh.to_json_dict()
        assert cached.to_json_dict()["eta"] == eta.eta
        assert [r.n1 for r in cached.records] == [r.n1 for r in fresh.records]


def test_fcr_run_shares_cache_and_counts(caplog):
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=60, n_inner=10, master_seed=1)
    res = fcr_run(_ConstantModel(), g, X, labels, split, cfg, ratio=0.75, count=6, eta=BiasThreshold.absolute(0.25))
    assert res.count == 6
    assert len(res.reports) == 6
    assert res.fcr == 1.0
    summary = res.summary()
    assert summary["n_certified"] == 6
    assert summary["mean_bias"] == 0.0
    assert summary["mean_eps_A"] >= 1.0


def test_fcr_run_logs_the_exact_certified_count(monkeypatch, caplog):
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=4, n_inner=3, master_seed=1)
    reports = tuple(SimpleNamespace(outcome=o) for o in [CERTIFIED] * 29 + [ABSTAIN] * 71)
    monkeypatch.setattr(pipeline, "certify_sets", lambda *a, **k: reports)
    with caplog.at_level(logging.INFO, logger="elegant.pipeline"):
        res = fcr_run(_ConstantModel(), g, X, labels, split, cfg, ratio=0.75, count=100, cache=object(), eta=BiasThreshold.absolute(0.25))
    assert res.fcr == 0.29
    assert "(29/100)" in caplog.text


def test_fcr_run_equals_per_set_certification(monkeypatch, caplog):
    # three sets per chunk; set 4, mid-chunk, holds only s = 0 nodes, so its metric is undefined
    monkeypatch.setattr(pipeline, "CERTIFY_CHUNK_BYTES", 3 * 16 * 6)
    outcomes = []
    for seed in range(6):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, vul=(0,))
        rng = np.random.default_rng(seed)
        sets = [tuple(sorted([0, 1, *rng.choice(np.arange(2, 8), size=rng.integers(1, 6), replace=False).tolist()])) for _ in range(8)]
        sets[4] = (0, 2, 4, 6)
        monkeypatch.setattr(pipeline, "sample_test_sets", lambda *a, **k: sets)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="elegant.pipeline"):
            res = fcr_run(None, g, X, labels, split, cfg, count=len(sets), eta=eta, cache=cache)
        assert [r.getMessage() for r in caplog.records] == ["bias metric undefined on test set 4; all its indicators forced to 0"]
        assert len(res.reports) == len(sets)
        for ts, rep in zip(sets, res.reports):
            one = certify_and_predict(None, g, X, labels, split, ts, cfg, cache=cache, eta=eta)
            assert rep.test_set == one.test_set == ts
            assert rep.to_json_dict() == one.to_json_dict()
            assert rep.records.tobytes() == one.records.tobytes()
            n1 = rep.records.n1.tolist()
            try:
                groups = metric_groups(np.array(ts), labels, cfg.metric)
            except UndefinedMetricError:
                assert n1 == [0] * cfg.n_outer
            else:
                bias = oracles.positive_rate_gap_oracle(cache.classes, groups)
                assert n1 == (bias < eta.eta).sum(axis=1).tolist()
            if rep.outcome == CERTIFIED:
                assert rep.selected_prediction.tobytes() == one.selected_prediction.tobytes()
                assert rep.selected_bias == oracles.positive_rate_gap_oracle(rep.selected_prediction, groups)
            else:
                assert rep.selected_prediction is None and one.selected_prediction is None
            outcomes.append(rep.outcome)
    assert outcomes.count(CERTIFIED) >= 10
    assert outcomes.count(ABSTAIN) >= 6


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_certify_sets_equals_the_scalar_oracle(monkeypatch, per_chunk, strict):
    # sets of 2 to 8 nodes; set 4, mid-chunk, holds only s = 0 nodes, so its metric is undefined
    monkeypatch.setattr(pipeline, "CERTIFY_CHUNK_BYTES", per_chunk * 16 * 6)
    seen = dict.fromkeys(["CERTIFIED", "undecided", "outer", "tied"], 0)
    for seed, eta in itertools.product(range(12), (0.3, 0.6)):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, eta=eta, vul=(0,))
        cfg = replace(cfg, strict=strict)
        rng = np.random.default_rng([seed, 1])
        sets = [(0, *sorted(rng.choice(np.arange(1, 8), size=rng.integers(1, 8), replace=False).tolist())) for _ in range(7)]
        sets[4] = (0, 2, 4, 6)
        reports = certify_sets(None, g, X, labels, split, sets, cfg, cache=cache, eta=eta)
        assert [r.test_set for r in reports] == sets
        for ts, rep in zip(sets, reports):
            fields, records, prediction = oracles.certify_set_oracle(cache.classes, labels, ts, cfg, eta.eta)
            d = rep.to_json_dict()
            assert {k: d[k] for k in fields} == fields
            assert rep.abstain_reason == fields["abstain_reason"]
            assert rep.records.tobytes() == records
            assert (None if rep.selected_prediction is None else rep.selected_prediction.tobytes()) == prediction
            if rep.outcome == CERTIFIED:
                seen["CERTIFIED"] += 1
                bias, indicator, certified = _draw_evidence(cache, labels, ts, cfg, eta)
                eligible = [b for o, row in enumerate(bias) if certified[o] for b, fair in zip(row, indicator[o]) if fair]
                seen["tied"] += eligible.count(min(eligible)) > 1
            else:
                seen[rep.abstain_reason.split()[0]] += 1
    assert min(seen[k] for k in ("CERTIFIED", "outer", "tied")) >= 10, seen
    assert (seen["undecided"] >= 10) == strict, seen


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("metric", ["sp", "eo"])
def test_certify_sets_selects_as_the_full_bias_matrix_does(monkeypatch, metric, strict):
    # three sets per chunk, so chunk boundaries fall inside the seven sets
    monkeypatch.setattr(pipeline, "CERTIFY_CHUNK_BYTES", 3 * 16 * 6)
    seen = dict.fromkeys(["CERTIFIED", "tied across samples", "undefined"], 0)
    for seed, eta in itertools.product(range(12), (0.3, 0.6, 0.9)):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, eta=eta, vul=(0,))
        # label-1 nodes are 0, 1, 2, 3, 6 and 7, with both s values among them
        labels = NodeLabels(y=np.array([1, 1, 1, 1, 0, 0, 1, 1]), s=labels.s)
        cfg = replace(cfg, metric=metric, strict=strict)
        rng = np.random.default_rng([seed, 3])
        sets = [(0, *sorted(rng.choice(np.arange(1, 8), size=rng.integers(1, 8), replace=False).tolist())) for _ in range(7)]
        # mid-chunk; every node, and every label-1 node, of it has s = 0, so both metrics are undefined
        sets[4] = (0, 2, 4, 6)
        for ts, rep in zip(sets, certify_sets(None, g, X, labels, split, sets, cfg, cache=cache, eta=eta)):
            try:
                groups = metric_groups(np.array(ts), labels, metric)
            except UndefinedMetricError:
                seen["undefined"] += 1
                assert rep.outcome == ABSTAIN and rep.records.n1.tolist() == [0] * cfg.n_outer
                continue
            bias = oracles.positive_rate_gap_oracle(cache.classes, groups)
            indicator = bias < eta.eta
            assert rep.records.n1.tolist() == indicator.sum(axis=1).tolist()
            if rep.outcome != CERTIFIED:
                assert rep.selected_prediction is None and rep.selected_bias is None
                continue
            seen["CERTIFIED"] += 1
            eligible = indicator & rep.records.inner_certified[:, None]
            prediction, selected = select_fair_output(cache.classes, bias, eligible)
            assert (rep.selected_prediction.tobytes(), rep.selected_bias) == (prediction.tobytes(), selected)
            seen["tied across samples"] += int((eligible & (bias == selected)).any(axis=1).sum() > 1)
    assert min(seen.values()) >= 10, seen


def _report_fields(rep):
    """Everything a report holds, in comparable form."""
    prediction = None if rep.selected_prediction is None else rep.selected_prediction.tobytes()
    return rep.to_json_dict(), rep.abstain_reason, rep.test_set, rep.outer_lower_bound, rep.records.tobytes(), prediction


def _undefined_warnings(sets, labels, metric):
    """The warning certify_sets logs for each set whose metric is undefined, from metric_groups."""
    out = []
    for j, ts in enumerate(sets):
        try:
            metric_groups(np.array(ts), labels, metric)
        except UndefinedMetricError:
            out.append(f"bias metric undefined on test set {j}; all its indicators forced to 0")
    return out


@pytest.mark.parametrize("metric", ["sp", "eo"])
@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_certify_sets_takes_one_path_for_every_input_form(monkeypatch, caplog, per_chunk, metric):
    monkeypatch.setattr(pipeline, "CERTIFY_CHUNK_BYTES", per_chunk * 16 * 6)
    for seed in range(6):
        g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, vul=(0,))
        # label-1 nodes are 0, 1, 2, 3, 6 and 7, with both s values among them
        labels = NodeLabels(y=np.array([1, 1, 1, 1, 0, 0, 1, 1]), s=labels.s)
        cfg = replace(cfg, metric=metric)
        rng = np.random.default_rng([seed, 2])
        matrix = np.array([[0, *sorted(rng.choice(np.arange(1, 8), size=4, replace=False).tolist())] for _ in range(7)])
        # mid-chunk; under eo its label-1 nodes 0, 2 and 6 all have s = 0, so the metric is undefined
        matrix[4] = (0, 2, 4, 5, 6)
        matrix.flags.writeable = False
        unsorted = rng.permuted(matrix, axis=1)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="elegant.pipeline"):
            want = [_report_fields(r) for r in certify_sets(None, g, X, labels, split, matrix, cfg, cache=cache, eta=eta)]
        assert [r.getMessage() for r in caplog.records] == _undefined_warnings(matrix, labels, metric)
        assert ("bias metric undefined on test set 4" in caplog.text) == (metric == "eo")
        for sets in ([tuple(row) for row in matrix.tolist()], unsorted, [tuple(row) for row in unsorted.tolist()]):
            assert [_report_fields(r) for r in certify_sets(None, g, X, labels, split, sets, cfg, cache=cache, eta=eta)] == want
        # sets of 2, 7 and 4 nodes, unsorted, between the rows of the matrix
        extra = [(0, *rng.choice(np.arange(1, 8), size=size, replace=False).tolist())[::-1] for size in (1, 6, 3)]
        mixed = [extra[0], *unsorted[:3], extra[1], *unsorted[3:], extra[2]]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="elegant.pipeline"):
            got = [_report_fields(r) for r in certify_sets(None, g, X, labels, split, mixed, cfg, cache=cache, eta=eta)]
        assert [r.getMessage() for r in caplog.records] == _undefined_warnings(mixed, labels, metric)
        assert ("bias metric undefined on test set 6" in caplog.text) == (metric == "eo")
        alone = [_report_fields(certify_and_predict(None, g, X, labels, split, ts, cfg, cache=cache, eta=eta)) for ts in extra]
        assert got == [alone[0], *want[:3], alone[1], *want[3:], alone[2]]
        for ts, (d, reason, _, _, records, prediction) in zip(mixed, got):
            fields, oracle_records, oracle_prediction = oracles.certify_set_oracle(cache.classes, labels, ts, cfg, eta.eta)
            assert {k: d[k] for k in fields} == fields and reason == fields["abstain_reason"]
            assert (records, prediction) == (oracle_records, oracle_prediction)


class _CountingModel(_ConstantModel):
    """A constant model that counts its forward_many calls."""

    def __init__(self):
        super().__init__()
        self.forward_many_calls = 0

    def forward_many(self, ops, X, rows, deltas, out):
        self.forward_many_calls += 1
        return super().forward_many(ops, X, rows, deltas, out)


def test_certify_sets_with_no_sets_builds_no_cache():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=4, n_inner=3, master_seed=0)
    model = _CountingModel()
    for sets in ((), [], np.empty((0, 5), dtype=np.int64)):
        assert certify_sets(model, g, X, labels, split, sets, cfg, eta=BiasThreshold.absolute(0.25)) == ()
    assert model.forward_many_calls == 0
    assert certify_sets(model, g, X, labels, split, [split.test_pool], cfg, eta=BiasThreshold.absolute(0.25))[0].outcome == CERTIFIED
    assert model.forward_many_calls == cfg.n_outer


@pytest.mark.parametrize("shape", [(24,), (2, 3, 4)])
def test_certify_sets_refuses_an_array_that_is_not_2d(shape):
    g, X, labels, split = _world()
    model, sets = _CountingModel(), np.array(split.test_pool).reshape(shape)
    cfg = SmoothingConfig(n_outer=4, n_inner=3, master_seed=0)
    want = f"test sets must be a (count, size) matrix or a sequence of node sequences, got an array of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        certify_sets(model, g, X, labels, split, sets, cfg, eta=BiasThreshold.absolute(0.25))
    assert model.forward_many_calls == 0


@pytest.mark.parametrize("form", ["matrix", "sequence"])
@pytest.mark.parametrize("bad", [2.9, -0.5, np.nan, np.inf])
def test_certify_sets_refuses_a_node_id_that_is_not_an_integer(form, bad):
    g, X, labels, split = _world()
    model, cfg, eta = _CountingModel(), SmoothingConfig(n_outer=4, n_inner=3, master_seed=0), BiasThreshold.absolute(0.25)
    pool = np.array(split.test_pool, dtype=np.float64)
    rows = np.stack([pool, pool])
    rows[1, -1] = bad

    def certify(rows):
        return certify_sets(model, g, X, labels, split, rows if form == "matrix" else [tuple(r) for r in rows.tolist()], cfg, eta=eta)

    with pytest.raises(ValueError, match=re.escape(f"test set 1 must hold integer node ids; {bad} is not one")):
        certify(rows)
    assert model.forward_many_calls == 0
    # integral floats name the same nodes as integers
    want = [_report_fields(r) for r in certify_sets(model, g, X, labels, split, [split.test_pool] * 2, cfg, eta=eta)]
    assert [_report_fields(r) for r in certify(np.stack([pool, pool]))] == want


@pytest.mark.parametrize(
    "sets, got",
    [
        ([np.array([[0, 1], [2, 3]])], "a sequence whose items are not flat node sequences"),
        ([[0, 1], [2, [3, 4]]], "a sequence whose items are not flat node sequences"),
        ([0, 1, 2], "a sequence whose items are not flat node sequences"),
        ([["a", "b"]], "node ids of dtype <U1"),
        (np.array([["a", "b"]]), "node ids of dtype <U1"),
    ],
    ids=["2-D item", "nested item", "bare ids", "string ids", "string matrix"],
)
def test_certify_sets_refuses_items_that_are_not_node_sequences(sets, got):
    g, X, labels, split = _world()
    model, cfg = _CountingModel(), SmoothingConfig(n_outer=4, n_inner=3, master_seed=0)
    want = f"test sets must be a (count, size) matrix or a sequence of node sequences, got {got}"
    with pytest.raises(ValueError, match=re.escape(want)):
        certify_sets(model, g, X, labels, split, sets, cfg, eta=BiasThreshold.absolute(0.25))
    assert model.forward_many_calls == 0


def test_certification_without_eta_is_a_type_error():
    g, X, labels, split = _world()
    cfg, model = SmoothingConfig(n_outer=4, n_inner=3, master_seed=0), _CountingModel()
    for call in (
        lambda: certify_sets(model, g, X, labels, split, [split.test_pool], cfg),
        lambda: certify_and_predict(model, g, X, labels, split, split.test_pool, cfg),
        lambda: fcr_run(model, g, X, labels, split, cfg, ratio=0.75, count=2),
    ):
        with pytest.raises(TypeError, match="'eta'"):
            call()
    assert model.forward_many_calls == 0


class _MinimalModel:
    """All that certification reads of a backbone: no name, no forward, no fallbacks counter."""

    @staticmethod
    def build_ops(g):
        return g

    @staticmethod
    def forward_many(ops, X, rows, deltas, out):
        out[...] = 1
        return out


def test_certification_needs_only_build_ops_and_forward_many():
    # the plug-and-play claim: any classifier with these two calls can be certified
    g, X, labels, split = _world()
    cfg, eta = SmoothingConfig(n_outer=60, n_inner=10, master_seed=1), BiasThreshold.absolute(0.25)
    reports = certify_sets(_MinimalModel(), g, X, labels, split, [split.test_pool, split.test_pool[:12]], cfg, eta=eta)
    assert [r.outcome for r in reports] == [CERTIFIED, CERTIFIED]
    res, want = (fcr_run(model, g, X, labels, split, cfg, ratio=0.75, count=6, eta=eta) for model in (_MinimalModel(), _ConstantModel()))
    assert res.fcr == 1.0
    assert [r.to_json_dict() for r in res.reports] == [r.to_json_dict() for r in want.reports]


def test_certify_sets_rejects_a_node_listed_twice():
    g, X, labels, split, cfg, eta, cache = _random_cache_world(3, eta=0.6)
    with pytest.raises(ValueError, match="test set 1 lists node 7 more than once"):
        certify_sets(None, g, X, labels, split, [split.test_pool, split.test_pool + (7, 7, 7)], cfg, cache=cache, eta=eta)


def test_certify_sets_work_per_call_is_fixed(monkeypatch):
    g, X, labels, split, cfg, eta, cache = _random_cache_world(0)
    calls = {"class1_hits": 0, "counts": 0}
    hits, bound = pipeline.class1_hits, pipeline.binomial_lower_bound_vec

    def counted_hits(*args):
        calls["class1_hits"] += 1
        return hits(*args)

    def counted_bound(n_success, n_fail, alpha):
        calls["counts"] += np.size(n_success)
        return bound(n_success, n_fail, alpha)

    monkeypatch.setattr(pipeline, "class1_hits", counted_hits)
    monkeypatch.setattr(pipeline, "binomial_lower_bound_vec", counted_bound)
    # three sets per chunk, so 200 sets take 67 chunks
    monkeypatch.setattr(pipeline, "CERTIFY_CHUNK_BYTES", 3 * 16 * cfg.n_inner)
    for count in (1, 200):
        calls.update(class1_hits=0, counts=0)
        assert len(certify_sets(None, g, X, labels, split, [split.test_pool] * count, cfg, cache=cache, eta=eta)) == count
        # one gather per outer sample, whatever the number of sets and chunks
        assert calls["class1_hits"] == cfg.n_outer
        assert calls["counts"] <= cfg.n_inner + cfg.n_outer + 2


def _traced(call):
    """The traced memory call leaves held, and its peak."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory(), out
    finally:
        tracemalloc.stop()


def test_certify_sets_memory_is_bounded_by_the_chunk():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=20, n_inner=300, master_seed=0)
    cache = PredictionCache(np.ones((cfg.n_outer, cfg.n_inner, g.n), dtype=np.uint8), split.vulnerable, cfg)
    c = pipeline.CERTIFY_CHUNK_BYTES // (16 * cfg.n_inner)
    assert c >= 2
    # one outer sample's float32 class-1 hits, n_inner rows over the test pool
    hits = 4 * cfg.n_inner * g.n

    def memory(count):
        (held, peak), reports = _traced(lambda: certify_sets(None, g, X, labels, split, [split.test_pool] * count, cfg, cache=cache, eta=BiasThreshold.absolute(0.25)))
        assert [r.outcome for r in reports] == [CERTIFIED] * count
        return held, peak

    held, peak = memory(c)
    assert peak < 3 * (hits + pipeline.CERTIFY_CHUNK_BYTES)
    # beyond the reports it returns, six times the sets take less than twice the memory
    held6, peak6 = memory(6 * c)
    assert peak6 - held6 < 2 * (peak - held)


def test_certify_sets_memory_at_the_default_shape_is_below_a_quarter_of_the_cache():
    # the default 200 x 150 cache on a 1000-node graph, 100 sets of 225 from a 250-node pool
    g, X, labels, split = _world(n=1000)
    split = replace(split, test_pool=tuple(range(250)))
    cfg = SmoothingConfig(n_outer=200, n_inner=150, master_seed=0)
    cache = PredictionCache(np.random.default_rng(0).integers(0, 2, (cfg.n_outer, cfg.n_inner, g.n), dtype=np.uint8), split.vulnerable, cfg)
    sets = pipeline.sample_test_sets(split, 0.9, 100, seed=0, include=split.vulnerable)
    (_, peak), reports = _traced(lambda: certify_sets(None, g, X, labels, split, sets, cfg, cache=cache, eta=BiasThreshold.absolute(0.25)))
    assert [r.outcome for r in reports] == [CERTIFIED] * 100
    # gathering every draw's class-1 hits at once would take 30 MB, the cache's own size
    assert peak < cache.classes.nbytes / 4


def test_report_json_dict_is_stable():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=10, n_inner=5, master_seed=0)
    rep = certify_and_predict(_ConstantModel(), g, X, labels, split, split.test_pool, cfg, eta=BiasThreshold.absolute(0.25))
    d = rep.to_json_dict()
    assert d["outcome"] == CERTIFIED
    assert d["eps_A"] == rep.budgets.eps_A
    assert d["config"]["n_outer"] == 10
    assert d["conventions"]["d_convention"] == "deduplicated"
    assert d["conventions"]["noise_domain_size"] == 2 * 22 + 1
    import json

    json.dumps(d)  # nothing non-serializable


def test_certified_bias_always_below_eta():
    # random caches hold fair and biased draws alike; a certified run must
    # release the classes of an indicator-fair draw of an inner-certified
    # outer sample, and report that draw's own bias
    n_certified = 0
    for seed in range(20):
        for eta in (0.3, 0.6):
            g, X, labels, split, cfg, eta, cache = _random_cache_world(seed, eta=eta)
            rep = certify_and_predict(None, g, X, labels, split, split.test_pool, cfg, cache=cache, eta=eta)
            if rep.outcome != CERTIFIED:
                continue
            n_certified += 1
            assert bias_value(rep.selected_prediction, labels, split.test_pool, cfg.metric) == rep.selected_bias
            assert rep.selected_bias < eta.eta
            drawn = (cache.classes == rep.selected_prediction).all(axis=2)
            assert any(rep.records[o].inner_certified for o in np.flatnonzero(drawn.any(axis=1)))
            assert rep.budgets.eps_A >= 0
            assert rep.budgets.eps_X >= 0
    assert n_certified >= 10
