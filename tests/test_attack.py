"""Attack primitives: budget exactness, eligibility, evaluation harness."""

import numpy as np
import pytest

from elegant.attack import (
    ATTACK_LABEL,
    DEFAULT_GRID,
    _greedy_pairs,
    attribute_attack,
    evaluate_under_attack,
    structure_attack_greedy,
)
from elegant.data import Graph, NodeLabels, SplitSpec
from elegant.fairness import BiasThreshold, UndefinedMetricError
from elegant.gnn import BACKBONES
from elegant.pipeline import ABSTAIN, CERTIFIED
from elegant.smoothing import DOMAIN_ATTACK, SmoothingConfig, eligible_pairs, substream
from oracles import structure_attack_greedy_oracle


def _world(n=24, vul=(0, 1)):
    g = Graph(n=n, edges=frozenset({(0, 1), (2, 3), (4, 5)}))
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, 3))
    labels = NodeLabels(y=np.tile([0, 1], n // 2), s=np.tile([0, 0, 1, 1], n // 4))
    split = SplitSpec(train=(), validation=(), test_pool=tuple(range(n)), vulnerable=vul)
    return g, X, labels, split


class _LinearModel:
    """Logits X @ W with the matching exact input gradient."""

    backbone = "gcn"

    def __init__(self, W):
        self.W = np.asarray(W, dtype=float)

    @staticmethod
    def build_ops(g):
        return None

    def forward(self, ops, X):
        return X @ self.W

    def forward_many(self, ops, X, rows, deltas, out):
        logits = np.repeat((X @ self.W)[None], deltas.shape[0], axis=0)
        for b in range(deltas.shape[0]):
            logits[b, rows] += deltas[b] @ self.W
        out[...] = logits.argmax(axis=2)
        return out

    def forward_flips(self, g, X, pairs, out, rows=None):
        # the classes ignore the graph
        out[...] = self.forward(None, X)[slice(None) if rows is None else rows].argmax(axis=1)
        return out

    def input_grad(self, ops, X, dlogit):
        return dlogit @ self.W.T


class _ConstantModel(_LinearModel):
    """Always class 1; zero input gradient."""

    def __init__(self):
        super().__init__(np.zeros((3, 2)))

    def forward(self, ops, X):
        out = np.zeros((X.shape[0], 2))
        out[:, 1] = 1.0
        return out

    def forward_many(self, ops, X, rows, deltas, out):
        out[...] = 1
        return out


def test_attribute_attack_hits_budget_exactly():
    g, X, labels, split = _world()
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    for budget in (0.1, 1.0, 17.5):
        X_adv = attribute_attack(model, g, X, labels, split.vulnerable, budget)
        moved = X_adv - X
        assert np.linalg.norm(moved) == pytest.approx(budget, abs=1e-9)
        # only vulnerable rows move, original untouched
        others = np.setdiff1d(np.arange(g.n), split.vulnerable)
        np.testing.assert_array_equal(moved[others], 0.0)
    np.testing.assert_array_equal(X, _world()[1])


def test_attribute_attack_zero_budget_is_identity():
    g, X, labels, split = _world()
    model = _LinearModel(np.eye(3, 2))
    X_adv = attribute_attack(model, g, X, labels, split.vulnerable, 0.0)
    np.testing.assert_array_equal(X_adv, X)
    assert X_adv is not X


def test_attribute_attack_zero_gradient_warns(caplog):
    g, X, labels, split = _world()
    with caplog.at_level("WARNING"):
        X_adv = attribute_attack(_ConstantModel(), g, X, labels, split.vulnerable, 5.0)
    np.testing.assert_array_equal(X_adv, X)
    assert any("zero" in r.message for r in caplog.records)


def test_attribute_attack_validation():
    g, X, labels, split = _world()
    model = _LinearModel(np.eye(3, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        attribute_attack(model, g, X, labels, split.vulnerable, -1.0)
    with pytest.raises(ValueError, match="nonempty"):
        attribute_attack(model, g, X, labels, (), 1.0)


@pytest.mark.parametrize("budget", [np.nan, np.inf])
def test_attribute_attack_rejects_a_non_finite_budget(budget):
    # either would otherwise fill the vulnerable rows with NaN or inf
    g, X, labels, split = _world()
    model = BACKBONES["gcn"].init(np.random.default_rng(3), d=X.shape[1], hidden=4)
    with pytest.raises(ValueError, match=f"budget_l2 must be nonnegative and finite, got {budget}"):
        attribute_attack(model, g, X, labels, split.vulnerable, budget)


@pytest.mark.parametrize("bad", [-1, 24])
def test_attribute_attack_rejects_out_of_range_vulnerable_ids(bad):
    # -1 would otherwise index the last row, and n past the end
    g, X, labels, _ = _world()
    with pytest.raises(ValueError, match="vulnerable ids out of range"):
        attribute_attack(_LinearModel(np.eye(3, 2)), g, X, labels, (0, bad), 1.0)


@pytest.mark.parametrize("nodes,message", [([0.5, 3], "nodes must be integers; 0.5 is not one"), ([-1, 3], r"nodes must lie in \[0, 12\); -1 does not"), ([3, np.nan], "nodes must be integers; nan is not one")])
def test_attacks_refuse_nodes_that_are_not_node_ids(nodes, message):
    # a cast would truncate 0.5 to node 0, and -1 would index the last node
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    for budget in (1.0, 0.0):
        with pytest.raises(ValueError, match=message):
            attribute_attack(model, g, X, labels, split.vulnerable, budget, nodes=nodes)
    with pytest.raises(ValueError, match=message):
        structure_attack_greedy(model, g, X, labels, split.vulnerable, 2, nodes=nodes)


def test_attribute_attack_unknown_metric_raises():
    g, X, labels, split = _world()
    with pytest.raises(ValueError, match="unknown metric 'xx'"):
        attribute_attack(_LinearModel(np.eye(3, 2)), g, X, labels, split.vulnerable, 1.0, metric="xx")


def test_attribute_attack_eo_single_group_slice_raises():
    g, X, _, split = _world()
    # y and s tile identically, so the label-1 slice is all one group
    n = g.n
    labels = NodeLabels(y=np.tile([0, 1], n // 2), s=np.tile([0, 1], n // 2))
    model = _LinearModel(np.eye(3, 2))
    with pytest.raises(UndefinedMetricError):
        attribute_attack(model, g, X, labels, split.vulnerable, 1.0, metric="eo")


def test_structure_attack_greedy_respects_budget_and_eligibility():
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    allowed = {tuple(int(x) for x in row) for row in eligible_pairs(g.n, split.vulnerable)}
    g_adv = structure_attack_greedy(model, g, X, labels, split.vulnerable, 3, seed=0)
    diff = g.edges.symmetric_difference(g_adv.edges)
    assert len(diff) == 3
    assert diff <= allowed
    again = structure_attack_greedy(model, g, X, labels, split.vulnerable, 3, seed=0)
    assert g_adv.edges == again.edges


def test_structure_attack_greedy_undefined_metric_raises():
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    one_group = np.flatnonzero(labels.s == 0)
    with pytest.raises(UndefinedMetricError):
        structure_attack_greedy(model, g, X, labels, split.vulnerable, 3, nodes=one_group)


def test_structure_attack_greedy_budget_validation():
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.eye(3, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        structure_attack_greedy(model, g, X, labels, split.vulnerable, -1)
    n_pairs = eligible_pairs(g.n, split.vulnerable).shape[0]
    with pytest.raises(ValueError, match="eligible"):
        structure_attack_greedy(model, g, X, labels, split.vulnerable, n_pairs + 1)


@pytest.mark.parametrize("pool_size", [0, -1])
def test_structure_attack_greedy_pool_size_must_be_positive(pool_size):
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    with pytest.raises(ValueError, match="pool_size"):
        structure_attack_greedy(model, g, X, labels, split.vulnerable, 2, pool_size=pool_size)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_greedy_budgets_are_prefixes_of_the_largest_run(backbone):
    # evaluate_under_attack runs the greedy attack once and slices each cell's budget from it
    n, vul = 30, (0, 5, 7)
    rng = np.random.default_rng(43)
    keys = rng.choice(n * n, size=4 * n, replace=False)
    g = Graph(n=n, edges={(int(min(k // n, k % n)), int(max(k // n, k % n))) for k in keys if k // n != k % n})
    X = rng.standard_normal((n, 4))
    labels = NodeLabels(y=rng.integers(0, 2, size=n), s=rng.integers(0, 2, size=n))
    model = BACKBONES[backbone].init(rng, d=4, hidden=8)
    longest = _greedy_pairs(model, g, X, labels, vul, 8, "sp", range(6, n), 16, 3)
    assert longest.shape == (8, 2)
    for budget in (1, 2, 4, 8):
        want = structure_attack_greedy(model, g, X, labels, vul, budget, nodes=range(6, n), pool_size=16, seed=3)
        assert g.flip(longest[:budget]) == want


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("metric", ["sp", "eo"])
@pytest.mark.parametrize("pool_size", [8, 500])
def test_structure_attack_greedy_matches_the_per_candidate_oracle(backbone, metric, pool_size):
    n, vul = 30, (0, 5, 7)  # 84 open pairs: a pool of 8 samples them, one of 500 takes all
    rng = np.random.default_rng(41)
    keys = rng.choice(n * n, size=4 * n, replace=False)
    g = Graph(n=n, edges={(int(min(k // n, k % n)), int(max(k // n, k % n))) for k in keys if k // n != k % n})
    X = rng.standard_normal((n, 4))
    labels = NodeLabels(y=rng.integers(0, 2, size=n), s=rng.integers(0, 2, size=n))
    model = BACKBONES[backbone].init(rng, d=4, hidden=8)
    nodes = range(6, n)
    for seed in (0, 1, 2):
        got = structure_attack_greedy(model, g, X, labels, vul, 3, metric, nodes=nodes, pool_size=pool_size, seed=seed)
        want = structure_attack_greedy_oracle(model, g, X, labels, vul, 3, metric, nodes=nodes, pool_size=pool_size, seed=seed)
        assert got == want


@pytest.mark.parametrize("metric", ["sp", "eo"])
@pytest.mark.parametrize("pool_size", [5, 500])
def test_structure_attack_greedy_ties_commit_the_pools_first_candidate(metric, pool_size):
    # _LinearModel's classes ignore the graph, so every candidate of a pool ties
    g, X, labels, split = _world(n=12)
    model = _LinearModel(np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.9]]))
    pairs = eligible_pairs(g.n, split.vulnerable)
    assert pairs.shape[0] > 5
    # each step's pool, drawn as the attack draws it; a pool of 500 takes every open pair in order
    rng, open_mask, first = substream(3, DOMAIN_ATTACK, 1), np.ones(pairs.shape[0], dtype=bool), []
    for _ in range(4):
        open_pos = np.flatnonzero(open_mask)
        pool = open_pos[rng.choice(open_pos.size, size=pool_size, replace=False)] if open_pos.size > pool_size else open_pos
        open_mask[pool[0]] = False
        first.append(pool[0])
    got = _greedy_pairs(model, g, X, labels, split.vulnerable, 4, metric, None, pool_size, 3)
    np.testing.assert_array_equal(got, pairs[first])
    want = structure_attack_greedy_oracle(model, g, X, labels, split.vulnerable, 4, metric, pool_size=pool_size, seed=3)
    assert g.flip(got) == want


def test_evaluate_under_attack_row_schema():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=60, n_inner=10, master_seed=0)
    grid = ((1, 0.1), (2, 1.0))
    rows, meta = evaluate_under_attack(_ConstantModel(), _ConstantModel(), g, X, labels, split, grid, cfg, eta=BiasThreshold.absolute(0.25))
    assert len(rows) == 2 * len(grid)
    want = ["budget_edges", "budget_l2", "model", "accuracy", "delta_sp", "delta_eo", "outcome", "within_certified"]
    for row in rows:
        assert list(row.keys()) == want
    # undefended rows carry dashes, smoothed rows carry the certificate verdict
    assert rows[0]["model"] == "gcn"
    assert rows[0]["outcome"] == "-"
    assert rows[0]["within_certified"] == "-"
    assert rows[1]["model"] == "smoothed-gcn"
    assert rows[1]["outcome"] == CERTIFIED
    assert meta["attacker"] == ATTACK_LABEL
    assert meta["clean_outcome"] == CERTIFIED
    assert meta["clean_eps_A"] >= 1
    assert meta["eta"] == pytest.approx(0.25)


def test_evaluate_under_attack_within_certified_flags():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=60, n_inner=10, master_seed=0)
    grid = ((1, 0.1), (5, 100.0))
    rows, meta = evaluate_under_attack(_ConstantModel(), _ConstantModel(), g, X, labels, split, grid, cfg, eta=BiasThreshold.absolute(0.25))
    inside, outside = rows[1], rows[3]
    assert inside["within_certified"] == "true"
    assert outside["within_certified"] == "false"
    # constant predictor is untouched by any perturbation
    assert inside["delta_sp"] == 0.0
    assert outside["accuracy"] == pytest.approx(0.5)


def test_evaluate_under_attack_certificate_is_an_open_ball():
    # at an L2 norm of exactly eps_X the Gaussian bound is 1/2, which certifies nothing
    g, X, labels, split = _world()
    cfg, eta = SmoothingConfig(n_outer=60, n_inner=10, master_seed=0), BiasThreshold.absolute(0.25)
    _, meta = evaluate_under_attack(_ConstantModel(), _ConstantModel(), g, X, labels, split, (), cfg, eta=eta)
    eps_x = meta["clean_eps_X"]
    assert 0.0 < eps_x < np.inf
    grid = ((0, eps_x), (0, float(np.nextafter(eps_x, 0.0))))
    rows, _ = evaluate_under_attack(_ConstantModel(), _ConstantModel(), g, X, labels, split, grid, cfg, eta=eta)
    assert [r["within_certified"] for r in rows[1::2]] == ["false", "true"]


class _GroupModel(_LinearModel):
    """Predicts the sensitive attribute itself: bias 1 on every draw."""

    def __init__(self, s):
        super().__init__(np.zeros((3, 2)))
        self.s = np.asarray(s)

    def forward(self, ops, X):
        out = np.zeros((X.shape[0], 2))
        out[np.arange(X.shape[0]), self.s] = 1.0
        return out

    def forward_many(self, ops, X, rows, deltas, out):
        out[...] = self.s
        return out


def test_evaluate_under_attack_abstain_rows_are_na():
    g, X, labels, split = _world()
    cfg = SmoothingConfig(n_outer=10, n_inner=5, master_seed=0)
    biased = _GroupModel(labels.s)
    rows, meta = evaluate_under_attack(biased, biased, g, X, labels, split, ((1, 0.1),), cfg, eta=BiasThreshold.absolute(0.5))
    assert meta["clean_outcome"] == ABSTAIN
    assert meta["clean_eps_A"] is None
    smoothed = rows[1]
    assert smoothed["outcome"] == ABSTAIN
    assert smoothed["accuracy"] == "NA"
    assert smoothed["delta_sp"] == "NA"
    assert smoothed["within_certified"] == "-"


def test_evaluate_under_attack_without_eta_is_a_type_error():
    g, X, labels, split = _world()
    with pytest.raises(TypeError, match="'eta'"):
        evaluate_under_attack(_ConstantModel(), _ConstantModel(), g, X, labels, split, (), SmoothingConfig(n_outer=4, n_inner=3))


def test_default_grid_is_frozen():
    assert DEFAULT_GRID == ((1, 0.1), (2, 1.0), (4, 10.0), (8, 100.0))
