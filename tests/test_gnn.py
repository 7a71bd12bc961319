"""Backbones: propagation operators, gradients, training, persistence."""

import tracemalloc

import numpy as np
import pytest

from elegant import gnn
from elegant.data import Graph, NodeLabels, SplitSpec
from elegant.gnn import (
    GcnModel,
    SageModel,
    TrainConfig,
    TrainingDivergedError,
    load_model,
    predict_classes,
    save_model,
    train,
)
from oracles import finite_difference_input_grad, finite_difference_loss_grads, flip_logits_oracle, forward_many_oracle

PATH3 = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))


def _gcn_ops(g):
    """The GCN operator, D^{-1/2} (A + I) D^{-1/2}; build_ops reads no weight."""
    return GcnModel.init(np.random.default_rng(0), d=1, hidden=1).build_ops(g)


def _sage_ops(g):
    """The SAGE operator, D^{-1} A."""
    return SageModel.init(np.random.default_rng(0), d=1, hidden=1).build_ops(g)


def test_normalize_adjacency_path_graph():
    a = _gcn_ops(PATH3).todense()
    # degrees with self loops: 2, 3, 2
    assert a[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-15)
    assert a[0, 1] == pytest.approx(0.4082482904638631)
    assert a[0, 0] == pytest.approx(0.5)
    assert a[1, 1] == pytest.approx(1 / 3)
    assert a[0, 2] == 0.0
    np.testing.assert_allclose(a, a.T)


def test_normalize_adjacency_isolated_node_is_identity_row():
    g = Graph(n=3, edges=frozenset({(0, 1)}))
    a = _gcn_ops(g).todense()
    assert a[2, 2] == 1.0
    assert a[2, 0] == a[2, 1] == 0.0


def test_mean_aggregator_rows():
    m = _sage_ops(PATH3).todense()
    np.testing.assert_allclose(np.asarray(m.sum(axis=1)).ravel(), [1.0, 1.0, 1.0])
    assert m[1, 0] == pytest.approx(0.5)
    g = Graph(n=2, edges=frozenset())
    np.testing.assert_allclose(_sage_ops(g).todense(), 0.0)


def _random_instance(rng, backbone="gcn"):
    n = int(rng.integers(4, 9))
    d = int(rng.integers(2, 5))
    h = int(rng.integers(3, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph(n=n, edges=frozenset(pairs))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    cls = GcnModel if backbone == "gcn" else SageModel
    model = cls.init(rng, d=d, hidden=h, classes=2)
    train_idx = rng.choice(n, size=max(2, n // 2), replace=False)
    return model, g, X, y, np.sort(train_idx)


def _max_rel_err(analytic, numeric):
    err = 0.0
    for name in numeric:
        a, f = analytic[name], numeric[name]
        err = max(err, float(np.max(np.abs(a - f) / np.maximum(1.0, np.abs(f)))))
    return err


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_gradients_match_finite_differences(backbone):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        model, g, X, y, idx = _random_instance(rng, backbone)
        ops = model.build_ops(g)
        _, grads, dX = model.loss_grads(ops, X, y, idx)
        fd_grads, fd_X = finite_difference_loss_grads(model, ops, X, y, idx)
        worst = max(worst, _max_rel_err(grads, fd_grads))
        worst = max(worst, _max_rel_err({"X": dX}, {"X": fd_X}))
        G = rng.standard_normal((g.n, model.C))
        fd_in = finite_difference_input_grad(model, ops, X, G)
        worst = max(worst, _max_rel_err({"X": model.input_grad(ops, X, G)}, {"X": fd_in}))
    assert worst <= 1e-4


def test_gradient_near_zero_at_confident_fit():
    # logits already saturated at the right class -> tiny loss, tiny gradient
    X = np.array([[10.0], [-10.0]])
    model = GcnModel(W1=[[1.0, -1.0]], b1=[0.0, 0.0], W2=[[5.0, -5.0], [-5.0, 5.0]], b2=[0.0, 0.0])
    g = Graph(n=2, edges=frozenset())
    ops = model.build_ops(g)
    _, grads, _ = model.loss_grads(ops, X, np.array([0, 1]), [0, 1])
    assert all(np.abs(v).max() < 1e-3 for v in grads.values())


def test_linear_activation_two_node_hand_case():
    # all preactivations positive, so relu is the identity and the network
    # is linear: logits = A (A X w) W2 with A = I here
    g = Graph(n=2, edges=frozenset())
    X = np.array([[1.0], [2.0]])
    model = GcnModel(W1=[[1.0]], b1=[5.0], W2=[[1.0, -1.0]], b2=[0.0, 0.0])
    ops = model.build_ops(g)
    logits = model.forward(ops, X)
    np.testing.assert_allclose(logits, [[6.0, -6.0], [7.0, -7.0]])
    # dL/dz2 = (softmax - onehot(y)) / n_train with y = [1, 1]; A_hat = I so
    # the chain rule collapses to plain matrix products
    p1 = 1 / (1 + np.exp(2 * logits[:, 0]))
    _, grads, dX = model.loss_grads(ops, X, np.array([1, 1]), [0, 1])
    dz = np.stack([1 - p1, p1 - 1], axis=1) / 2
    w2t = np.array([[1.0], [-1.0]])
    np.testing.assert_allclose(grads["W2"], (X + 5).T @ dz, atol=1e-12)
    np.testing.assert_allclose(grads["b2"], dz.sum(axis=0), atol=1e-12)
    np.testing.assert_allclose(grads["W1"], X.T @ (dz @ w2t), atol=1e-12)
    np.testing.assert_allclose(dX, dz @ w2t, atol=1e-12)


def test_forward_permutation_equivariant():
    rng = np.random.default_rng(3)
    model, g, X, _, _ = _random_instance(rng)
    perm = rng.permutation(g.n)
    inv = np.argsort(perm)
    edges2 = frozenset(tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edges)
    g2 = Graph(n=g.n, edges=edges2)
    out1 = model.forward(model.build_ops(g), X)
    out2 = model.forward(model.build_ops(g2), X[inv])
    np.testing.assert_allclose(out2[perm], out1, atol=1e-12)


def test_predict_tie_breaks_to_class_zero():
    model = GcnModel(W1=np.zeros((3, 2)), b1=np.zeros(2), W2=np.zeros((2, 2)), b2=np.zeros(2))
    g = Graph(n=4, edges=frozenset({(0, 1)}))
    X = np.ones((4, 3))
    np.testing.assert_array_equal(predict_classes(model, g, X), 0)


def test_forward_many_matches_single_forwards():
    rng = np.random.default_rng(17)
    for backbone in ("gcn", "sage"):
        model, g, X, _, _ = _random_instance(rng, backbone)
        ops = model.build_ops(g)
        rows = np.array([0, 2])
        deltas = rng.standard_normal((6, 2, X.shape[1]))
        batched = model.forward_many(ops, X, rows, deltas)
        for b in range(6):
            Xb = X.copy()
            Xb[rows] += deltas[b]
            np.testing.assert_allclose(batched[b], model.forward(ops, Xb), atol=1e-10)
        # one pass serves both: with zero perturbations the batch is forward bit for bit
        unperturbed = model.forward_many(ops, X, rows, np.zeros_like(deltas))
        for b in range(6):
            np.testing.assert_array_equal(unperturbed[b], model.forward(ops, X))


def _random_sparse_graph(rng, n, m):
    """Up to m distinct random edges."""
    keys = rng.choice(n * n, size=min(4 * m, n * n), replace=False)
    u, v = keys // n, keys % n
    keep = u < v
    return Graph(n=n, edges=np.column_stack((u[keep], v[keep]))[:m])


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("n, d, h", [(7, 3, 4), (120, 9, 16)])
def test_forward_many_chunks_equal_the_unchunked_oracle(monkeypatch, backbone, n, d, h):
    rng = np.random.default_rng(23)
    g = _random_sparse_graph(rng, n, 3 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h, classes=2)
    ops = model.build_ops(g)
    rows = np.array([1, 3, n - 1])
    c = 3
    monkeypatch.setattr(gnn, "FORWARD_MANY_CHUNK_BYTES", c * 8 * n * h)
    for B in (1, c - 1, c, c + 1, 2 * c + 3):
        deltas = rng.standard_normal((B, rows.size, d))
        np.testing.assert_array_equal(
            model.forward_many(ops, X, rows, deltas), forward_many_oracle(model, ops, X, rows, deltas)
        )


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_forward_many_memory_is_bounded_by_the_chunk(cls):
    rng = np.random.default_rng(29)
    n, d, rows = 1000, 27, np.arange(12)
    g = _random_sparse_graph(rng, n, 5 * n)
    X = rng.standard_normal((n, d))
    model = cls.init(rng, d=d, hidden=64, classes=2)
    ops = model.build_ops(g)
    c = gnn.FORWARD_MANY_CHUNK_BYTES // (8 * n * model.h)
    assert 2 * c <= 150

    def peak(B):
        deltas = rng.standard_normal((B, rows.size, d))
        tracemalloc.start()
        try:
            model.forward_many(ops, X, rows, deltas)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(150) < 2 * peak(c)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("n, d, h", [(9, 3, 4), (120, 9, 16)])
def test_forward_flips_equal_the_rebuild_oracle(backbone, n, d, h):
    rng = np.random.default_rng(31)
    e = _random_sparse_graph(rng, n, 2 * n).edge_array()
    kept = e[e[:, 1] != n - 1]
    # node n - 1 keeps one edge, to node 0: flipping (0, n - 1) removes its last edge
    g = Graph(n=n, edges=np.vstack([kept, [[0, n - 1]]]))
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h, classes=2)
    keys = set(map(tuple, g.edge_array().tolist()))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in keys]
    added = np.array(absent)[rng.choice(len(absent), size=6, replace=False)]
    removed = kept[rng.choice(len(kept), size=6, replace=False)]
    pairs = np.vstack([added, removed, [[0, n - 1]]])
    assert _sage_ops(g.flip([(0, n - 1)]))[n - 1].nnz == 0
    np.testing.assert_array_equal(model.forward_flips(g, X, pairs), flip_logits_oracle(model, g, X, pairs))


def _train_world(n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = (np.arange(n) < n // 2).astype(int)
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (0.2 if y[u] == y[v] else 0.03)
    ]
    g = Graph(n=n, edges=frozenset(pairs))
    X = rng.standard_normal((n, 4)) + 0.8 * y[:, None]
    labels = NodeLabels(y=y, s=rng.integers(0, 2, size=n))
    idx = rng.permutation(n)
    split = SplitSpec(
        train=tuple(int(i) for i in idx[:30]),
        validation=tuple(int(i) for i in idx[30:50]),
        test_pool=tuple(int(i) for i in idx[50:]),
        vulnerable=(int(idx[50]),),
    )
    return g, X, labels, split


def test_training_learns_separable_data():
    g, X, labels, split = _train_world()
    model = train(g, X, labels, split, TrainConfig(seed=0, epochs=120, dropout=0.3))
    cls = predict_classes(model, g, X)
    pool = list(split.test_pool)
    assert (cls[pool] == labels.y[pool]).mean() >= 0.8


def test_training_is_deterministic():
    g, X, labels, split = _train_world()
    cfg = TrainConfig(seed=5, epochs=30)
    m1 = train(g, X, labels, split, cfg)
    m2 = train(g, X, labels, split, cfg)
    for k, v in m1.params().items():
        np.testing.assert_array_equal(v, m2.params()[k])


def test_training_zero_epochs_returns_init():
    g, X, labels, split = _train_world()
    m = train(g, X, labels, split, TrainConfig(seed=1, epochs=0))
    assert m.W1.shape == (4, 64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_raises():
    g, X, labels, split = _train_world()
    with pytest.raises(TrainingDivergedError):
        train(g, X * 1e150, labels, split, TrainConfig(seed=0, epochs=10, lr=1e10))


def test_augmented_training_differs_but_converges():
    g, X, labels, split = _train_world()
    cfg = TrainConfig(seed=0, epochs=60, train_noise_flip_prob=5e-3, train_noise_std=1e-2)
    plain = train(g, X, labels, split, cfg)
    noisy = train(g, X, labels, split, cfg, augment=True)
    assert any((plain.params()[k] != noisy.params()[k]).any() for k in plain.params())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_save_load_round_trip_bit_exact(tmp_path, backbone):
    g, X, labels, split = _train_world()
    m = train(g, X, labels, split, TrainConfig(seed=2, epochs=8), backbone=backbone)
    path = str(tmp_path / "model.bin")
    save_model(m, path)
    back = load_model(path)
    assert type(back) is type(m)
    for k, v in m.params().items():
        np.testing.assert_array_equal(v, back.params()[k])
    np.testing.assert_array_equal(predict_classes(back, g, X), predict_classes(m, g, X))
