"""Backbones: propagation operators, gradients, training, persistence."""

import itertools
import json
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from elegant import gnn
from elegant.data import DataError, Graph, NodeLabels, SplitSpec
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
from oracles import (
    OPERATOR_ORACLES,
    adjacency_oracle,
    finite_difference_input_grad,
    finite_difference_loss_grads,
    flip_logits_oracle,
    flip_oracle,
    flip_patch_oracle,
    forward_many_oracle,
    shift_bound_oracle,
    train_oracle,
)

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


def _assert_same_csr(got, want):
    """Equal shapes, index arrays and value bits."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_array_builder_equals_the_scipy_product_oracle(cls):
    n = 12
    # node 0 is a hub joined to every node but 5, which is isolated; node
    # n - 1's one edge is (0, n - 1)
    inner = [(1, 2), (2, 3), (3, 4), (1, 4), (6, 7), (7, 8), (8, 9), (9, 10), (6, 10), (2, 9)]
    g = Graph(n=n, edges=[(0, j) for j in range(1, n) if j != 5] + inner)
    model = cls.init(np.random.default_rng(0), d=1, hidden=1)
    oracle = OPERATOR_ORACLES[model.backbone]
    # removals and adds, at the hub, the isolated node and n - 1; endpoints 0
    # and n - 1 shared across pairs; (0, n - 1) empties node n - 1's SAGE row
    # and comes twice
    pairs = np.array([(0, n - 1), (0, 5), (5, n - 1), (0, 3), (1, 2), (1, 3), (10, n - 1), (2, 9), (0, n - 1)])
    flipped = [g.flip(pairs[b : b + 1]) for b in range(len(pairs) - 1)]
    assert _sage_ops(flipped[0])[n - 1].nnz == 0
    for graph in [g, Graph(n=n), *flipped]:
        _assert_same_csr(model.build_ops(graph), oracle(*adjacency_oracle(graph.edge_array(), n, model.self_loops)))
    for at in (slice(None), slice(0, 1), slice(3, 7)):
        u, v = pairs[at].T
        keys = gnn._adjacency_keys(g, model.self_loops)
        indptr, indices, deg = gnn._csr(keys, n)
        b, held, patch, offset = model._flip_patch(keys, indptr, indices, deg, model._scale(deg), u, v)
        want_R, want = flip_patch_oracle(model.backbone, g.edge_array(), n, u, v)
        np.testing.assert_array_equal(b * n + held, want_R)
        _assert_same_csr(patch, want)
        # offset is each entry's graph block, the b n of its row
        np.testing.assert_array_equal(offset, np.repeat(b * n, np.diff(patch.indptr)))


def _random_instance(rng, backbone="gcn"):
    n = int(rng.integers(4, 9))
    d = int(rng.integers(2, 5))
    h = int(rng.integers(3, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph(n=n, edges=frozenset(pairs))
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, size=n)
    cls = GcnModel if backbone == "gcn" else SageModel
    model = cls.init(rng, d=d, hidden=h)
    train_idx = rng.choice(n, size=max(2, n // 2), replace=False)
    return model, g, X, y, np.sort(train_idx)


def _max_rel_err(analytic, numeric):
    err = 0.0
    for name in numeric:
        a, f = analytic[name], numeric[name]
        err = max(err, float(np.max(np.abs(a - f) / np.maximum(1.0, np.abs(f)))))
    return err


def _loss_input_grad(model, ops, X, y, idx):
    """The training loss's gradient in X: input_grad of the loss's logit gradient."""
    return model.input_grad(ops, X, gnn._cross_entropy(model.forward(ops, X), y, idx)[1])


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_gradients_match_finite_differences(backbone):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        model, g, X, y, idx = _random_instance(rng, backbone)
        ops = model.build_ops(g)
        _, grads = model.loss_grads(ops, X, y, idx)
        fd_grads, fd_X = finite_difference_loss_grads(model, ops, X, y, idx)
        worst = max(worst, _max_rel_err(grads, fd_grads))
        worst = max(worst, _max_rel_err({"X": _loss_input_grad(model, ops, X, y, idx)}, {"X": fd_X}))
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
    _, grads = model.loss_grads(ops, X, np.array([0, 1]), [0, 1])
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
    _, grads = model.loss_grads(ops, X, np.array([1, 1]), [0, 1])
    dX = _loss_input_grad(model, ops, X, np.array([1, 1]), [0, 1])
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
        batched = _chunk_logits(model, ops, X, rows, deltas)
        _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), batched)
        for b in range(6):
            Xb = X.copy()
            Xb[rows] += deltas[b]
            np.testing.assert_allclose(batched[b], model.forward(ops, Xb), atol=1e-10)
        # one pass serves both: with zero perturbations the batch is forward bit for bit
        unperturbed = _chunk_logits(model, ops, X, rows, np.zeros_like(deltas))
        for b in range(6):
            np.testing.assert_array_equal(unperturbed[b], model.forward(ops, X))


def _chunk_logits(model, ops, X, rows, deltas, z=None, cols=None):
    """Logits (B, n, C), widened to float64, of forward_many's production chunk loop (_chunks) in the model's dtype, whose classes its exact path emits; z defaults to the clean pre-activation pre[-1]."""
    rows = np.asarray(rows, dtype=np.int64)
    z = model._pre(ops, X)[-1] if z is None else z
    cols = ops[:, rows].toarray() if cols is None else cols
    logits = np.empty((deltas.shape[0], X.shape[0], model.C))
    for at, own, P in model._chunks(ops, rows, deltas, z, cols):
        logits[at] = model._logits(own, P)
    return logits


def _flip_logits(model, g, X, pairs, rows=None):
    """Logits (B, len(rows), C) of forward_flips's flip groups, read where each group's _emit call turns them into classes."""
    emitted, emit = [], model._emit

    def spy(own, P, out):
        emitted.append(model._logits(own, P))
        emit(own, P, out)

    size = g.n if rows is None else len(rows)
    model._emit = spy
    try:
        model.forward_flips(g, X, pairs, np.empty((len(pairs), size), np.uint8), rows=rows)
    finally:
        del model._emit
    return np.concatenate(emitted) if emitted else np.empty((0, size, model.C))


def _random_sparse_graph(rng, n, m):
    """Up to m distinct random edges."""
    keys = rng.choice(n * n, size=min(4 * m, n * n), replace=False)
    u, v = keys // n, keys % n
    keep = u < v
    return Graph(n=n, edges=np.column_stack((u[keep], v[keep]))[:m])


def _blocks_and_chunks(n, h, C, itemsize=8):
    """forward_many's block and chunk of draws (_chunks) at the current FORWARD_MANY_CHUNK_BYTES."""
    return tuple(max(1, gnn.FORWARD_MANY_CHUNK_BYTES // (itemsize * n * k)) for k in (h, C))


def _block_sizes(B, block, chunk):
    """The draws of each block of B draws: in every chunk (all full but the last), full blocks and then the rest."""
    sizes = []
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        sizes += [min(block, stop - first) for first in range(start, stop, block)]
    return sizes


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("n, d, h", [(7, 3, 4), (120, 9, 16)])
def test_forward_many_chunks_equal_the_unchunked_oracle(monkeypatch, backbone, n, d, h):
    rng = np.random.default_rng(23)
    g = _random_sparse_graph(rng, n, 3 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    ops = model.build_ops(g)
    rows = np.array([1, 3, n - 1])
    # the draw count of every _layer1 call, each one block of layer 1, read from the buffer it writes
    sizes, layer1 = [], type(model)._layer1

    def spy(self, z, cols, rows, shift, out):
        sizes.append(len(out))
        return layer1(self, z, cols, rows, shift, out)

    monkeypatch.setattr(type(model), "_layer1", spy)
    for block in (1, 3):
        monkeypatch.setattr(gnn, "FORWARD_MANY_CHUNK_BYTES", block * 8 * n * h)
        got, chunk = _blocks_and_chunks(n, h, 2)
        assert got == block and chunk > block
        for B in (1, block + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 3 * chunk - 1):
            deltas = rng.standard_normal((B, rows.size, d))
            want = forward_many_oracle(model, ops, X, rows, deltas)
            sizes.clear()
            np.testing.assert_array_equal(_chunk_logits(model, ops, X, rows, deltas), want)
            assert sizes == _block_sizes(B, block, chunk)
            _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)


def _assert_classes_are_the_argmax(batched, args, logits):
    """batched(*args, out=) fills and returns a (B, n) uint8 out equal to logits.argmax(axis=2)."""
    out = np.full(logits.shape[:2], 255, dtype=np.uint8)
    assert batched(*args, out=out) is out
    np.testing.assert_array_equal(out, logits.argmax(axis=2))


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_forward_many_equals_the_unchunked_oracle_at_production_shape(backbone):
    # sbm-german's shape: n=1000, d=27, h=64, 12 vulnerable rows, 150 draws,
    # at the real sizes: several full chunks and a remainder, each chunk
    # several full blocks and a remainder
    rng = np.random.default_rng(47)
    n, d, h, B = 1000, 27, 64, 150
    g = _random_sparse_graph(rng, n, 5 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    model.b1 = rng.standard_normal(h)  # init's zero bias would leave the bias add untested
    ops = model.build_ops(g)
    rows = np.sort(rng.choice(n, size=12, replace=False))
    block, chunk = _blocks_and_chunks(n, h, 2)
    assert 2 * chunk < B and B % chunk and 2 * block < chunk and chunk % block
    deltas = rng.standard_normal((B, rows.size, d))
    want = forward_many_oracle(model, ops, X, rows, deltas)
    np.testing.assert_array_equal(_chunk_logits(model, ops, X, rows, deltas), want)
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)


@pytest.mark.parametrize("C", [2])  # the class count: backbones are binary
def test_first_max_picks_as_argmax_on_ties_signed_zeros_and_nans(C):
    values = [np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
    grid = np.array(list(itertools.product(values, repeat=C))).T  # every C-tuple of values, one per column
    classes = [grid[c].reshape(-1, 7) for c in range(C)]
    out = np.full(classes[0].shape, 255, dtype=np.uint8)
    assert gnn._first_max(*classes, out) is out
    np.testing.assert_array_equal(out, np.stack(classes, axis=2).argmax(axis=2))


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("case", ["equal columns", "nan"])
def test_forward_many_classes_follow_argmax_on_ties_nans_and_more_classes(backbone, case):
    rng = np.random.default_rng(59)
    n, d, h, B = 60, 5, 8, 7
    g = _random_sparse_graph(rng, n, 2 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    layer2 = ("W2",) if backbone == "gcn" else ("Ws2", "Wn2")
    if case == "equal columns":
        for name in layer2:
            getattr(model, name)[:, 1] = getattr(model, name)[:, 0]
    elif case == "nan":
        # inf times a zero activation is NaN: some nodes' logits go NaN in class 0, some in class 1, some in both
        for name in layer2:
            getattr(model, name)[0, 0] = getattr(model, name)[1, 1] = np.inf
    ops = model.build_ops(g)
    rows = np.array([0, 5, 11])
    deltas = rng.standard_normal((B, rows.size, d))
    with np.errstate(invalid="ignore"):
        logits = forward_many_oracle(model, ops, X, rows, deltas)
        if case == "equal columns":
            assert (logits[..., 0] == logits[..., 1]).all()
        elif case == "nan":
            nan = np.isnan(logits)
            for pattern in ((True, False), (False, True), (True, True), (False, False)):
                assert (nan == pattern).all(axis=2).any()
        _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), logits)


def test_forward_many_tiles_give_the_scalar_operands_bits(monkeypatch):
    rng = np.random.default_rng(53)
    n, d, h = 50, 3, 16
    model = GcnModel.init(rng, d=d, hidden=h)
    # _chunks runs its blocks' ReLU in place, layer 1's output first, against one C-contiguous (m, h) zero tile in the weights' dtype
    seen = []

    class Spied:
        """numpy, recording the operands of every np.maximum call."""

        def __getattr__(self, name):
            return getattr(np, name)

        def maximum(self, *args, **kwargs):
            seen.append((args, kwargs))
            return np.maximum(*args, **kwargs)

    g = _random_sparse_graph(rng, n, 2 * n)
    rows = np.array([1, 4])
    for twin in (model, model._map(lambda w: w.astype(np.float32))):
        ops = twin.build_ops(g).astype(twin.b1.dtype)
        z = twin._pre(ops, rng.standard_normal((n, d)).astype(twin.b1.dtype))[-1]
        seen.clear()
        with monkeypatch.context() as mp:
            mp.setattr(gnn, "np", Spied())
            list(twin._chunks(ops, rows, rng.standard_normal((3, rows.size, d)), z, ops[:, rows].toarray()))
        assert seen
        for (h1, zero), kwargs in seen:
            assert kwargs["out"] is h1
            assert zero.shape == (n, h) and zero.dtype == twin.b1.dtype and zero.flags.c_contiguous and not zero.any()
    # +0.0, -0.0, negative and positive entries, in a (chunk, n, h) batch
    z = rng.choice([0.0, -0.0, -1.0, 1.0], size=(3, n, h)) * rng.uniform(1.0, 2.0, size=(3, n, h))
    zeros = z == 0.0
    assert (zeros & np.signbit(z)).any() and (zeros & ~np.signbit(z)).any() and (z < 0).any() and (z > 0).any()

    def bits(a):
        return a.view(np.uint64)

    out = z.copy()
    relu = np.maximum(out, np.zeros((n, h)), out=out)
    assert relu is out
    np.testing.assert_array_equal(bits(relu), bits(np.maximum(z, 0.0)))
    relu, mask = gnn._relu_dropout(z, 0.0, None)
    assert mask is None
    np.testing.assert_array_equal(bits(relu), bits(out))


def _assert_memory_is_bounded_by_the_chunk(cls, exact):
    """The tracemalloc peak of three chunks of draws stays below twice one chunk's, on forward_many's float32 pass or its exact float64 path."""
    rng = np.random.default_rng(29)
    n, d, rows = 1000, 27, np.arange(12)
    g = _random_sparse_graph(rng, n, 5 * n)
    X = rng.standard_normal((n, d))
    model = cls.init(rng, d=d, hidden=64)
    ops = model.build_ops(g)
    pre, cols = model._pre(ops, X), ops[:, rows].toarray()
    # the layer-2 chunk: the float32 pass holds twice the draws of the float64 path
    block, c = _blocks_and_chunks(n, model.h, model.C, 8 if exact else 4)
    assert 2 * block <= c

    def peak(B):
        deltas, out = rng.standard_normal((B, rows.size, d)), np.empty((B, n), np.uint8)
        tracemalloc.start()
        try:
            if exact:
                model._exact(ops, rows, deltas, pre, cols, out)
            else:
                model.forward_many(ops, X, rows, deltas, out=out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3 * c) < 2 * peak(c)


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_forward_many_memory_is_bounded_by_the_chunk(cls):
    _assert_memory_is_bounded_by_the_chunk(cls, exact=False)


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_exact_path_memory_is_bounded_by_the_chunk(cls):
    _assert_memory_is_bounded_by_the_chunk(cls, exact=True)


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_re_evaluation_batches_hold_at_most_the_chunk_bytes_of_hidden_rows(monkeypatch, cls):
    # the bound is widened at ten hubs of 80 neighbours each, so every draw leaves
    # them unsettled: 1,500 node-draws reading about 120,000 hidden rows, each
    # draw's about 810 rows, fewer than its 1,000 nodes, so none is rerun.  One
    # batch of them all would hold about 32 MiB of hidden rows
    rng = np.random.default_rng(89)
    n, d, B, hubs = 1000, 8, 150, np.arange(990, 1000)
    edges = _random_sparse_graph(rng, n, 2 * n).edge_array()
    spokes = [(int(u), int(hub)) for hub in hubs for u in rng.choice(hubs[0], size=80, replace=False)]
    g = Graph(n=n, edges=np.unique(np.vstack([edges[edges[:, 1] < hubs[0]], spokes]), axis=0))
    X = rng.standard_normal((n, d))
    model = cls.init(rng, d=d, hidden=64)
    ops, rows = model.build_ops(g), np.arange(12)
    deltas = 0.1 * rng.standard_normal((B, rows.size, d))
    margin_bounds, node_logits, batches = cls._margin_bounds, cls._node_logits, []

    def widened(self, *args):
        bound32, bound64, keep = margin_bounds(self, *args)
        bound32[hubs] = np.inf
        return bound32, bound64, keep

    def measured(self, ops, z, cols, rows, deltas, b, v):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logits = node_logits(self, ops, z, cols, rows, deltas, b, v)
        batches.append((np.diff(ops.indptr)[v].sum() + v.size, self.h, tracemalloc.get_traced_memory()[1] - start))
        return logits

    monkeypatch.setattr(cls, "_margin_bounds", widened)
    monkeypatch.setattr(cls, "_node_logits", measured)
    want = forward_many_oracle(model, ops, X, rows, deltas)
    tracemalloc.start()
    try:
        _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)
    finally:
        tracemalloc.stop()
    assert model.fallbacks.rerun == 0 and model.fallbacks.settled >= B * hubs.size - 10
    # many batches, each holding at most the chunk's bytes of the kept units' hidden rows (operator rows and own rows), none above 4 chunks at its peak
    assert len(batches) >= 10
    assert all(8 * h * rows <= gnn.FORWARD_MANY_CHUNK_BYTES for rows, h, _ in batches)
    assert max(peak for _, _, peak in batches) < 4 * gnn.FORWARD_MANY_CHUNK_BYTES


def _float32_pass(model, ops, X, rows, deltas):
    """(m, twin, operands) of forward_many's own float32 pass, read through spies on _chunks and _difference_classes: its logit differences m (B, n), logit 1 minus logit 0 widened to float64, the float32 model it ran and the operands (ops, rows, z, cols) of its _chunks call; three Nones if it ran no float32 chunk."""
    chunks, classes, seen, parts = type(model)._chunks, gnn._difference_classes, [], []

    def spy(self, ops, rows, deltas, z, cols, **kwargs):
        if self.b1.dtype == np.float32:
            seen.append((self, (ops, rows, z, cols)))
        yield from chunks(self, ops, rows, deltas, z, cols, **kwargs)

    def read(m, out):
        parts.append(m.astype(np.float64))
        return classes(m, out)

    B, n = deltas.shape[0], X.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(model), "_chunks", spy)
        mp.setattr(gnn, "_difference_classes", read)
        model.forward_many(ops, X, rows, deltas, out=np.empty((B, n), np.uint8))
    if not seen:
        return None, None, None
    # one float32 call ran every draw, in order
    assert len(seen) == 1
    m = np.concatenate(parts)
    assert m.shape == (B, n, 1)
    return m[..., 0], *seen[0]


def _moving_rows(ops, rows):
    """The rows the noise reaches: those with an entry in ops[:, rows], and rows themselves."""
    return np.union1d(ops[:, rows].tocoo().row, rows)


def _difference(logits):
    """Logit 1 minus logit 0 of logits (..., 2)."""
    return logits[..., 1] - logits[..., 0]


def _margin_errors(m, logits):
    """|m - (logit 1 - logit 0)|: the error of the logit differences m against the logits (..., 2)."""
    return np.abs(m - _difference(logits))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    backbone=st.sampled_from(["gcn", "sage"]),
    w_exp=st.integers(-20, 20),
    x_exp=st.integers(-20, 20),
    biases=st.booleans(),
    dead=st.booleans(),
)
@example(seed=0, backbone="gcn", w_exp=20, x_exp=20, biases=True, dead=False)
@example(seed=0, backbone="sage", w_exp=20, x_exp=20, biases=True, dead=False)
@example(seed=1, backbone="gcn", w_exp=-20, x_exp=-20, biases=True, dead=False)
@example(seed=1, backbone="sage", w_exp=-20, x_exp=-20, biases=True, dead=False)
# zero biases and layer-2 products near 1e-50, below float32's range: only the underflow term covers them
@example(seed=2, backbone="gcn", w_exp=-20, x_exp=-10, biases=False, dead=False)
@example(seed=2, backbone="sage", w_exp=-20, x_exp=-10, biases=False, dead=False)
# every other hidden unit dead under every draw, so the float32 pass skips it
@example(seed=3, backbone="gcn", w_exp=0, x_exp=0, biases=True, dead=True)
@example(seed=3, backbone="sage", w_exp=0, x_exp=0, biases=True, dead=True)
@example(seed=4, backbone="gcn", w_exp=-12, x_exp=-5, biases=False, dead=True)
@example(seed=4, backbone="sage", w_exp=10, x_exp=-8, biases=False, dead=True)
def test_margin_bounds_cover_the_float32_and_the_re_evaluated_margins(seed, backbone, w_exp, x_exp, biases, dead):
    rng = np.random.default_rng(seed)
    n, d, h, B = int(rng.integers(8, 40)), int(rng.integers(2, 6)), int(rng.integers(2, 9)), 4
    g = _random_sparse_graph(rng, n, 3 * n)
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    model = model.replace({k: (rng.standard_normal(w.shape) * biases if k.startswith("b") else w) * 10.0**w_exp for k, w in model.params().items()})
    if dead:
        # far below any clean pre-activation or shift these weights and inputs reach
        model.b1[::2] -= 1e4 * 10.0 ** max(w_exp + x_exp, w_exp)
    X = rng.standard_normal((n, d)) * 10.0**x_exp
    rows = np.sort(rng.choice(n, size=3, replace=False))
    deltas = rng.standard_normal((B, rows.size, d)) * 10.0**x_exp
    ops = model.build_ops(g)
    cols = ops[:, rows].toarray()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _chunk_logits(model, ops, X, rows, deltas)
        _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)
    bounds = model._margin_bounds(ops, model._pre(ops, X), rows, deltas, cols)
    if w_exp + x_exp >= 39:
        # X W1 reaches 1e39, past float32's range: every draw takes the float64 path
        assert bounds is None
    if bounds is None:
        return
    bound32, bound64, keep = bounds
    m, twin, _ = _float32_pass(model, ops, X, rows, deltas)
    assert (_margin_errors(m, want) <= bound32).all()
    assert twin.h == keep.size and (not dead or keep.size <= h // 2)
    b, v = (a.ravel() for a in np.indices((B, n)))
    again = model._node_logits(ops, model._pre(ops, X)[-1], ops[:, rows], rows, deltas, b, v).reshape(B, n, 2)
    assert (_margin_errors(_difference(again), want) <= bound64).all()


def test_a_sixty_fourth_of_the_margin_bound_is_exceeded():
    # a star whose hub sums 200 terms in row order: the first is large and every
    # later one lies below half an ulp of the float32 partial sum, so each is lost.
    # The hub is the perturbed row, so the noise reaches every node and the float32
    # pass sums the hub's whole row per draw, none of it in the constant
    n = 201
    hub = n - 1
    g = Graph(n=n, edges=[(k, hub) for k in range(hub)])
    X = np.full((n, 1), 2.0**-26)
    X[0], X[hub] = 1.0, 0.0
    model = GcnModel(W1=[[1.0]], b1=[0.0], W2=[[1.0, 0.0]], b2=[0.0, 0.0])
    ops, rows, deltas = model.build_ops(g), np.array([hub]), np.zeros((1, 1, 1))
    bound32 = model._margin_bounds(ops, model._pre(ops, X), rows, deltas, ops[:, rows].toarray())[0]
    err = _margin_errors(_float32_pass(model, ops, X, rows, deltas)[0], _chunk_logits(model, ops, X, rows, deltas))
    assert err[0, hub] > bound32[hub] / 64
    assert (err <= bound32).all()


def test_dead_units_add_no_rounding_to_the_margin_bound():
    # the star of the test above with 50 leaves, and 1,000 more hidden units that
    # b1 = -4 holds negative at every node: each is an exact 0 in every pass, so
    # the bound counts the one kept unit's layer-2 dot products alone and stays
    # within 64 times the float32 error, as counting all 1,001 would not (about
    # 90 times); the kept twin's re-evaluation stays within bound64
    n = 51
    hub = n - 1
    g = Graph(n=n, edges=[(k, hub) for k in range(hub)])
    X = np.full((n, 1), 2.0**-26)
    X[0], X[hub] = 1.0, 0.0
    h = 1001
    b1 = np.full(h, -4.0)
    b1[0] = 0.0
    W2 = np.zeros((h, 2))
    W2[:, 0] = 1.0
    model = GcnModel(W1=np.ones((1, h)), b1=b1, W2=W2, b2=[0.0, 0.0])
    ops, rows, deltas = model.build_ops(g), np.array([hub]), np.zeros((1, 1, 1))
    pre = model._pre(ops, X)
    bound32, bound64, keep = model._margin_bounds(ops, pre, rows, deltas, ops[:, rows].toarray())
    np.testing.assert_array_equal(keep, [0])
    want = _chunk_logits(model, ops, X, rows, deltas)
    err = _margin_errors(_float32_pass(model, ops, X, rows, deltas)[0], want)
    assert err[0, hub] > bound32[hub] / 64
    assert (err <= bound32).all()
    v = np.arange(n)
    again = model._map(np.asarray, keep)._node_logits(ops, np.take(pre[-1], keep, axis=1), ops[:, rows], rows, deltas, np.zeros(n, np.int64), v)
    assert (_margin_errors(_difference(again)[None], want) <= bound64).all()


def test_layer_one_sums_lost_in_float32_stay_within_the_margin_bound():
    # many attributes, one hidden unit and one-entry operator rows (isolated
    # nodes) make layer 1's dot products far longer than layer 2's (K1 = d + 8,
    # K2 = 10).  Each draw row's first 64 terms are 1, so every partial sum a
    # vectorised float32 dot product keeps is at least 1, and its other 4096
    # terms, 2^-25, lie below half an ulp of that sum: deltas @ W1 loses them all
    n, d = 2, 64 + 4096
    model = GcnModel(W1=np.ones((d, 1)), b1=[0.0], W2=[[1.0, 0.0]], b2=[0.0, 0.0])
    ops, X, rows = model.build_ops(Graph(n=n, edges=[])), np.zeros((n, d)), np.arange(n)
    deltas = np.full((3, n, d), 2.0**-25)
    deltas[:, :, :64] = 1.0
    bound32 = model._margin_bounds(ops, model._pre(ops, X), rows, deltas, ops[:, rows].toarray())[0]
    err = _margin_errors(_float32_pass(model, ops, X, rows, deltas)[0], _chunk_logits(model, ops, X, rows, deltas))
    # the loss, 4096 * 2^-25 = 2^-13 here, exceeds twice layer 2's share of the bound, about gamma_10 * 64 = 2^-14.7: only layer 1's term covers it
    assert (err > 2.0**-14).all()
    assert (err <= bound32).all()


def _dead_unit_model(backbone, case, rng, n=14, d=2, h=6):
    """(model, ops, X, rows, deltas, keep) with hidden units dead under every draw, and keep the units the float32 pass must run.

    "mixed": units 0 and 1 live, 2 and 5 dead under every draw (b1 = -100),
    3 dead on the clean input but switched on by draw 3's delta in row
    rows[0] and 4 by draw 4's delta in row rows[1]; for SAGE, unit 4 is
    switched on by that row's own Ws1 shift alone (its Wn1 column is 0).
    Units 3 and 4 push class 1 hard, so the classes of draws 3 and 4 need
    them.  "all dead": b1 = -100 on every unit; "none dead": b1 = +100.
    """
    g = _random_sparse_graph(rng, n, 2 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    rows = np.array([3, 7])
    deltas = 0.01 * rng.standard_normal((6, rows.size, d))
    deltas[3, 0, 0] = deltas[4, 1, 1] = 20.0
    layer1 = ("W1",) if backbone == "gcn" else ("Ws1", "Wn1")
    layer2 = ("W2",) if backbone == "gcn" else ("Ws2", "Wn2")
    for name in layer2:
        getattr(model, name)[:] *= 0.1
    model.b2[:] = 0.0
    model.b2[0] = 1.0
    if case != "mixed":
        model.b1[:] = 100.0 if case == "none dead" else -100.0
        keep = np.arange(h) if case == "none dead" else np.arange(0)
        return model, model.build_ops(g), X, rows, deltas, keep
    for name in layer1:
        getattr(model, name)[:, 3:5] = np.eye(d)
    if backbone == "sage":
        model.Wn1[:, 4] = 0.0
    for name in layer2:
        getattr(model, name)[3:5] = 0.0
        getattr(model, name)[3:5, 1] = 50.0
    ops = model.build_ops(g)
    model.b1[:] = 0.0
    pre = model._pre(ops, X)
    clean = pre[-1]
    model.b1[:] = [0.5, 0.5, -100.0, 0.0, 0.0, -100.0]
    model.b1[3:5] = -clean[:, 3:5].max(axis=0) - 1.0
    return model, ops, X, rows, deltas, np.array([0, 1, 3, 4])


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("C", [2])  # the class count: backbones are binary
@pytest.mark.parametrize("case", ["mixed", "all dead", "none dead"])
def test_float32_pass_skips_exactly_the_units_dead_under_every_draw(monkeypatch, backbone, C, case):
    model, ops, X, rows, deltas, keep = _dead_unit_model(backbone, case, np.random.default_rng(79))
    want = forward_many_oracle(model, ops, X, rows, deltas)
    pre = model._pre(ops, X)
    z = pre[-1]  # the clean pre-activation, b1 included
    if case == "mixed":
        # units 3 and 4 are off on the clean input, and switching them on moves classes
        assert (z[:, 3:5] < -0.5).all()
        assert (want[3].argmax(axis=1) != want[0].argmax(axis=1)).any()
        assert (want[4, rows[1]].argmax() == 1) and (want[0, rows[1]].argmax() == 0)
    certified, margin_bounds = [], type(model)._margin_bounds

    def spy(self, *args):
        bounds = margin_bounds(self, *args)
        certified.append(bounds[2])
        return bounds

    monkeypatch.setattr(type(model), "_margin_bounds", spy)
    skipped = model.fallbacks.skipped
    _, twin, (_, _, z32, _) = _float32_pass(model, ops, X, rows, deltas)
    np.testing.assert_array_equal(certified[-1], keep)
    assert model.fallbacks.skipped - skipped == model.h - keep.size
    # the float32 pass ran on the weights of the certified units alone (layer 2's as class 1's differences from class 0) and on their clean pre-activation
    for name, w in model.params().items():
        part = w[..., keep] if name[-1] == "1" else gnn._differences(w) if name == "b2" else gnn._differences(w)[keep]
        np.testing.assert_array_equal(getattr(twin, name), part.astype(np.float32))
    np.testing.assert_array_equal(z32, z[_moving_rows(ops, rows)][:, keep].astype(np.float32))
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)


def _row_split_world(case, rng, n=40):
    """(g, rows, moving): a graph, its perturbed rows and the rows the noise reaches, rows and their neighbours, by construction.

    "isolated": rows[0] has no edge, so SAGE's cols column for it is zero
    and GCN's holds its self loop alone; "own shift only": no two rows are
    adjacent, so a SAGE row is reached by its own Ws1 shift alone; "hub":
    rows[0] is joined to every node, so every row is reached; "rows only":
    the rows form a triangle joined to nothing else.
    """
    rows = np.array([4, 17, 29])
    e = _random_sparse_graph(rng, n, 2 * n).edge_array()
    at_rows = np.isin(e, rows)
    if case == "isolated":
        e = e[~(e == rows[0]).any(axis=1)]
    elif case == "own shift only":
        e = e[~at_rows.all(axis=1)]
    elif case == "hub":
        e = np.concatenate([e, [(min(rows[0], k), max(rows[0], k)) for k in range(n) if k != rows[0]]])
    else:
        e = np.concatenate([e[~at_rows.any(axis=1)], [(4, 17), (4, 29), (17, 29)]])
    g = Graph(n=n, edges=np.unique(e, axis=0))
    e = g.edge_array()
    moving = np.union1d(rows, np.concatenate([e[np.isin(e[:, 0], rows), 1], e[np.isin(e[:, 1], rows), 0]]))
    sizes = {"isolated": None, "own shift only": None, "hub": n, "rows only": rows.size}
    assert sizes[case] in (None, moving.size)
    if case == "isolated":
        assert rows[0] in moving and not np.isin(e, rows[0]).any()
    if case == "own shift only":
        assert not np.isin(e, rows).all(axis=1).any()
    return g, rows, moving


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("C", [2])  # the class count: backbones are binary
@pytest.mark.parametrize("case", ["isolated", "own shift only", "hub", "rows only"])
def test_float32_pass_runs_layer_one_on_the_rows_the_noise_reaches(monkeypatch, backbone, C, case):
    rng = np.random.default_rng(83)
    g, rows, moving = _row_split_world(case, rng)
    n, d, h, B = g.n, 4, 8, 40
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    model.b1 = rng.standard_normal(h)
    ops = model.build_ops(g)
    model.b2 = -np.median(model.forward(ops, X), axis=0)  # clean classes mixed, many near a boundary
    np.testing.assert_array_equal(_moving_rows(ops, rows), moving)
    # large noise, so the perturbed rows' classes and their neighbours' move across draws
    deltas = 3.0 * rng.standard_normal((B, rows.size, d))
    want = forward_many_oracle(model, ops, X, rows, deltas)
    assert (want.argmax(axis=2) != want[0].argmax(axis=1)).any()
    buffers, layer1 = [], type(model)._layer1

    def spy(self, z, cols, rows, shift, out):
        if self.b1.dtype == np.float32:
            buffers.append(out.shape)
        return layer1(self, z, cols, rows, shift, out)

    monkeypatch.setattr(type(model), "_layer1", spy)
    reached = model.fallbacks.moving
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), want)
    assert model.fallbacks.rerun == 0 and model.fallbacks.moving - reached == moving.size
    # every block's buffer holds exactly the rows the noise reaches
    assert buffers and all(shape[1:] == (moving.size, shape[2]) for shape in buffers)
    assert sum(shape[0] for shape in buffers) == B
    # and the chunks read those rows of z, of cols and of the operator's columns
    _, twin, (ops32, where, z32, cols32) = _float32_pass(model, ops, X, rows, deltas)
    np.testing.assert_array_equal(where, np.searchsorted(moving, rows))
    np.testing.assert_array_equal(cols32, ops[moving][:, rows].toarray().astype(np.float32))
    np.testing.assert_array_equal(ops32.toarray(), ops[:, moving].toarray().astype(np.float32))
    assert z32.shape == (moving.size, twin.h)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_exact_ties_and_nan_draws_rerun_on_the_float64_path(backbone):
    rng = np.random.default_rng(61)
    n, d, h, B = 60, 5, 8, 7
    g = _random_sparse_graph(rng, n, 2 * n)
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    ops, rows = model.build_ops(g), np.array([0, 5, 11])
    deltas = rng.standard_normal((B, rows.size, d))
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), _chunk_logits(model, ops, X, rows, deltas))
    assert model.fallbacks.rerun == 0 and model.fallbacks.settled >= 0
    # a NaN in one draw's deltas lies outside float32's range: every draw reruns
    deltas[4, 1, 2] = np.nan
    with np.errstate(invalid="ignore"):
        _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), _chunk_logits(model, ops, X, rows, deltas))
    assert model.fallbacks.rerun == B
    deltas[4, 1, 2] = 0.0
    # an isolated node t whose two logits are P0 + P1 and P1 + P0 ties exactly in
    # every draw: its re-evaluation cannot settle it, so every draw reruns
    t = n - 1
    ops = model.build_ops(Graph(n=n, edges=[e for e in g.edge_array() if t not in e]))
    P = _chunk_logits(model, ops, X, rows, deltas[:1])[0, t]  # b2 is 0
    model.b2 = P[::-1].copy()
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), _chunk_logits(model, ops, X, rows, deltas))
    assert model.fallbacks.rerun == 2 * B
    # equal layer-2 columns tie every node: every draw reruns, none is re-evaluated
    for name in ("W2",) if backbone == "gcn" else ("Ws2", "Wn2"):
        getattr(model, name)[:, 1] = getattr(model, name)[:, 0]
    model.b2[:] = 0.0
    settled = model.fallbacks.settled
    _assert_classes_are_the_argmax(model.forward_many, (ops, X, rows, deltas), _chunk_logits(model, ops, X, rows, deltas))
    assert model.fallbacks.rerun == 3 * B
    assert model.fallbacks.settled == settled
    # no draws, nothing to do
    assert model.forward_many(ops, X, rows, deltas[:0], out=np.empty((0, n), np.uint8)).shape == (0, n)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("n, d, h", [(9, 3, 4), (120, 9, 16)])
def test_forward_flips_equal_the_rebuild_oracle(backbone, n, d, h):
    rng = np.random.default_rng(31)
    e = _random_sparse_graph(rng, n, 2 * n).edge_array()
    kept = e[e[:, 1] != n - 1]
    # node n - 1 keeps one edge, to node 0: flipping (0, n - 1) removes its last edge
    g = Graph(n=n, edges=np.vstack([kept, [[0, n - 1]]]))
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    keys = set(map(tuple, g.edge_array().tolist()))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in keys]
    added = np.array(absent)[rng.choice(len(absent), size=6, replace=False)]
    removed = kept[rng.choice(len(kept), size=6, replace=False)]
    pairs = np.vstack([added, removed, [[0, n - 1]]])
    assert _sage_ops(g.flip([(0, n - 1)]))[n - 1].nnz == 0
    want = flip_logits_oracle(model, g, X, pairs)
    np.testing.assert_array_equal(_flip_logits(model, g, X, pairs), want)
    _assert_classes_are_the_argmax(model.forward_flips, (g, X, pairs), want)


def _flip_charges(model, g, pairs):
    """forward_flips's per-candidate group charges for model on g."""
    return model._flip_charges(*gnn._csr(gnn._adjacency_keys(g, model.self_loops), g.n), pairs)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("group", [2, 3])
def test_forward_flips_groups_equal_the_rebuild_oracle(monkeypatch, backbone, group):
    rng = np.random.default_rng(37)
    n, d, h = 30, 5, 8
    e = _random_sparse_graph(rng, n, 2 * n).edge_array()
    kept = e[(e[:, 1] != n - 1) & (e[:, 0] != 0)]
    # node n - 1's one edge is (0, n - 1) and node 0's are (0, n - 1) and (0, 4)
    g = Graph(n=n, edges=np.vstack([kept, [[0, 4], [0, n - 1]]]))
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    keys = set(map(tuple, g.edge_array().tolist()))
    absent = [(u, v) for u in range(1, n - 1) for v in range(u + 1, n - 1) if (u, v) not in keys]
    # mixed adds and removals: node 0 in five candidates, node n - 1 in four,
    # (0, n - 1) removes node n - 1's last edge, and one pair repeats
    pool = np.array(
        [(0, n - 1), (0, 1), absent[0], kept[0], (0, 4), (3, n - 1), kept[1], (0, 2), absent[1], (1, n - 1), kept[2], (0, n - 1)]
    )
    assert _sage_ops(g.flip([(0, n - 1)]))[n - 1].nnz == 0
    charges = _flip_charges(model, g, pool)
    monkeypatch.setattr(gnn, "FORWARD_FLIPS_GROUP_BYTES", group * charges.mean())
    sizes = [stop - start for start, stop in gnn._groups(charges, gnn.FORWARD_FLIPS_GROUP_BYTES)]
    assert len(sizes) >= 3 and max(sizes) >= 2
    for B in range(1, pool.shape[0] + 1):
        for pairs in (pool[:B], pool[::-1][:B]):
            want = flip_logits_oracle(model, g, X, pairs)
            np.testing.assert_array_equal(_flip_logits(model, g, X, pairs), want)
            # each group emits its classes in one call
            _assert_classes_are_the_argmax(model.forward_flips, (g, X, pairs), want)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("group", [None, 2])
def test_forward_flips_rows_equal_the_oracle_columns(monkeypatch, backbone, group):
    rng = np.random.default_rng(59)
    n, d, h = 30, 5, 8
    e = _random_sparse_graph(rng, n, 2 * n).edge_array()
    kept = e[e[:, 1] != n - 1]
    # node n - 1's one edge is (0, n - 1): flipping it empties its SAGE row
    g = Graph(n=n, edges=np.vstack([kept, [[0, n - 1]]]))
    X = rng.standard_normal((n, d))
    model = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h)
    model.b1 = rng.standard_normal(h)  # init's zero bias would leave the hook's bias add untested
    keys = set(map(tuple, g.edge_array().tolist()))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in keys]
    pairs = np.vstack([np.array(absent)[rng.choice(len(absent), size=5, replace=False)], kept[:5], [[0, n - 1]]])
    if group is not None:
        monkeypatch.setattr(gnn, "FORWARD_FLIPS_GROUP_BYTES", group * _flip_charges(model, g, pairs).mean())
        assert len(list(gnn._groups(_flip_charges(model, g, pairs), gnn.FORWARD_FLIPS_GROUP_BYTES))) >= 4
    endpoints = set(pairs.ravel().tolist())
    cases = [
        rng.permutation(n)[:12],  # unsorted
        np.array([n - 1]),  # a single row, an endpoint
        np.array([j for j in range(n) if j not in endpoints]),  # no endpoint
        np.array([3, 0, 3, n - 1, 0]),  # repeated rows
        np.arange(n)[::-1],
        np.array([], dtype=np.int64),
    ]
    want = flip_logits_oracle(model, g, X, pairs)
    for rows in cases:
        np.testing.assert_array_equal(_flip_logits(model, g, X, pairs, rows=rows), want[:, rows])
        out = np.full((len(pairs), rows.size), 255, dtype=np.uint8)
        assert model.forward_flips(g, X, pairs, out=out, rows=rows) is out
        np.testing.assert_array_equal(out, want[:, rows].argmax(axis=2))


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_batched_calls_take_a_required_out(cls):
    rng = np.random.default_rng(67)
    g = _random_sparse_graph(rng, 9, 12)
    X = rng.standard_normal((9, 3))
    model = cls.init(rng, d=3, hidden=4)
    with pytest.raises(TypeError, match="out"):
        model.forward_many(model.build_ops(g), X, [0, 1], rng.standard_normal((2, 2, 3)))
    with pytest.raises(TypeError, match="out"):
        model.forward_flips(g, X, [(0, 1)])


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_margin_bounds_run_layer_one_for_m1_and_u_and_layer_two_once(monkeypatch, cls):
    rng = np.random.default_rng(71)
    n, d = 30, 4
    g = _random_sparse_graph(rng, n, 3 * n)
    X = rng.standard_normal((n, d))
    model = cls.init(rng, d=d, hidden=8)
    ops, rows = model.build_ops(g), np.array([2, 7])
    calls = []

    def counted(name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)

        return wrapper

    for name in ("_layer1", "_layer2"):
        monkeypatch.setattr(cls, name, counted(name))
    bounds = model._margin_bounds(ops, model._pre(ops, X), rows, rng.standard_normal((5, 2, d)), ops[:, rows].toarray())
    assert bounds is not None
    # the magnitude M1, then the shift bound U, then layer 2 once on the stack
    assert calls == ["_layer1", "_layer1", "_layer2"]


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("B", [0, 1, 7])
def test_layer_one_on_the_largest_shifts_is_z_plus_the_shift_bound_oracle(backbone, B):
    rng = np.random.default_rng(89)
    for _ in range(5):
        n, d, h = int(rng.integers(2, 60)), int(rng.integers(1, 9)), int(rng.integers(1, 12))
        model, g = (GcnModel if backbone == "gcn" else SageModel).init(rng, d=d, hidden=h), _random_sparse_graph(rng, n, 2 * n)
        ops = model.build_ops(g)
        rows = np.sort(rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False))
        z, deltas = rng.standard_normal((n, h)), rng.standard_normal((B, rows.size, d)) * rng.uniform(0.1, 3.0)
        cols = np.abs(ops[:, rows].toarray())
        U = model._layer1(z, cols, rows, partial(gnn._max_shift, deltas), np.empty((1, n, h)))[0]
        np.testing.assert_allclose(U, z + shift_bound_oracle(model, cols, rows, deltas), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("rows", [[0, 9], [-1, 2]])
def test_forward_flips_rejects_rows_outside_the_graph(rows):
    rng = np.random.default_rng(61)
    g = _random_sparse_graph(rng, 9, 12)
    model = GcnModel.init(rng, d=3, hidden=4)
    with pytest.raises(ValueError, match=r"rows must lie in \[0, 9\)"):
        model.forward_flips(g, rng.standard_normal((9, 3)), [(0, 1)], np.empty((1, 2), np.uint8), rows=rows)


@pytest.mark.parametrize("bad", [0.9, 2.5, np.nan, np.inf])
def test_forward_flips_refuses_rows_that_are_not_node_ids(bad):
    # a cast would score rows 0 and 2 for [0.9, 2.5]
    rng = np.random.default_rng(61)
    g = _random_sparse_graph(rng, 9, 12)
    model = GcnModel.init(rng, d=3, hidden=4)
    X, out = rng.standard_normal((9, 3)), np.empty((1, 2), np.uint8)
    with pytest.raises(ValueError, match=f"rows must be integers; {bad} is not one"):
        model.forward_flips(g, X, [(0, 1)], out, rows=[1.0, bad])
    with pytest.raises(DataError, match=f"edge endpoints must be integers; {bad} is not one"):
        model.forward_flips(g, X, [(0, bad)], out, rows=[1, 2])
    np.testing.assert_array_equal(model.forward_flips(g, X, [(0, 1)], out, rows=[1.0, 2.0]), model.forward_flips(g, X, [(0, 1)], out.copy(), rows=[1, 2]))


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_models_refuse_weights_that_do_not_fit_one_shape(cls):
    # d comes from the first weight's rows and h from b1, so one column too many anywhere is caught
    shapes = cls.weight_shapes(3, 4)
    weights = {name: np.zeros(s) for name, s in shapes.items()}
    cls(**weights)
    for name, s in shapes.items():
        wrong = np.zeros((*s[:-1], s[-1] + 1))
        with pytest.raises(ValueError, match="b2 must have shape" if name == "b2" else rf"weights .*'{name}': {re.escape(str(wrong.shape))}.* do not fit"):
            cls(**dict(weights, **{name: wrong}))
    # a (h, 3) layer-2 matrix beside a (2,) b2 fails here, not later inside the margin bound
    W2 = "W2" if cls is GcnModel else "Ws2"
    with pytest.raises(ValueError, match=rf"do not fit a d -> h -> 2 model, which needs .*'{W2}': \(4, 2\)"):
        cls(**dict(weights, **{W2: np.zeros((4, 3))}))


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_forward_flips_builds_two_sparse_matrices_per_group(monkeypatch, cls):
    rng = np.random.default_rng(53)
    n, d = 40, 3
    g = _random_sparse_graph(rng, n, 3 * n)
    X = rng.standard_normal((n, d))
    model = cls.init(rng, d=d, hidden=4)
    u = rng.integers(0, n - 1, size=12)
    pairs = np.column_stack([u, rng.integers(u + 1, n)])
    built = []
    init = sparse._base._spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse._base._spbase, "__init__", counted)

    def count(pairs, group_bytes, rows=None):
        """scipy.sparse matrices one forward_flips call constructs."""
        monkeypatch.setattr(gnn, "FORWARD_FLIPS_GROUP_BYTES", group_bytes)
        built.clear()
        out = np.empty((len(pairs), n if rows is None else len(rows)), dtype=np.uint8)
        model.forward_flips(g, X, pairs, out=out, rows=rows)
        return len(built)

    clean = count(pairs[:0], np.inf)
    # one group of 1 or of 12 candidates, and 12 groups of one
    assert count(pairs[:1], np.inf) == count(pairs, np.inf) == clean + 2
    assert count(pairs, 0) == clean + 2 * len(pairs)
    # the clean operator and its restriction to the scored rows, once per call
    assert clean == 2
    assert count(pairs, np.inf, rows=[5, 1]) == clean + 2
    assert count(pairs, 0, rows=[5, 1]) == clean + 2 * len(pairs)


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
@pytest.mark.parametrize("pair", [(2, 2), (3, 1), (0, 9), (-1, 2)])
def test_forward_flips_rejects_pairs_graph_flip_rejects(cls, pair):
    rng = np.random.default_rng(41)
    g = _random_sparse_graph(rng, 9, 12)
    model = cls.init(rng, d=3, hidden=4)
    message = rf"edge \({pair[0]}, {pair[1]}\) violates 0 <= u < v < 9"
    with pytest.raises(DataError, match=message):
        g.flip([pair])
    with pytest.raises(DataError, match=message):
        model.forward_flips(g, rng.standard_normal((9, 3)), [(0, 1), pair], np.empty((2, 9), np.uint8))


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
@pytest.mark.parametrize("hub", [False, True])
def test_forward_flips_memory_is_bounded_by_the_group(cls, hub):
    rng = np.random.default_rng(43)
    n, d = 1000, 27
    g = _random_sparse_graph(rng, n, 5 * n)
    u = rng.integers(0, n - 1, size=256)
    if hub:
        # node 0 joined to every node, and every candidate flips a pair at it
        g = Graph(n=n, edges=g.edges | {(0, j) for j in range(1, n)})
        u[:] = 0
    pairs = np.column_stack([u, rng.integers(u + 1, n)])
    X = rng.standard_normal((n, d))
    # all rows at hidden 64, and the greedy attack's path, a quarter of the
    # rows, at hidden 256, where the layer-1 hook's held-row block (8 h
    # bytes per row) is a hub candidate's largest charge
    for hidden, rows in ((64, None), (256, rng.choice(n, size=n // 4, replace=False))):
        model = cls.init(rng, d=d, hidden=hidden)
        group = next(gnn._groups(_flip_charges(model, g, pairs), gnn.FORWARD_FLIPS_GROUP_BYTES))[1]
        assert 2 * group <= 256

        def working(B):
            """tracemalloc peak of B candidates."""
            out = np.empty((B, n if rows is None else rows.size), dtype=np.uint8)
            tracemalloc.start()
            try:
                model.forward_flips(g, X, pairs[:B], out=out, rows=rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert working(256) < 2 * working(group)
        assert working(256) < working(1) + gnn.FORWARD_FLIPS_GROUP_BYTES


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


def test_augmented_training_reads_each_vulnerable_id_once():
    g, X, labels, split = _train_world()
    a, b = (int(i) for i in split.test_pool[:2])
    cfg = TrainConfig(seed=0, epochs=20, train_noise_flip_prob=5e-3, train_noise_std=1e-2)

    def weights(vulnerable):
        twin = SplitSpec(train=split.train, validation=split.validation, test_pool=split.test_pool, vulnerable=vulnerable)
        return train(g, X, labels, twin, cfg, augment=True).params()

    once, twice = weights((a, b)), weights((a, a, b))
    for k, v in once.items():
        np.testing.assert_array_equal(twice[k], v)
    # an empty vulnerable set skips augmentation: plain training
    plain = train(g, X, labels, split, cfg).params()
    for k, v in weights(()).items():
        np.testing.assert_array_equal(v, plain[k])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("weight_decay", -1.0),
        ("weight_decay", float("inf")),
        ("weight_decay", float("nan")),
        ("train_noise_std", -1.0),
        ("train_noise_std", float("inf")),
        ("train_noise_std", float("nan")),
        ("train_noise_flip_prob", 1.5),
        ("train_noise_flip_prob", -0.1),
        ("train_noise_flip_prob", float("nan")),
    ],
)
def test_train_config_refuses_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("hidden", 3.5), ("seed", 0.5), ("hidden", True)])
def test_train_config_refuses_non_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
        TrainConfig(**{field: value})
    TrainConfig(**{field: np.int64(3)})  # numpy integers are integers


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_train_config_refuses_a_seed_outside_64_bits(seed):
    # at construction, not at train's first substream draw
    with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
        TrainConfig(seed=seed)
    TrainConfig(seed=2**64 - 1)


def test_train_config_accepts_the_range_ends():
    TrainConfig(weight_decay=0.0, train_noise_std=0.0, train_noise_flip_prob=0.0)
    TrainConfig(train_noise_flip_prob=1.0)


def _oracle_split(split, validation):
    """split with three vulnerable nodes, and without its validation nodes unless validation."""
    return SplitSpec(
        train=split.train,
        validation=split.validation if validation else (),
        test_pool=split.test_pool,
        vulnerable=split.test_pool[:3],
    )


@pytest.mark.parametrize("validation", [True, False])
@pytest.mark.parametrize("augment", [False, True])
@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_training_equals_the_plain_loop_oracle(backbone, augment, validation):
    g, X, labels, split = _train_world()
    split = _oracle_split(split, validation)
    # about 1.7 of the 174 eligible pairs flip per epoch, so some epochs flip none
    cfg = TrainConfig(seed=4, epochs=6, train_noise_flip_prob=0.01, train_noise_std=0.1)
    got = train(g, X, labels, split, cfg, backbone, augment).params()
    for name, want in train_oracle(g, X, labels, split, cfg, backbone, augment).params().items():
        assert got[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "augment, validation, calls",
    [
        (False, True, 7 + 1),  # each validation pass's products serve the next step
        (False, False, 7),
        (True, True, 2 * 7 + 1),  # an augmented step reads perturbed products
    ],
)
@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_training_runs_pre_once_per_epoch(monkeypatch, backbone, augment, validation, calls):
    cls, seen = gnn.BACKBONES[backbone], []
    real = cls._pre

    def spy(self, ops, X):
        seen.append(X)
        return real(self, ops, X)

    monkeypatch.setattr(cls, "_pre", spy)
    g, X, labels, split = _train_world()
    train(g, X, labels, _oracle_split(split, validation), TrainConfig(seed=0, epochs=7), backbone, augment)
    assert len(seen) == calls


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_passes_without_deltas_leave_pre_as_it_is(backbone):
    rng = np.random.default_rng(8)
    model, g, X, y, train_idx = _random_instance(rng, backbone)
    # nonzero biases, which GCN's layer 1 once added into pre[1] in place
    model = model.replace({k: v + rng.standard_normal(v.shape) for k, v in model.params().items()})
    ops = model.build_ops(g)
    pre = model._pre(ops, X)
    before = [p.tobytes() for p in pre]
    logits = model.forward(ops, X, pre)
    model._pass(ops, X, pre=pre)
    model._pass(ops, X, 0.5, np.random.default_rng(0), pre=pre)
    model.loss_grads(ops, X, y, train_idx, 0.5, np.random.default_rng(0), pre=pre)
    assert [p.tobytes() for p in pre] == before
    assert logits.tobytes() == model.forward(ops, X).tobytes()


@pytest.mark.parametrize("cls", [GcnModel, SageModel])
def test_clean_pre_activation_is_the_declared_layer_one(cls):
    # layer1_weights names the weight layer 1 propagates and its own-row weight (None for none):
    # pre[-1] is X Wo + ops @ (X W) + b1, added in that order, with SAGE's mean taken of X Wn1, not of X
    rng = np.random.default_rng(31)
    n, d, h = 80, 11, 24
    model = cls.init(rng, d=d, hidden=h)
    model = model.replace({**model.params(), "b1": rng.standard_normal(h)})
    ops, X = model.build_ops(_random_sparse_graph(rng, n, 4 * n)), rng.standard_normal((n, d))
    W, Wo = (name and getattr(model, name) for name in model.layer1_weights)
    want = ops @ (X @ W)
    if Wo is not None:
        want = X @ Wo + want
    want = want + model.b1
    assert model._pre(ops, X)[-1].tobytes() == want.tobytes()


@pytest.mark.parametrize("self_loops", [True, False])
def test_toggled_keys_are_the_flipped_graphs(self_loops):
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        every = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        edges = every[rng.random(len(every)) < 0.4]
        pairs = every[rng.random(len(every)) < rng.choice([0.0, 0.3, 1.0])]
        got = gnn._adjacency_keys(Graph(n, edges).flip(pairs), self_loops)
        flipped = flip_oracle(map(tuple, edges.tolist()), map(tuple, pairs.tolist()))
        want = sorted([u * n + v for u, v in flipped] + [v * n + u for u, v in flipped] + [i * (n + 1) for i in range(n) if self_loops])
        assert got.dtype == np.int64 and got.tolist() == want


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


def _three_class(params):
    """params with a third class in layer 2, a copy of class 0's weights."""
    return {k: np.concatenate([w, w[..., :1]], axis=-1) if k[-1] == "2" else w for k, w in params.items()}


def test_backbones_refuse_a_three_class_model():
    # both metrics read class 1 alone, and the float32 filter's one logit difference is class 1's
    for cls in (GcnModel, SageModel):
        with pytest.raises(ValueError, match=r"b2 must have shape \(2,\), got \(3,\)"):
            cls(**_three_class(cls.init(np.random.default_rng(3), d=3, hidden=4).params()))


def test_load_model_refuses_a_three_class_file(tmp_path):
    path = str(tmp_path / "model.bin")
    meta = {"backbone": "gcn", "d": 3, "hidden": 4, "classes": 3, "layers": 2, "activation": "relu"}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **_three_class(GcnModel.init(np.random.default_rng(3), d=3, hidden=4).params()))
    with pytest.raises(DataError, match=re.escape(f"{path}: backbones are binary, but its meta says 3 classes")):
        load_model(path)
