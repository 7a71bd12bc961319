"""Numpy node classifiers: two-layer GCN and GraphSAGE-mean.

Backbone contract.  Certification (pipeline.PredictionCache and
certify_and_predict) needs only `backbone` (a name), `build_ops(g)` (the
propagation operator of a graph), `forward(ops, X)` (logits, shape (n, C))
and `forward_many(ops, X, rows, deltas)` (logits, shape (B, n, C), for B
perturbations of the given attribute rows).  The attacks add
`input_grad(ops, X, dlogits)`, the gradient of sum(dlogits * logits) in X,
and `forward_flips(g, X, pairs)` (logits, shape (B, n, C), of the B graphs
g with the single pair pairs[b] flipped).  `train` builds the two
reference backbones below through `init`, `loss_grads`, `params` and
`replace`.

Both reference backbones share one base, _TwoLayer: each names its
operator (`self_loops` and `_operator`, from which the one `build_ops`
derives) and writes one forward pass (_pass, optionally batched over
perturbations of a few attribute rows, or run on an operator with a few
rows swapped) and its reverse (_backward).  Prediction, the certification
pipeline's batched inference, the greedy attack's single-flip scoring,
full-batch training with manual backpropagation and input gradients all
derive from those.  Batched inference runs its draws in chunks with layer 1
computed in place in one reused buffer, so its memory is O(chunk n h), not
O(B n h).  Single-flip scoring rebuilds only the operator rows a flip
changes, and its logits equal a full rebuild bit for bit.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import DataError, Graph
from .smoothing import DOMAIN_TRAIN, eligible_pairs, substream

logger = logging.getLogger(__name__)

# Size of forward_many's layer-1 buffer, which sets its chunk of draws.  At
# n=1000, h=64 (24 draws) one 150-draw GCN mask took about 42 ms on a
# 2-core VM; chunks of 8 draws took 61 ms and a single 150-draw chunk 67 ms.
FORWARD_MANY_CHUNK_BYTES = 12 * 2**20
# heavy-ball momentum of train's gradient steps
MOMENTUM = 0.9


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-2
    epochs: int = 200
    weight_decay: float = 5e-4
    dropout: float = 0.6
    hidden: int = 64
    train_noise_flip_prob: float = 2e-4
    train_noise_std: float = 2e-5
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be positive, got {self.hidden}")


def _adjacency(g: Graph, self_loops: bool):
    """Symmetric 0/1 adjacency (plus the identity with self_loops) and its row sums."""
    e = g.edge_array()
    loops = np.arange(g.n if self_loops else 0)
    rows = np.concatenate([e[:, 0], e[:, 1], loops])
    cols = np.concatenate([e[:, 1], e[:, 0], loops])
    a = sparse.csr_matrix((np.ones(rows.shape[0], dtype=np.float64), (rows, cols)), shape=(g.n, g.n))
    return a, np.asarray(a.sum(axis=1)).ravel()


def _flip_adjacency(a, deg, u, v):
    """_adjacency's (a, deg) for the graph with the pair (u, v), u != v, toggled, as the same canonical CSR."""
    ptr, idx = a.indptr, a.indices
    # where v sits, or would sit, among row u's sorted columns, and u in row v
    at = [ptr[u] + np.searchsorted(idx[ptr[u] : ptr[u + 1]], v), ptr[v] + np.searchsorted(idx[ptr[v] : ptr[v + 1]], u)]
    sign = -1 if at[0] < ptr[u + 1] and idx[at[0]] == v else 1
    indices = np.delete(idx, at) if sign < 0 else np.insert(idx, at, [v, u])
    indptr = ptr.copy()
    indptr[u + 1 :] += sign
    indptr[v + 1 :] += sign
    deg = deg.copy()
    deg[[u, v]] += sign
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=a.shape), deg


def _diag(x):
    """diag(x) as CSR, cheaper to build than sparse.diags, which a product converts to CSR anyway.

    That conversion drops the zeros of x; here they stay, but a zero only
    ever scales an empty adjacency row (degree 0), so the products agree.
    """
    i = np.arange(x.size + 1)
    return sparse.csr_matrix((x, i[:-1], i), shape=(x.size, x.size))


def _normalized_rows(a, deg, rows=slice(None)):
    """Rows of D^{-1/2} A D^{-1/2} for the adjacency a and its row sums deg.

    A restriction to some rows runs the same sparse products on them, so it
    equals those rows of the full operator bit for bit, index order included.
    """
    d = 1.0 / np.sqrt(deg)
    return _diag(d[rows]) @ a[rows] @ _diag(d)


def _mean_rows(a, deg, rows=slice(None)):
    """Rows of D^{-1} A for the adjacency a and its row sums deg; zero rows where deg is 0.

    Restricted as _normalized_rows.  Each row stores its columns in
    descending order, an artifact of scipy's product that the weights
    trained on this operator depend on, so it is kept.
    """
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return _diag(inv[rows]) @ a[rows]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


def _relu_dropout(z1, dropout, rng, out=None):
    """Hidden activations and the inverted-dropout mask (None in eval mode); the ReLU writes into out if given."""
    h = np.maximum(z1, 0.0, out=out)
    mask = None
    if dropout > 0.0:
        mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
        h = h * mask
    return h, mask


def _relu_dropout_grad(dh, z1, mask):
    """Gradient of _relu_dropout's output pulled back to z1."""
    if mask is not None:
        dh = dh * mask
    return dh * (z1 > 0.0)


def _shifted(z, cols, deltas, W, out=None):
    """z, or for deltas (B, r, d) the batch z + cols @ (deltas[b] @ W), shape (B, n, k), written into out if given.

    Perturbing X[rows] moves ops @ (X @ W) only through the operator columns
    at rows, cols = ops[:, rows] as a dense array.  The shift is one BLAS
    product per draw, written straight into the C-contiguous out; each
    element is the same r-term dot product as in a single product over all
    draws, and z is added after it.
    """
    if deltas is None:
        return z
    out = np.matmul(cols, deltas @ W, out=out)
    out += z
    return out


def _propagate(ops, Y, patch=None, clean=None):
    """ops @ Y for Y (n, k); for Y (B, n, k), ops @ Y[b] for every b as one sparse product over (n, B*k).

    For Y (n, k), clean may hold ops @ Y already, and patch = (R, rows)
    stands for the operator whose rows R are the CSR rows: its product is
    ops @ Y with rows R recomputed.  Each row of a sparse-dense product
    reads only its own operator row, so that is the patched operator's
    product bit for bit.
    """
    if Y.ndim == 3:
        B, n, k = Y.shape
        out = ops @ Y.transpose(1, 0, 2).reshape(n, B * k)
        return out.reshape(n, B, k).transpose(1, 0, 2)
    if patch is None:
        return ops @ Y if clean is None else clean
    out = ops @ Y if clean is None else clean.copy()
    out[patch[0]] = patch[1] @ Y
    return out


def _cross_entropy(logits, y, train_idx):
    """Mean cross entropy on train_idx and its gradient in the logits."""
    p = _softmax(logits)
    idx = np.asarray(train_idx, dtype=np.int64)
    eps = 1e-12
    loss = -np.mean(np.log(p[idx, np.asarray(y)[idx]] + eps))
    g = np.zeros_like(p)
    g[idx] = p[idx]
    g[idx, np.asarray(y)[idx]] -= 1.0
    g /= idx.size
    return float(loss), g


class _TwoLayer:
    """Weights, training loss and input gradients shared by the two backbones.

    A backbone lists its weights in weight_names (matrices W*, biases b*,
    each name ending in its layer number) and writes its layer algebra
    twice: _pass, the one forward pass, returning (z1, h, mask, logits)
    with h the hidden activations after dropout; and _backward, its
    reverse, returning (param_grads, dX) for a given logit gradient.
    _pass starts from _pre(ops, X), layer 1's products of the operator
    before any shift; a caller running several passes on one (ops, X)
    computes that once and passes it as pre, with deltas or a patch, whose
    fresh arrays layer 1 then updates in place.
    Given rows, deltas (B, len(rows), d) and cols = ops[:, rows] as a
    dense array, _pass runs on the B inputs with X[rows] += deltas[b] and
    every array it returns gains a leading batch axis; given also a
    C-contiguous (B, n, h) buffer out, it computes layer 1 in place there
    (eval mode only: z1 is then overwritten by h).  Given patch = (R,
    rows), _pass runs on ops with its rows R replaced by the CSR rows.
    forward, forward_many, forward_flips, loss_grads and input_grad derive
    from those two.

    A backbone also names its operator: self_loops (whether its adjacency
    holds the identity), _operator (the operator, or some of its rows, from
    _adjacency's output) and _flip_rows (the rows a flipped pair changes).
    build_ops, the one operator builder, and forward_flips's row patches
    both run _operator, so they agree bit for bit.
    """

    backbone: str
    weight_names: tuple

    def __init__(self, **weights):
        if set(weights) != set(self.weight_names):
            raise TypeError(f"{type(self).__name__} takes weights {self.weight_names}, got {tuple(weights)}")
        for name in self.weight_names:
            setattr(self, name, np.asarray(weights[name], dtype=np.float64))

    @classmethod
    def weight_shapes(cls, d, hidden, classes) -> dict:
        """Shape of every weight of a d -> hidden -> classes model."""
        dims = {"1": (d, hidden), "2": (hidden, classes)}
        return {name: dims[name[-1]][1:] if name.startswith("b") else dims[name[-1]] for name in cls.weight_names}

    @classmethod
    def init(cls, rng, d, hidden, classes=2):
        """Glorot matrices drawn in weight_names order; zero biases."""
        shapes = cls.weight_shapes(d, hidden, classes)
        return cls(**{name: np.zeros(s) if len(s) == 1 else _glorot(rng, *s) for name, s in shapes.items()})

    @property
    def d(self):
        return getattr(self, self.weight_names[0]).shape[0]

    @property
    def h(self):
        return self.b1.shape[0]

    @property
    def C(self):
        return self.b2.shape[0]

    def params(self):
        return {name: getattr(self, name) for name in self.weight_names}

    def replace(self, params):
        return type(self)(**params)

    def build_ops(self, g: Graph):
        """The propagation operator of g: _operator over _adjacency(g, self_loops)."""
        return self._operator(*_adjacency(g, self.self_loops))

    def forward(self, ops, X):
        """Logits (n, C) for every node under a prebuilt operator (eval mode)."""
        return self._pass(ops, X)[-1]

    def forward_many(self, ops, X, rows, deltas):
        """Logits (B, n, C) for B perturbations of X: X[rows] += deltas[b], deltas (B, len(rows), d).

        The draws run in chunks through one reused, C-contiguous layer-1
        buffer of FORWARD_MANY_CHUNK_BYTES, so memory is O(chunk n h), not
        O(B n h); layer 1's clean products and the operator columns at rows
        are computed once per call.  Each draw's arithmetic is the same as
        in one unchunked batch, so the logits are too, bit for bit; that
        holds only while the buffer stays C-contiguous (a strided h @ W2
        leaves BLAS and moves the last bits).
        """
        rows = np.asarray(rows, dtype=np.int64)
        B, n = deltas.shape[0], X.shape[0]
        chunk = max(1, FORWARD_MANY_CHUNK_BYTES // (8 * n * self.h))
        buf = np.empty((min(chunk, B), n, self.h))
        pre, cols = self._pre(ops, X), ops[:, rows].toarray()
        logits = np.empty((B, n, self.C))
        for start in range(0, B, chunk):
            part = deltas[start : start + chunk]
            logits[start : start + len(part)] = self._pass(ops, X, rows=rows, deltas=part, out=buf[: len(part)], cols=cols, pre=pre)[-1]
        return logits

    def forward_flips(self, g: Graph, X, pairs):
        """Logits (B, n, C) of the B graphs g.flip(pairs[b:b + 1]), pairs (B, 2) (eval mode).

        logits[b] equals forward(build_ops(g.flip(pairs[b:b + 1])), X) bit
        for bit.  The clean operator and layer 1's products are computed
        once; each flip rebuilds only the operator rows it changes, by the
        builder's own sparse products, and reruns _pass with those rows
        swapped in.  Dense products stay full-shape, since a row subset of
        a BLAS product need not equal those rows of the full one; memory
        per flip is O(n h).
        """
        a, deg = _adjacency(g, self.self_loops)
        ops = self._operator(a, deg)
        pre = self._pre(ops, X)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        logits = np.empty((pairs.shape[0], g.n, self.C))
        for b, (u, v) in enumerate(pairs):
            flipped, flipped_deg = _flip_adjacency(a, deg, u, v)
            R = self._flip_rows(flipped, u, v)
            logits[b] = self._pass(ops, X, pre=pre, patch=(R, self._operator(flipped, flipped_deg, R)))[-1]
        return logits

    def loss_grads(self, ops, X, y, train_idx, dropout=0.0, rng=None):
        """Mean cross entropy on train_idx and its parameter/input gradients."""
        z1, h, mask, logits = self._pass(ops, X, dropout, rng)
        loss, dlogits = _cross_entropy(logits, y, train_idx)
        grads, dX = self._backward(ops, X, z1, h, mask, dlogits)
        return loss, grads, dX

    def input_grad(self, ops, X, dlogits):
        """Backpropagate an arbitrary logit gradient to the inputs (eval mode)."""
        z1, h, mask, _ = self._pass(ops, X)
        return self._backward(ops, X, z1, h, mask, dlogits)[1]


class GcnModel(_TwoLayer):
    """logits = A_hat relu(A_hat X W1 + b1) W2 + b2, A_hat = D^{-1/2} (A + I) D^{-1/2}

    D counts the self loop, so an isolated node's operator row is its
    identity row.
    """

    backbone = "gcn"
    weight_names = ("W1", "b1", "W2", "b2")
    self_loops = True
    _operator = staticmethod(_normalized_rows)
    # bound in the GCN's own namespace, where perfbench's per-layer tracer
    # patches them, so its wrappers leave SAGE alone
    build_ops = _TwoLayer.build_ops
    forward = _TwoLayer.forward
    forward_many = _TwoLayer.forward_many
    loss_grads = _TwoLayer.loss_grads

    @staticmethod
    def _flip_rows(a, u, v):
        """u and v, whose degrees move, and their neighbours in the flipped a, whose columns u, v do; self loops put u, v in their own rows."""
        return np.union1d(a.indices[a.indptr[u] : a.indptr[u + 1]], a.indices[a.indptr[v] : a.indptr[v + 1]])

    def _pre(self, ops, X, patch=None, pre=None):
        """(X W1, A_hat X W1); given pre, patch recomputes only its rows."""
        XW, AXW = pre or (X @ self.W1, None)
        return XW, _propagate(ops, XW, patch, AXW)

    def _pass(self, ops, X, dropout=0.0, rng=None, rows=None, deltas=None, out=None, cols=None, pre=None, patch=None):
        z1 = _shifted(self._pre(ops, X, patch, pre)[1], cols, deltas, self.W1, out)
        z1 += self.b1
        h, mask = _relu_dropout(z1, dropout, rng, out)
        return z1, h, mask, _propagate(ops, h @ self.W2, patch) + self.b2

    def _backward(self, ops, X, z1, h, mask, dlogits):
        ag2 = ops @ dlogits  # A_hat is symmetric, so A_hat^T g = A_hat g
        grads = {"W2": h.T @ ag2, "b2": dlogits.sum(axis=0)}
        dz1 = _relu_dropout_grad(ag2 @ self.W2.T, z1, mask)
        adz1 = ops @ dz1
        grads["W1"] = X.T @ adz1
        grads["b1"] = dz1.sum(axis=0)
        return grads, adz1 @ self.W1.T


class SageModel(_TwoLayer):
    """h = relu(X Ws1 + (M X) Wn1 + b1); logits = h Ws2 + M (h Wn2) + b2, M = D^{-1} A

    M has no self loops; an isolated node's row stays zero.
    """

    backbone = "sage"
    weight_names = ("Ws1", "Wn1", "b1", "Ws2", "Wn2", "b2")
    self_loops = False
    _operator = staticmethod(_mean_rows)

    @staticmethod
    def _flip_rows(a, u, v):
        """u and v alone: a row of M reads only its own degree and entries."""
        return np.array([u, v])

    def _pre(self, ops, X, patch=None, pre=None):
        """(X Ws1, M X, X Ws1 + (M X) Wn1 + b1); given pre, patch recomputes M X only in its rows."""
        if pre and patch is None:
            return pre
        XWs, MX = pre[:2] if pre else (X @ self.Ws1, None)
        MX = _propagate(ops, X, patch, MX)
        return XWs, MX, XWs + MX @ self.Wn1 + self.b1

    def _pass(self, ops, X, dropout=0.0, rng=None, rows=None, deltas=None, out=None, cols=None, pre=None, patch=None):
        z1 = _shifted(self._pre(ops, X, patch, pre)[2], cols, deltas, self.Wn1, out)
        if deltas is not None:
            z1[:, rows] += deltas @ self.Ws1
        h, mask = _relu_dropout(z1, dropout, rng, out)
        return z1, h, mask, h @ self.Ws2 + _propagate(ops, h @ self.Wn2, patch) + self.b2

    def _backward(self, ops, X, z1, h, mask, dlogits):
        grads = {"Ws2": h.T @ dlogits, "Wn2": (ops @ h).T @ dlogits, "b2": dlogits.sum(axis=0)}
        dz1 = _relu_dropout_grad(dlogits @ self.Ws2.T + (ops.T @ dlogits) @ self.Wn2.T, z1, mask)
        grads["Ws1"] = X.T @ dz1
        grads["Wn1"] = (ops @ X).T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads, dz1 @ self.Ws1.T + (ops.T @ dz1) @ self.Wn1.T


BACKBONES = {cls.backbone: cls for cls in (GcnModel, SageModel)}


def predict_classes(model, g: Graph, X) -> np.ndarray:
    """Hard class per node; ties resolve to the lowest class index."""
    logits = model.forward(model.build_ops(g), X)
    return logits.argmax(axis=1)


def train(g: Graph, X, labels, split, cfg: TrainConfig, backbone: str = "gcn", augment: bool = False):
    """Full-batch gradient descent; returns the best-validation-accuracy weights.

    With augment=True, each epoch perturbs the graph by flipping every
    eligible pair with probability train_noise_flip_prob and adds Gaussian
    noise of scale train_noise_std to the vulnerable attribute rows, which
    nudges the model toward stability under the smoothing noise.
    Validation accuracy is always measured on clean data; ties keep the
    earlier weights.  epochs = 0 returns the initial weights.
    """
    rng = substream(cfg.seed, DOMAIN_TRAIN, 0)
    model = BACKBONES[backbone].init(rng, d=X.shape[1], hidden=cfg.hidden, classes=2)
    y = labels.y
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    clean_ops = model.build_ops(g)
    vul = np.asarray(split.vulnerable, dtype=np.int64)
    pairs = eligible_pairs(g.n, split.vulnerable) if (augment and vul.size) else None

    def val_accuracy(m):
        logits = m.forward(clean_ops, X)
        return float((logits[val_idx].argmax(axis=1) == y[val_idx]).mean())

    best = {k: v.copy() for k, v in model.params().items()}
    best_acc = val_accuracy(model) if val_idx.size else -1.0
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}
    for epoch in range(cfg.epochs):
        ops, Xe = clean_ops, X
        if pairs is not None:
            flip = rng.random(pairs.shape[0]) < cfg.train_noise_flip_prob
            if flip.any():
                ops = model.build_ops(g.flip(pairs[flip]))
            Xe = np.array(X, copy=True)
            Xe[vul] += cfg.train_noise_std * rng.standard_normal((vul.size, X.shape[1]))
        loss, grads, _ = model.loss_grads(ops, Xe, y, train_idx, dropout=cfg.dropout, rng=rng)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        params = model.params()
        new = {}
        for name, value in params.items():
            step = grads[name]
            if name.startswith("W"):
                step = step + cfg.weight_decay * value
            velocity[name] = MOMENTUM * velocity[name] - cfg.lr * step
            new[name] = value + velocity[name]
        model = model.replace(new)
        if val_idx.size:
            acc = val_accuracy(model)
            if acc > best_acc:
                best_acc = acc
                best = {k: v.copy() for k, v in model.params().items()}
    if val_idx.size:
        model = model.replace(best)
    logger.info("trained %s for %d epochs, best validation accuracy %.4f", backbone, cfg.epochs, best_acc)
    return model


def save_model(model, path: str) -> None:
    """Write weights and metadata to a single binary container."""
    meta = {
        "backbone": model.backbone,
        "d": int(model.d),
        "hidden": int(model.h),
        "classes": int(model.C),
        "layers": 2,
        "activation": "relu",
    }
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **model.params())


def load_model(path: str):
    """Read a save_model container.

    Raises DataError naming the file when it is unreadable, names an unknown
    backbone, or holds weights whose names or shapes do not fit its meta.
    """
    try:
        with np.load(path, allow_pickle=False) as arch:
            meta = dict(json.loads(str(arch["meta"])))
            weights = {k: arch[k] for k in arch.files if k != "meta"}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a model file written by save_model ({exc})") from exc
    cls = BACKBONES.get(meta.get("backbone"))
    if cls is None:
        raise DataError(f"{path}: unknown backbone {meta.get('backbone')!r}")
    want = cls.weight_shapes(meta.get("d"), meta.get("hidden"), meta.get("classes"))
    got = {k: v.shape for k, v in weights.items()}
    if got != want:
        raise DataError(f"{path}: weights {got} do not match its {cls.backbone} meta, which needs {want}")
    return cls(**weights)
