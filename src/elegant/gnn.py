"""Numpy node classifiers: two-layer GCN and GraphSAGE-mean.

Both models are trained full batch with plain gradient descent and manual
backpropagation; analytic input gradients are exposed for the attack code
and checked against finite differences in the tests.  The certification
pipeline needs tens of thousands of forward passes per run, so each model
also implements a batched forward over many attribute perturbations that
touch only a few rows.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import Graph
from .smoothing import DOMAIN_TRAIN, eligible_pairs, substream

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-2
    epochs: int = 200
    weight_decay: float = 5e-4
    dropout: float = 0.6
    hidden: int = 64
    momentum: float = 0.9
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
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


def normalize_adjacency(g: Graph) -> sparse.csr_matrix:
    """Symmetric degree-normalized adjacency with self loops.

    A_hat = D^{-1/2} (A + I) D^{-1/2}, the standard GCN propagation
    operator; D counts the self loop.
    """
    e = g.edge_array()
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(g.n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(g.n)])
    vals = np.ones(rows.shape[0], dtype=np.float64)
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    dinv = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    d = sparse.diags(dinv)
    return (d @ a @ d).tocsr()


def mean_aggregator(g: Graph) -> sparse.csr_matrix:
    """Row-normalized adjacency without self loops; isolated rows stay zero."""
    e = g.edge_array()
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    vals = np.ones(rows.shape[0], dtype=np.float64)
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return (sparse.diags(inv) @ a).tocsr()


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


class GcnModel:
    """logits = A_hat relu(A_hat X W1 + b1) W2 + b2"""

    backbone = "gcn"

    def __init__(self, W1, b1, W2, b2):
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)

    @property
    def d(self):
        return self.W1.shape[0]

    @property
    def h(self):
        return self.W1.shape[1]

    @property
    def C(self):
        return self.W2.shape[1]

    @classmethod
    def init(cls, rng, d, hidden, classes=2):
        return cls(
            W1=_glorot(rng, d, hidden),
            b1=np.zeros(hidden),
            W2=_glorot(rng, hidden, classes),
            b2=np.zeros(classes),
        )

    def params(self):
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def replace(self, params):
        return GcnModel(**params)

    @staticmethod
    def build_ops(g: Graph):
        return normalize_adjacency(g)

    def forward(self, ops, X):
        z1 = ops @ (X @ self.W1) + self.b1
        h = np.maximum(z1, 0.0)
        return ops @ (h @ self.W2) + self.b2

    def forward_many(self, ops, X, rows, deltas):
        """Forward over a batch of row perturbations of X.

        deltas has shape (B, len(rows), d); returns logits (B, n, C).  Only
        the perturbed columns of A_hat are revisited, so the base pass is
        shared across the batch.
        """
        rows = np.asarray(rows, dtype=np.int64)
        base1 = ops @ (X @ self.W1)  # (n, h)
        cols = np.asarray(ops[:, rows].todense())  # (n, r)
        shift = np.einsum("nr,brh->bnh", cols, deltas @ self.W1, optimize=True)
        h = np.maximum(base1[None, :, :] + shift + self.b1, 0.0)
        out = h @ self.W2  # (B, n, C)
        for b in range(out.shape[0]):  # sparse matmul per batch entry, C is small
            out[b] = ops @ out[b]
        return out + self.b2

    def _forward_cached(self, ops, X, dropout=0.0, rng=None):
        z1 = ops @ (X @ self.W1) + self.b1
        h = np.maximum(z1, 0.0)
        mask = None
        if dropout > 0.0:
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
            h = h * mask
        z2 = ops @ (h @ self.W2) + self.b2
        return z1, h, mask, z2

    def loss_grads(self, ops, X, y, train_idx, dropout=0.0, rng=None):
        """Mean cross entropy on train_idx and its parameter/input gradients."""
        z1, h, mask, z2 = self._forward_cached(ops, X, dropout, rng)
        p = _softmax(z2)
        idx = np.asarray(train_idx, dtype=np.int64)
        eps = 1e-12
        loss = -np.mean(np.log(p[idx, np.asarray(y)[idx]] + eps))
        g2 = np.zeros_like(p)
        g2[idx] = p[idx]
        g2[idx, np.asarray(y)[idx]] -= 1.0
        g2 /= idx.size
        ag2 = ops @ g2  # A_hat is symmetric, so A_hat^T g = A_hat g
        grads = {
            "W2": h.T @ ag2,
            "b2": g2.sum(axis=0),
        }
        dh = ag2 @ self.W2.T
        if mask is not None:
            dh = dh * mask
        dz1 = dh * (z1 > 0.0)
        adz1 = ops @ dz1
        grads["W1"] = X.T @ adz1
        grads["b1"] = dz1.sum(axis=0)
        dX = adz1 @ self.W1.T
        return float(loss), grads, dX

    def input_grad(self, ops, X, dlogits):
        """Backpropagate an arbitrary logit gradient to the inputs (eval mode)."""
        z1 = ops @ (X @ self.W1) + self.b1
        dh = (ops @ dlogits) @ self.W2.T
        dz1 = dh * (z1 > 0.0)
        return (ops @ dz1) @ self.W1.T


class SageModel:
    """h = relu(X Ws1 + (M X) Wn1 + b1); logits = h Ws2 + (M h) Wn2 + b2"""

    backbone = "sage"

    def __init__(self, Ws1, Wn1, b1, Ws2, Wn2, b2):
        self.Ws1 = np.asarray(Ws1, dtype=np.float64)
        self.Wn1 = np.asarray(Wn1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.Ws2 = np.asarray(Ws2, dtype=np.float64)
        self.Wn2 = np.asarray(Wn2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)

    @property
    def d(self):
        return self.Ws1.shape[0]

    @property
    def h(self):
        return self.Ws1.shape[1]

    @property
    def C(self):
        return self.Ws2.shape[1]

    @classmethod
    def init(cls, rng, d, hidden, classes=2):
        return cls(
            Ws1=_glorot(rng, d, hidden),
            Wn1=_glorot(rng, d, hidden),
            b1=np.zeros(hidden),
            Ws2=_glorot(rng, hidden, classes),
            Wn2=_glorot(rng, hidden, classes),
            b2=np.zeros(classes),
        )

    def params(self):
        return {"Ws1": self.Ws1, "Wn1": self.Wn1, "b1": self.b1, "Ws2": self.Ws2, "Wn2": self.Wn2, "b2": self.b2}

    def replace(self, params):
        return SageModel(**params)

    @staticmethod
    def build_ops(g: Graph):
        return mean_aggregator(g)

    def forward(self, ops, X):
        z1 = X @ self.Ws1 + (ops @ X) @ self.Wn1 + self.b1
        h = np.maximum(z1, 0.0)
        return h @ self.Ws2 + (ops @ h) @ self.Wn2 + self.b2

    def forward_many(self, ops, X, rows, deltas):
        rows = np.asarray(rows, dtype=np.int64)
        base = X @ self.Ws1 + (ops @ X) @ self.Wn1 + self.b1  # (n, h)
        cols = np.asarray(ops[:, rows].todense())
        z1 = np.repeat(base[None, :, :], deltas.shape[0], axis=0)
        z1 += np.einsum("nr,brh->bnh", cols, deltas @ self.Wn1, optimize=True)
        z1[:, rows, :] += deltas @ self.Ws1
        h = np.maximum(z1, 0.0)
        out = h @ self.Wn2
        for b in range(out.shape[0]):
            out[b] = ops @ out[b]
        return h @ self.Ws2 + out + self.b2

    def _forward_cached(self, ops, X, dropout=0.0, rng=None):
        z1 = X @ self.Ws1 + (ops @ X) @ self.Wn1 + self.b1
        h = np.maximum(z1, 0.0)
        mask = None
        if dropout > 0.0:
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
            h = h * mask
        z2 = h @ self.Ws2 + (ops @ h) @ self.Wn2 + self.b2
        return z1, h, mask, z2

    def loss_grads(self, ops, X, y, train_idx, dropout=0.0, rng=None):
        z1, h, mask, z2 = self._forward_cached(ops, X, dropout, rng)
        p = _softmax(z2)
        idx = np.asarray(train_idx, dtype=np.int64)
        eps = 1e-12
        loss = -np.mean(np.log(p[idx, np.asarray(y)[idx]] + eps))
        g2 = np.zeros_like(p)
        g2[idx] = p[idx]
        g2[idx, np.asarray(y)[idx]] -= 1.0
        g2 /= idx.size
        mtg2 = ops.T @ g2
        grads = {
            "Ws2": h.T @ g2,
            "Wn2": (ops @ h).T @ g2,
            "b2": g2.sum(axis=0),
        }
        dh = g2 @ self.Ws2.T + mtg2 @ self.Wn2.T
        if mask is not None:
            dh = dh * mask
        dz1 = dh * (z1 > 0.0)
        grads["Ws1"] = X.T @ dz1
        grads["Wn1"] = (ops @ X).T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        dX = dz1 @ self.Ws1.T + (ops.T @ dz1) @ self.Wn1.T
        return float(loss), grads, dX

    def input_grad(self, ops, X, dlogits):
        z1 = X @ self.Ws1 + (ops @ X) @ self.Wn1 + self.b1
        dh = dlogits @ self.Ws2.T + (ops.T @ dlogits) @ self.Wn2.T
        dz1 = dh * (z1 > 0.0)
        return dz1 @ self.Ws1.T + (ops.T @ dz1) @ self.Wn1.T


BACKBONES = {"gcn": GcnModel, "sage": SageModel}


def forward(model, a_hat, X) -> np.ndarray:
    """Logits for every node under a prebuilt propagation operator."""
    return model.forward(a_hat, X)


def gradients(model, a_hat, X, y, train_set):
    """Analytic gradients of the mean training cross entropy.

    Returns (param_grads, input_grad); evaluation mode, no dropout.  The
    finite-difference suite drives this function directly.
    """
    _, grads, dX = model.loss_grads(a_hat, X, y, np.asarray(train_set, dtype=np.int64))
    return grads, dX


def predict_classes(model, g: Graph, X) -> np.ndarray:
    """Hard class per node; ties resolve to the lowest class index."""
    logits = model.forward(model.build_ops(g), X)
    return logits.argmax(axis=1)


def predict(model, g: Graph, X) -> np.ndarray:
    """One-hot prediction matrix of shape (n, C)."""
    cls = predict_classes(model, g, X)
    out = np.zeros((cls.shape[0], model.C), dtype=np.int64)
    out[np.arange(cls.shape[0]), cls] = 1
    return out


def train(g: Graph, X, labels, split, cfg: TrainConfig, backbone: str = "gcn", augment: bool = False):
    """Full-batch gradient descent; returns the best-validation-accuracy weights.

    With augment=True, each epoch perturbs the graph by flipping every
    eligible pair with probability train_noise_flip_prob and adds Gaussian
    noise of scale train_noise_std to the vulnerable attribute rows, which
    nudges the model toward stability under the smoothing noise.
    Validation accuracy is always measured on clean data; ties keep the
    earlier weights.  epochs = 0 returns the initial weights.
    """
    cls = BACKBONES[backbone]
    rng = substream(cfg.seed, DOMAIN_TRAIN, 0)
    model = cls.init(rng, d=X.shape[1], hidden=cfg.hidden, classes=2)
    y = labels.y
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    clean_ops = cls.build_ops(g)
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
                ops = cls.build_ops(g.flip(pairs[flip]))
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
            velocity[name] = cfg.momentum * velocity[name] - cfg.lr * step
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
    with np.load(path, allow_pickle=False) as arch:
        meta = json.loads(str(arch["meta"]))
        cls = BACKBONES[meta["backbone"]]
        weights = {k: arch[k] for k in arch.files if k != "meta"}
    return cls(**weights)
