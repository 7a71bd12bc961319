"""Numpy node classifiers: two-layer GCN and GraphSAGE-mean.

Backbone contract.  Certification (pipeline.PredictionCache and
certify_and_predict) needs only `backbone` (a name), `build_ops(g)` (the
propagation operator of a graph), `forward(ops, X)` (logits, shape (n, C))
and `forward_many(ops, X, rows, deltas, out=None)` (logits, shape
(B, n, C), for B perturbations of the given attribute rows).  The attacks
add `input_grad(ops, X, dlogits)`, the gradient of sum(dlogits * logits)
in X, and `forward_flips(g, X, pairs, out=None)` (logits, shape (B, n, C),
of the B graphs g with the single pair pairs[b] flipped).  Given out, a
(B, n) uint8 array, both batched calls write the hard classes,
logits.argmax(axis=2), into it instead and return it; the pipeline and the
greedy attack always pass it, since they read only classes.  `train`
builds the two reference backbones below through `init`, `loss_grads`,
`params` and `replace`.

Both reference backbones share one base, _TwoLayer: each names its
operator by its entries (`self_loops`, `_values` and `descending`, which
the one array builder `_operator` turns into CSR from integer index
arrays, for `build_ops` and single-flip scoring alike) and writes its
layer algebra once, as a forward pass (_pass, optionally batched over
perturbations of a few attribute rows) built from per-layer pieces, and
its reverse (_backward).  Prediction, the
certification pipeline's batched inference, the greedy attack's
single-flip scoring, full-batch training with manual backpropagation and
input gradients all derive from those.  Batched inference runs its draws
in chunks with layer 1 computed in place in one reused buffer, so its
memory is O(chunk n h), not O(B n h).  Its layer-1 bias add (GCN) and
ReLU read two C-contiguous (n, h) tiles built once per call, b1 on every
row and zeros: against a broadcast (h,) row or a scalar, numpy's loops
miss their contiguous fast path (at n=1000, h=64 on a 2-core VM, per
24-draw chunk, the tiles cut the ReLU's time to about a third and the
bias add's to about half, and a 150-draw GCN mask's by about 30%; the
absolute times drift with the VM: the mask took 9.2 ms when the tiles
went in and 32 ms on a later day, on the plain and on a structure-masked
operator alike).  The tiles hold 16 n h bytes, 1 MB at n=1000, and give
the same bits.  Asked for classes, a chunk adds each class's b2 on its own strided
(chunk, n) view of the layer-2 product and picks the first maximum
straight into the caller's uint8 rows, so neither the (B, n, C) logits
nor their argmax pass exist.  Single-flip scoring works in groups
of flips: one array build gives the operator rows each flip changes,
gathered from the clean graph's CSR arrays, and the elementwise steps
rerun only on those rows, while every dense product stays full-shape, so
its logits equal a full rebuild bit for bit; each group's logits or
classes are then written in one pass, as a chunk's are.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import DataError, Graph, pair_array
from .smoothing import DOMAIN_TRAIN, eligible_pairs, substream, vulnerable_ids

logger = logging.getLogger(__name__)

# Size of forward_many's layer-1 buffer, which sets its chunk of draws.  At
# n=1000, h=64 (24 draws) on a 2-core VM, chunks of 4 / 8 / 12 / 48 draws
# made a 150-draw GCN mask 1.15 / 1.04 / 1.01 / 1.29 times as slow and a
# single 150-draw chunk 1.8 times (medians of three rounds of 15; 9.6 ms at
# 24 draws on the day, and absolute times drift with the VM).
FORWARD_MANY_CHUNK_BYTES = 12 * 2**20
# Working memory of one forward_flips group, which sets how many candidate
# flips share one stacked operator build; _flip_charges prices each
# candidate from n and from the adjacency entries its flipped rows hold.
FORWARD_FLIPS_GROUP_BYTES = 4 * 2**20
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
    """CSR index arrays (indptr, indices) of g's symmetric 0/1 adjacency, plus the identity with self_loops, and its degrees.

    Each row's columns are ascending; the degrees are the row lengths, as
    float64.
    """
    n, e = g.n, g.edge_array()
    loops = np.arange(n if self_loops else 0)
    keys = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0], loops * (n + 1)]))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return indptr, keys % n, np.diff(indptr).astype(np.float64)


def _row_entries(indptr, rows):
    """(i, k) over the entries of the CSR rows `rows`, in order: i the position of each entry's row in rows, k its index in the CSR arrays."""
    lengths = indptr[rows + 1] - indptr[rows]
    i = np.repeat(np.arange(rows.size), lengths)
    return i, np.arange(i.size) + (indptr[rows] - np.cumsum(lengths) + lengths)[i]


def _flip_groups(charges):
    """(start, stop) of consecutive candidates whose charges sum to at most FORWARD_FLIPS_GROUP_BYTES.

    A candidate charged more than that forms a group alone.
    """
    start, total = 0, 0.0
    for i, charge in enumerate(charges):
        if i > start and total + charge > FORWARD_FLIPS_GROUP_BYTES:
            yield start, i
            start, total = i, 0.0
        total += charge
    if charges.size:
        yield start, charges.size


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


def _relu_dropout(z1, dropout, rng, out=None, zero=0.0):
    """Hidden activations and the inverted-dropout mask (None in eval mode); the ReLU writes into out if given.

    zero is the ReLU's second operand: the scalar 0.0, or forward_many's
    zero tile, which gives the same bits.  np.maximum returns its second
    operand on a tie, so z1 must stay first: a -0.0 in z1 then becomes
    +0.0 either way.
    """
    h = np.maximum(z1, zero, out=out)
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


def _propagate(ops, Y):
    """ops @ Y for Y (n, k); for Y (B, n, k), ops @ Y[b] for every b as one sparse product over (n, B*k).

    Each element of a sparse-dense product sums its operator row's terms in
    the row's stored order, whatever the other columns hold, so every
    ops @ Y[b] equals its own product bit for bit.
    """
    if Y.ndim == 3:
        B, n, k = Y.shape
        out = ops @ Y.transpose(1, 0, 2).reshape(n, B * k)
        return out.reshape(n, B, k).transpose(1, 0, 2)
    return ops @ Y


def _first_max(logits, out):
    """Index of the first maximum across the same-shape arrays logits (one per class), written into the uint8 out.

    Picks as ndarray.argmax over a stacked class axis does: a tie, -0.0
    against +0.0 included, goes to the lowest class, and a NaN wins at its
    first position.  Two classes take one comparison, l1 > l0, which is
    argmax except where l1 is NaN and l0 is not; a NaN anywhere in l1
    makes its max NaN and sends the call to the general scan.
    """
    if len(logits) == 2 and not np.isnan(logits[1].max()):
        np.greater(logits[1], logits[0], out=out.view(bool))
        return out
    best = logits[0]
    out[...] = 0
    for c, z in enumerate(logits[1:], 1):
        take = (z > best) | (np.isnan(z) & ~np.isnan(best))
        best = np.where(take, z, best)
        out[take] = c
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
    once, in pieces:
    - _pre(ops, X), layer 1's products before any shift; its first two
      entries are S, the operand layer 1 propagates, and ops @ S;
    - _hidden_rows(pre, Q, rows), layer 1's pre-activation in rows when
      ops @ S is Q;
    - _head(h), layer 2's products of the hidden activations h as (own,
      Y), Y being what layer 2 propagates (own is None if nothing else is
      left), and _logits(own, P, c), the logits when ops @ Y is P, of
      every class or of class c alone, by the same elementwise steps;
    - _pass, the forward pass, returning (z1, h, mask, own, P) with h the
      hidden activations after dropout, so the logits are _logits(own, P),
      and _backward, its reverse, returning (param_grads, dX) for a given
      logit gradient.
    Given rows, deltas (B, len(rows), d), cols = ops[:, rows] as a dense
    array and pre, _pass runs on the B inputs with X[rows] += deltas[b] and
    every array it returns gains a leading batch axis; given also a
    C-contiguous (B, n, h) buffer out, it computes layer 1 in place there
    (eval mode only: z1 is then overwritten by h); given tiles, the pair
    _tiles(n), it adds b1 and runs the ReLU against those.  forward,
    forward_many, loss_grads and input_grad derive from _pass and
    _backward; forward_flips runs the pieces itself.

    A backbone also names its operator by its entries, from _adjacency's
    index arrays: self_loops (whether its adjacency holds the identity),
    _values (each entry's value from the degrees of its row and column
    nodes), descending (whether a row stores its columns in descending
    order) and _held_rows (the rows a flipped pair changes or reads).
    _operator, the one operator builder, turns index arrays and degrees
    into CSR; build_ops runs it on a whole graph and _flip_patch on the
    held rows of a group of flipped graphs, so the two agree bit for bit.
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

    def _operator(self, indptr, indices, deg, rows=None):
        """Operator rows as CSR from CSR index arrays: row i has node rows[i] (default i) and the ascending columns indices[indptr[i]:indptr[i + 1]].

        deg holds the degree of every node of a row or column, one column
        per node.  Each entry is _values(deg, r, c) of its row node r and
        column c; a descending backbone stores each row reversed.  These
        are the values and order of the scipy products D^{-1/2} A D^{-1/2}
        and D^{-1} A, whose entries are single terms, (d_r * 1.0) * d_c,
        none dropped, as a zero scale only meets an empty row.  SAGE's
        trained weights depend on its product's reversed rows.
        """
        lengths = np.diff(indptr)
        if self.descending:
            indices = indices[np.repeat(indptr[:-1] + indptr[1:] - 1, lengths) - np.arange(indices.size)]
        r = np.repeat(np.arange(lengths.size) if rows is None else rows, lengths)
        return sparse.csr_matrix((self._values(deg, r, indices), indices, indptr), shape=(lengths.size, deg.size))

    def _flip_patch(self, indptr, indices, deg, u, v):
        """(R, patch): the operator rows that toggling the pair (u[b], v[b]) changes, for the B graphs b, from _adjacency's arrays of the unflipped graph.

        R, ascending, holds b n + r for every row r of graph b in
        _held_rows of u[b] and v[b]; patch holds those rows as CSR over the
        B graphs' stacked columns b n + j, each as build_ops of graph b
        gives it.  The held rows' entries are gathered from indices, each
        pair toggled in its two rows on linear keys, and the degrees of
        u[b], v[b] moved by one; one _operator call builds the rest.
        """
        n, B = deg.size, u.size
        base = np.arange(B) * n
        i, held = self._held_rows(indptr, indices, np.concatenate([u, v]))
        held_at = np.zeros(B * n, dtype=bool)
        held_at[np.tile(base, 2)[i] + held] = True
        R = np.flatnonzero(held_at)
        at_u, at_v = np.searchsorted(R, base + u), np.searchsorted(R, base + v)
        pos, k = _row_entries(indptr, R % n)
        keys = pos * n + indices[k]  # patch row * n + column, ascending
        toggles = np.column_stack([at_u * n + v, at_v * n + u]).ravel()  # ascending, as u < v
        at = np.searchsorted(keys, toggles)
        present = at < keys.size
        present[present] = keys[at[present]] == toggles[present]
        drop, add = at[present], ~present
        keys = np.insert(np.delete(keys, drop), at[add] - np.searchsorted(drop, at[add]), toggles[add])
        pos, cols = np.divmod(keys, n)
        sign = np.where(present[::2], -1, 1)
        stacked_deg = np.tile(deg, B)
        stacked_deg[np.concatenate([base + u, base + v])] += np.tile(sign, 2)
        patch_ptr = np.concatenate([[0], np.cumsum(np.bincount(pos, minlength=R.size))])
        return R, self._operator(patch_ptr, cols + (R // n * n)[pos], stacked_deg, R)

    def _flip_charges(self, indptr, indices, deg, pairs):
        """Bytes of forward_flips working memory charged to each pair (u, v) of pairs.

        A pair pays 8 (5 + 3 C) bytes per node, its share of the stacked
        degrees and of the layer-2 products, and 80 bytes per adjacency
        entry of its _flip_patch rows, its share of the gathered keys and
        of the patch.  Its rows are _held_rows of u and v, which hold at
        most reach[u] + reach[v] + 2 entries, reach[x] being the degrees
        summed over x's held rows: the degrees of x's neighbours for GCN,
        x's own degree for SAGE.  tracemalloc measured about 50-75 kB per
        pair plus at most 76 bytes per entry (n = 1000, 2n to 20n random
        edges, with and without a node joined to all others, both
        backbones, logits or classes).
        """
        n = deg.size
        i, held = self._held_rows(indptr, indices, np.arange(n))
        reach = np.bincount(i, weights=deg[held], minlength=n)
        return 8 * (n * (5 + 3 * self.C) + 10 * (reach[pairs[:, 0]] + reach[pairs[:, 1]] + 2))

    def forward(self, ops, X):
        """Logits (n, C) for every node under a prebuilt operator (eval mode)."""
        return self._logits(*self._pass(ops, X)[3:])

    def forward_many(self, ops, X, rows, deltas, out=None):
        """Logits (B, n, C) for B perturbations of X: X[rows] += deltas[b], deltas (B, len(rows), d).

        Given out, a (B, n) uint8 array, it writes each draw's hard classes
        there instead, logits.argmax(axis=2) bit for bit, and returns out:
        each chunk computes every class's (chunk, n) logits on their own and
        _first_max picks among them, so no (B, n, C) logits array is built.

        The draws run in chunks through one reused, C-contiguous layer-1
        buffer of FORWARD_MANY_CHUNK_BYTES, so memory is O(chunk n h), not
        O(B n h); layer 1's clean products and the operator columns at rows
        are computed once per call.  Each draw's arithmetic is the same as
        in one unchunked batch, so the logits are too, bit for bit; that
        holds only while the buffer stays C-contiguous (a strided h @ W2
        leaves BLAS and moves the last bits).

        The bias add and ReLU take same-shape operands, _tiles(n), built
        once per call next to the clean products: against a broadcast (h,)
        row or a scalar, numpy's inner loop is h elements long or misses
        its contiguous fast path, and the two steps took about half of a
        mask's time (6.3 of 13 ms at n=1000, h=64).  Elementwise, the tiles
        give the scalar forms' bits, a -0.0 into the ReLU included, since z1
        stays its first operand.  They cost 16 n h bytes per call, the
        order of the clean products already held.
        """
        rows = np.asarray(rows, dtype=np.int64)
        B, n = deltas.shape[0], X.shape[0]
        chunk = max(1, FORWARD_MANY_CHUNK_BYTES // (8 * n * self.h))
        buf = np.empty((min(chunk, B), n, self.h))
        pre, cols = self._pre(ops, X), ops[:, rows].toarray()
        tiles = self._tiles(n)
        logits = np.empty((B, n, self.C)) if out is None else None
        for start in range(0, B, chunk):
            part = deltas[start : start + chunk]
            own, P = self._pass(ops, X, rows=rows, deltas=part, out=buf[: len(part)], cols=cols, pre=pre, tiles=tiles)[3:]
            self._emit(own, P, logits, out, slice(start, start + len(part)))
        return logits if out is None else out

    def _emit(self, own, P, logits, out, at):
        """Write the logits _logits(own, P) into logits[at], or, when logits is None, their hard classes into out[at]."""
        if logits is not None:
            logits[at] = self._logits(own, P)
        else:
            _first_max([self._logits(own, P, c) for c in range(self.C)], out[at])

    def _tiles(self, n):
        """forward_many's layer-1 operands (b1 on every row, zeros), each C-contiguous (n, h)."""
        return np.tile(self.b1, (n, 1)), np.zeros((n, self.h))

    def forward_flips(self, g: Graph, X, pairs, out=None):
        """Logits (B, n, C) of the B graphs g.flip(pairs[b:b + 1]), pairs (B, 2) (eval mode).

        logits[b] equals forward(build_ops(g.flip(pairs[b:b + 1])), X) bit
        for bit; a pair outside 0 <= u < v < n raises DataError, as
        Graph.flip does.  Given out, a (B, n) uint8 array, it writes each
        flip's hard classes there instead, as forward_many does, and
        returns out.  The clean pass runs once, then the flips run in
        groups whose _flip_charges sum to at most FORWARD_FLIPS_GROUP_BYTES
        (a candidate charged more forms a group alone).  Per group, one
        _flip_patch call gives the operator rows each flip changes, through
        build_ops's builder, as one CSR over the group's stacked columns;
        its twin over the graph's columns gives their layer-1 rows in one
        sparse product.  Each flip swaps its rows into reused clean work
        arrays, reruns the elementwise steps (bias, ReLU) on those rows
        only, runs layer 2's dense products full-shape into the group's
        (B, n, C) arrays and restores the rows; one sparse product over the
        group's columns and one over its changed rows propagate layer 2, and one _emit call writes the whole group's
        logits or classes, as forward_many does per chunk.  A row of a BLAS
        product depends on its position, so only full-shape dense products
        match the clean pass in the rows a flip leaves alone.
        """
        pairs = pair_array(pairs, g.n)
        n = g.n
        adjacency = _adjacency(g, self.self_loops)
        ops = self._operator(*adjacency)
        pre = self._pre(ops, X)
        S, clean = pre[0], pre[1]
        h_clean = np.maximum(self._hidden_rows(pre, clean, slice(None)), 0.0)
        Q, h = clean.copy(), h_clean.copy()  # work arrays, clean again after every candidate
        logits = np.empty((pairs.shape[0], n, self.C)) if out is None else None
        for start, stop in _flip_groups(self._flip_charges(*adjacency, pairs)):
            u, v = pairs[start:stop].T
            base = np.arange(u.size) * n
            R, patch = self._flip_patch(*adjacency, u, v)  # rows R of each flipped operator; columns b*n + j
            SR = sparse.csr_matrix((patch.data, patch.indices % n, patch.indptr), shape=(R.size, n)) @ S
            starts, ends = np.searchsorted(R, base), np.searchsorted(R, base + n)
            own, Y = None, np.empty((u.size, n, self.C))  # own stays None where _head has no own term (GCN)
            for b in range(u.size):
                at = slice(starts[b], ends[b])
                rows = R[at] - base[b]
                Q[rows] = SR[at]
                h[rows] = np.maximum(self._hidden_rows(pre, Q, rows), 0.0)
                own_b, Y[b] = self._head(h)
                if own_b is not None:
                    own = np.empty_like(Y) if own is None else own
                    own[b] = own_b
                Q[rows], h[rows] = clean[rows], h_clean[rows]
            P = _propagate(ops, Y)
            P[R // n, R % n] = patch @ Y.reshape(-1, self.C)
            self._emit(own, P, logits, out, slice(start, stop))
        return logits if out is None else out

    def loss_grads(self, ops, X, y, train_idx, dropout=0.0, rng=None):
        """Mean cross entropy on train_idx and its parameter/input gradients."""
        z1, h, mask, own, P = self._pass(ops, X, dropout, rng)
        loss, dlogits = _cross_entropy(self._logits(own, P), y, train_idx)
        grads, dX = self._backward(ops, X, z1, h, mask, dlogits)
        return loss, grads, dX

    def input_grad(self, ops, X, dlogits):
        """Backpropagate an arbitrary logit gradient to the inputs (eval mode)."""
        z1, h, mask = self._pass(ops, X)[:3]
        return self._backward(ops, X, z1, h, mask, dlogits)[1]


class GcnModel(_TwoLayer):
    """logits = A_hat relu(A_hat X W1 + b1) W2 + b2, A_hat = D^{-1/2} (A + I) D^{-1/2}

    D counts the self loop, so an isolated node's operator row is its
    identity row.
    """

    backbone = "gcn"
    weight_names = ("W1", "b1", "W2", "b2")
    self_loops = True
    descending = False
    # bound in the GCN's own namespace, where perfbench's per-layer tracer
    # patches them, so its wrappers leave SAGE alone
    build_ops = _TwoLayer.build_ops
    forward = _TwoLayer.forward
    forward_many = _TwoLayer.forward_many
    loss_grads = _TwoLayer.loss_grads

    @staticmethod
    def _values(deg, r, c):
        """d_r d_c with d = 1 / sqrt(deg), the entries of D^{-1/2} (A + I) D^{-1/2}."""
        d = 1.0 / np.sqrt(deg)
        return d[r] * d[c]

    @staticmethod
    def _held_rows(indptr, indices, x):
        """(i, rows): the rows of x[i]'s neighbours, whose columns x[i] move, self loops putting x[i], whose degree moves, among them."""
        i, k = _row_entries(indptr, x)
        return i, indices[k]

    def _pre(self, ops, X):
        """(X W1, A_hat X W1)."""
        XW = X @ self.W1
        return XW, ops @ XW

    def _hidden_rows(self, pre, Q, rows):
        return Q[rows] + self.b1

    def _head(self, h):
        return None, h @ self.W2

    def _logits(self, own, P, c=slice(None)):
        return P[..., c] + self.b2[c]

    def _pass(self, ops, X, dropout=0.0, rng=None, rows=None, deltas=None, out=None, cols=None, pre=None, tiles=None):
        bias, zero = tiles or (self.b1, 0.0)
        z1 = _shifted((pre or self._pre(ops, X))[1], cols, deltas, self.W1, out)
        z1 += bias
        h, mask = _relu_dropout(z1, dropout, rng, out, zero)
        own, Y = self._head(h)
        return z1, h, mask, own, _propagate(ops, Y)

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
    descending = True

    @staticmethod
    def _values(deg, r, c):
        """1 / deg_r, the entries of D^{-1} A (a row has entries only where its degree is positive)."""
        return 1.0 / deg[r]

    @staticmethod
    def _held_rows(indptr, indices, x):
        """(i, x[i]): x[i]'s own row alone, since a row of M reads only its own degree and entries."""
        return np.arange(x.size), x

    def _pre(self, ops, X):
        """(X, M X, X Ws1, X Ws1 + (M X) Wn1 + b1)."""
        pre = (X, ops @ X, X @ self.Ws1)
        return *pre, self._hidden_rows(pre, pre[1], slice(None))

    def _hidden_rows(self, pre, Q, rows):
        return pre[2][rows] + (Q @ self.Wn1)[rows] + self.b1

    def _head(self, h):
        return h @ self.Ws2, h @ self.Wn2

    def _logits(self, own, P, c=slice(None)):
        return own[..., c] + P[..., c] + self.b2[c]

    def _pass(self, ops, X, dropout=0.0, rng=None, rows=None, deltas=None, out=None, cols=None, pre=None, tiles=None):
        # b1 is already in pre[3], so only the zero tile is used
        zero = tiles[1] if tiles else 0.0
        z1 = _shifted((pre or self._pre(ops, X))[3], cols, deltas, self.Wn1, out)
        if deltas is not None:
            z1[:, rows] += deltas @ self.Ws1
        h, mask = _relu_dropout(z1, dropout, rng, out, zero)
        own, Y = self._head(h)
        return z1, h, mask, own, _propagate(ops, Y)

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
    vul = vulnerable_ids(split.vulnerable, g.n) if (augment and split.vulnerable) else None
    pairs = None if vul is None else eligible_pairs(g.n, vul)

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
