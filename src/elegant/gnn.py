"""Numpy node classifiers: two-layer GCN and GraphSAGE-mean.

Backbone contract.  Certification (pipeline.PredictionCache and
certify_sets) needs only `build_ops(g)` (the propagation operator of a
graph) and `forward_many(ops, X, rows, deltas, out)`, which writes the
hard classes of B perturbations of the given attribute rows into the
(B, n) uint8 out and returns it.  `forward(ops, X)` (logits, shape
(n, C)) scores the vanilla model for the CLI's relative threshold
(cli.resolve_eta), and the attack harness reads it and `backbone` (a
name) of both models.  The attacks add `input_grad(ops, X, dlogits)`,
the gradient of sum(dlogits * logits) in X, and `forward_flips(g, X,
pairs, out, rows=None)`, which writes the hard classes at the nodes rows
(default all n) of the B graphs g with the single pair pairs[b] flipped
into the (B, len(rows)) uint8 out and returns it; the greedy attack passes
as rows the nodes its metric compares.  Both batched calls give
logits.argmax of the float64 logits bit for bit, however they compute
them: certification and the attacks read only classes.  `train` builds
the two reference backbones below through `init`, `loss_grads`, `params`
and `replace`.

Both reference backbones share one base, _TwoLayer: each names its
operator by its entries (`self_loops`, `_scale`, `_values` and
`descending`, which the one array builder `_operator` turns into CSR
from integer index arrays, for `build_ops` and single-flip scoring
alike) and writes only its layer algebra's pieces: layer 1 (_layer1,
optionally batched over perturbations of a few attribute rows), layer
2's dense head (_head) and the reverse pass (_backward).  The one
forward pass, _TwoLayer._pass, is _layer1, the ReLU and dropout, and
_layer2 (_head plus propagation); prediction, batched inference,
single-flip scoring, training with manual backpropagation and input
gradients all derive from those.  Batched inference runs its draws in
chunks with layer 1 computed in place in one reused buffer, so its
memory is O(chunk n h), not O(B n h); its layer-1 bias add (GCN) and
ReLU read two C-contiguous (n, h) tiles, b1 on every row and zeros:
the bits of a broadcast row or a scalar, in a third of the ReLU's time
and half the bias add's (a 24-draw chunk at n=1000, h=64).

The chunks run on float32 twins of the weights, the operator, the deltas
and layer 1's clean float64 products, twice the draws per buffer, and a
rigorous forward-error bound (Higham 2002, ch. 3;
_TwoLayer._margin_bounds, the backbone's own layers run once on absolute
values) proves each float32 class equal to the float64 argmax where the
node-draw's class margin exceeds it.  The rest, 0.004% to 0.12% of the
node-draws of an sbm-german mask, depending on the model, are
re-evaluated in float64 over the node's operator row (the _hidden_at
hook).  The fallback rule: a node still within that margin's own bound
(an exact tie, a NaN) sends its draw to the exact float64 path, and a
value outside float32's range (in layer 1's products, the weights, the
operator or the deltas) or a bound that cannot be trusted (NaN, inf,
overflow) sends every draw.  Draws are independent, so a rerun gives the
bits of a full float64 pass.  A float64 chunk adds each class's b2 on
its own strided (chunk, n) view of the layer-2 product and picks the
first maximum straight into the caller's uint8 rows (_emit), so neither
the (B, n, C) logits nor their argmax pass exist.  Single-flip scoring
works in groups of flips: one array build gives the operator rows each
flip changes, one sparse product their layer-1 rows and the backbone's
_flip_hidden hook their activations, while every dense product stays
full-shape, so its logits equal a full rebuild bit for bit; layer 2
propagates over the scored rows alone, and _emit writes each group's
classes in one pass.
"""

from __future__ import annotations

import copy
import json
import logging
import threading
from dataclasses import dataclass
from operator import methodcaller

import numpy as np
from scipy import sparse

from .data import DataError, Graph, pair_array
from .smoothing import DOMAIN_TRAIN, eligible_pairs, substream, vulnerable_ids

logger = logging.getLogger(__name__)

# Size of forward_many's layer-1 buffer, which sets its chunk of draws: 24
# float64 or 49 float32 draws at n=1000, h=64.  For float64 (2-core VM),
# chunks of 4 / 8 / 12 / 48 draws made a 150-draw GCN mask 1.15 / 1.04 /
# 1.01 / 1.29 times as slow as 24 draws, and a single 150-draw chunk 1.8
# times (medians of three rounds of 15).  For the float32 pass, 12, 24, 49
# and 98 draws (3 to 24 MiB) timed within the round-to-round drift of one
# another on 12 certify-path masks (five rounds), and 6 draws was the
# slowest in three rounds of five, so the size stayed.
FORWARD_MANY_CHUNK_BYTES = 12 * 2**20
# forward_many's float32 pass runs only where every magnitude it computes
# stays below this, a quarter of float32's largest value, so no rounded
# partial sum can overflow
F32_LIMIT = 2.0**126
# Working memory of one forward_flips group, which sets how many candidate
# flips share one stacked operator build; _flip_charges prices each
# candidate from n and from the adjacency entries its flipped rows hold.
FORWARD_FLIPS_GROUP_BYTES = 4 * 2**20
# heavy-ball momentum of train's gradient steps
MOMENTUM = 0.9


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


class FallbackCounts:
    """Running totals of forward_many's exact fallbacks; several threads may add to one."""

    def __init__(self):
        self._lock = threading.Lock()
        self.settled = 0  # node-draws the float64 re-evaluation settled
        self.rerun = 0  # draws rerun on the float64 path

    def add(self, settled: int, rerun: int) -> None:
        with self._lock:
            self.settled += settled
            self.rerun += rerun


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
    """ops @ Y for Y (n, k); for Y (B, n, k), ops @ Y[b] for every b as one sparse product over (n, B*k), shape (B, rows of ops, k).

    Each element of a sparse-dense product sums its operator row's terms in
    the row's stored order, whatever the other columns hold, so every
    ops @ Y[b] equals its own product bit for bit.
    """
    if Y.ndim == 3:
        B, n, k = Y.shape
        out = ops @ Y.transpose(1, 0, 2).reshape(n, B * k)
        return out.reshape(-1, B, k).transpose(1, 0, 2)
    return ops @ Y


def _first_max(logits, out):
    """Index of the first maximum across the same-shape arrays logits (one per class), written into the uint8 out: ndarray.argmax over a class-last stack.

    Two classes take one comparison, l1 > l0, which is that argmax (a tie,
    -0.0 against +0.0 included, goes to class 0) except where l1 is NaN and
    l0 is not; a NaN anywhere in l1 makes its max NaN and sends the call,
    like more than two classes, to the argmax itself (an empty l1 has max
    -inf).
    """
    if len(logits) == 2 and not np.isnan(logits[1].max(initial=-np.inf)):
        np.greater(logits[1], logits[0], out=out.view(bool))
    else:
        out[...] = np.stack(logits, axis=-1).argmax(axis=-1)
    return out


def _margin(logits):
    """Top minus runner-up across the same-shape arrays logits (one per class), in their dtype: NaN where a logit is NaN, +inf for one class."""
    if len(logits) < 2:
        return np.full(logits[0].shape, np.inf)
    if len(logits) == 2:
        return np.abs(logits[1] - logits[0])
    top = np.sort(np.stack(logits), axis=0)  # NaN sorts last
    return top[-1] - top[-2]


def _f32_fits(mag):
    """Whether each magnitude is 0 or lies in [2^-126, F32_LIMIT], where a float32 cast errs by at most 2^-24 relative; False for NaN."""
    return (mag <= F32_LIMIT) & ((mag >= 2.0**-126) | (mag == 0.0))


def _shift_at(C, deltas, W, b):
    """Row e of C[e] @ (deltas[b[e]] @ W) for every row e of the CSR C (E, r), as one sparse product over the draws' stacked (B r, k) products."""
    r = C.shape[1]
    D = (deltas @ W).reshape(-1, W.shape[1])
    at = np.repeat(b, np.diff(C.indptr)) * r + C.indices
    return sparse.csr_matrix((C.data, at, C.indptr), shape=(C.shape[0], D.shape[0])) @ D


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
    - _layer1(pre, cols, rows, deltas, out, bias), layer 1's
      pre-activation z1 from pre, bias being b1 or its tile (ignored where
      pre holds b1);
    - _hidden_rows(pre, Q, rows), layer 1's pre-activation in rows when
      ops @ S is Q, and _flip_hidden(pre, SR, held, cuts), the hidden
      activations of a group of flipped graphs in their changed rows:
      flip c's rows are held[cuts[c]:cuts[c + 1]], SR[cuts[c]:cuts[c + 1]]
      their rows of the flipped ops @ S;
    - _hidden_at(pre, cols, rows, deltas, b, k), layer 1's pre-activation
      at node k[e] under the draw X[rows] += deltas[b[e]], from pre and
      the CSR cols, for forward_many's float64 re-evaluation of single
      node-draws (_node_logits);
    - _head(h), layer 2's products of the hidden activations h as (own,
      Y), Y being what layer 2 propagates (own is None if nothing else is
      left), and _logits(own, P, c), the logits when ops @ Y is P, of
      every class or of class c alone, by the same elementwise steps;
    - _backward, the reverse of _pass, returning (param_grads, dX) for a
      given logit gradient.
    The one forward pass, _pass, is _layer1, the ReLU and dropout, and
    _layer2 (_head, then ops @ Y), returning (z1, h, mask, own, P) with h
    the hidden activations after dropout, so the logits are
    _logits(own, P).  Given rows, deltas (B, len(rows), d), cols =
    ops[:, rows] as a dense array and pre, it runs on the B inputs with
    X[rows] += deltas[b], every array gaining a leading batch axis; given
    also a C-contiguous (B, n, h) buffer out, layer 1 runs in place there
    (eval mode only: z1 is then overwritten by h); given tiles, the pair
    _tiles(n), it adds b1 and runs the ReLU against those.  forward,
    forward_many, loss_grads and input_grad derive from _pass and
    _backward, _margin_bounds runs _layer1 and _layer2 on absolute values,
    and forward_flips runs the pieces itself.

    A backbone also names its operator by its entries, from _adjacency's
    index arrays: self_loops (whether its adjacency holds the identity),
    _scale (each node's scale from its degree), _values (each entry's value
    from the scales of its row and column nodes), descending (whether a row
    stores its columns in descending order) and _held_rows (the rows a
    flipped pair changes or reads).  _operator, the one operator builder,
    turns index arrays and node scales into CSR; build_ops runs it on a
    whole graph, forward_flips on its scored rows and _flip_patch on the
    held rows of a group of flipped graphs, so all agree bit for bit.
    """

    backbone: str
    weight_names: tuple

    def __init__(self, **weights):
        if set(weights) != set(self.weight_names):
            raise TypeError(f"{type(self).__name__} takes weights {self.weight_names}, got {tuple(weights)}")
        for name in self.weight_names:
            setattr(self, name, np.asarray(weights[name], dtype=np.float64))
        self.fallbacks = FallbackCounts()

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

    def _map(self, f):
        """A copy of this model whose every weight w is f(w); it shares fallbacks."""
        twin = copy.copy(self)
        for name in self.weight_names:
            setattr(twin, name, f(getattr(self, name)))
        return twin

    def replace(self, params):
        return type(self)(**params)

    def build_ops(self, g: Graph):
        """The propagation operator of g: _operator over _adjacency(g, self_loops)."""
        indptr, indices, deg = _adjacency(g, self.self_loops)
        return self._operator(indptr, indices, self._scale(deg))

    def _operator(self, indptr, indices, scale, rows=None):
        """Operator rows as CSR from CSR index arrays: row i has node rows[i] (default i) and the ascending columns indices[indptr[i]:indptr[i + 1]].

        scale holds _scale of the degree of every node of a row or column,
        one column per node.  Each entry is _values(scale[r], scale, c) of
        its row node r and column c; a descending backbone stores each row
        reversed.  These are the values and order of the scipy products
        D^{-1/2} A D^{-1/2} and D^{-1} A, whose entries are single terms,
        (d_r * 1.0) * d_c, none dropped, as a zero scale only meets an empty
        row.  SAGE's trained weights depend on its product's reversed rows.
        """
        lengths = np.diff(indptr)
        if self.descending:
            indices = indices[np.repeat(indptr[:-1] + indptr[1:] - 1, lengths) - np.arange(indices.size)]
        row_scale = np.repeat(scale if rows is None else scale[rows], lengths)
        return sparse.csr_matrix((self._values(row_scale, scale, indices), indices, indptr), shape=(lengths.size, scale.size))

    def _flip_patch(self, indptr, indices, deg, scale, u, v):
        """(b, held, patch, offset): the operator rows that toggling the pair (u[b], v[b]) changes, for the B graphs b, from _adjacency's arrays of the unflipped graph and scale = _scale(deg).

        Row i of patch is row held[i] of graph b[i], for every row of graph
        b in _held_rows of u[b] and v[b], ordered by b and then by row, as
        build_ops of graph b gives it but over the B graphs' stacked columns
        b n + j; offset[e] is the b n of entry e's row, so patch.indices -
        offset are the graph's own columns.  Each pair is looked up in the
        clean rows u[b] and v[b] on their linear keys; the held rows'
        entries are then gathered from indices in one pass whose reads skip
        a removed entry or make room for an added one, the scales of u[b],
        v[b] are recomputed from their moved degrees in one copy of scale
        per graph, and one _operator call builds the rest.
        """
        n, B = deg.size, u.size
        ends, other = np.concatenate([u, v]), np.concatenate([v, u])
        base = np.tile(np.arange(B) * n, 2)  # the graph block of each end
        i, rows = self._held_rows(indptr, indices, ends)
        held_at = np.zeros(B * n, dtype=bool)
        held_at[base[i] + rows] = True
        R = np.flatnonzero(held_at)
        b = R // n
        held = R - b * n
        # each pair's entry, or its insertion point, as an offset into the clean rows u[b] and v[b]
        t, k = _row_entries(indptr, ends)
        keys = t * n + indices[k]  # ascending
        first = np.arange(2 * B) * n  # the key of each row's column 0
        at = np.searchsorted(keys, first + other)
        present = at < keys.size
        present[present] = keys[at[present]] == (first + other)[present]
        off = at - np.searchsorted(keys, first)
        sign = np.where(present, -1, 1)  # the moved degree and row length, per end
        at_end = np.searchsorted(R, base + ends)
        lengths = indptr[held + 1] - indptr[held]
        lengths[at_end] += sign
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        # entry p of held row j reads clean entry indptr[held[j]] + p - ptr[j]; from a
        # row's toggle on, a removal reads one entry later and an addition one earlier
        read = np.repeat(indptr[held] - ptr[:-1], lengths) + np.arange(ptr[-1])
        t, e = _row_entries(ptr, at_end)
        read[e] -= (e - ptr[at_end][t] >= off[t]) * sign[t]
        cols = indices[read]
        cols[ptr[at_end][~present] + off[~present]] = other[~present]
        scales = np.tile(scale, B)
        scales[base + ends] = self._scale(deg[ends] + sign)
        offset = np.repeat(b * n, lengths)
        return b, held, self._operator(ptr, cols + offset, scales, R), offset

    def _flip_charges(self, indptr, indices, deg, pairs):
        """Bytes of forward_flips working memory charged to each pair (u, v) of pairs.

        A pair pays 8 (5 + 3 C) bytes per node, its share of the stacked
        scales and of the layer-2 products, 80 bytes per adjacency entry of
        its _flip_patch rows, its share of the gathered entries and of the
        patch, and 8 h bytes per held row, its share of the layer-1 rows
        (_flip_hidden's block).  Its rows are _held_rows of u and v: deg[x]
        rows for GCN, x's neighbours and itself, and one for SAGE, x's own;
        they hold at most reach[u] + reach[v] + 2 entries, reach[x] being
        the degrees summed over x's held rows.  tracemalloc measured about
        50-75 kB per pair plus at most 76 bytes per entry (n = 1000, 2n to
        20n random edges, with and without a node joined to all others,
        both backbones, logits or classes).
        """
        n = deg.size
        i, held = self._held_rows(indptr, indices, np.arange(n))
        reach = np.bincount(i, weights=deg[held], minlength=n)
        rows = np.bincount(i, minlength=n)
        u, v = pairs.T
        return 8 * (n * (5 + 3 * self.C) + 10 * (reach[u] + reach[v] + 2) + self.h * (rows[u] + rows[v]))

    def _pass(self, ops, X, dropout=0.0, rng=None, rows=None, deltas=None, out=None, cols=None, pre=None, tiles=None):
        """(z1, h, mask, own, P): _layer1, the ReLU and dropout, then _layer2; see the class docstring."""
        bias, zero = tiles or (self.b1, 0.0)
        z1 = self._layer1(pre or self._pre(ops, X), cols, rows, deltas, out, bias)
        h, mask = _relu_dropout(z1, dropout, rng, out, zero)
        return (z1, h, mask, *self._layer2(ops, h))

    def _layer2(self, ops, h):
        """(own, P): _head's products of the hidden activations h, with Y propagated, P = ops @ Y."""
        own, Y = self._head(h)
        return own, _propagate(ops, Y)

    def forward(self, ops, X):
        """Logits (n, C) for every node under a prebuilt operator (eval mode)."""
        return self._logits(*self._pass(ops, X)[3:])

    def forward_many(self, ops, X, rows, deltas, out):
        """Hard classes of B perturbations of X, X[rows] += deltas[b], deltas (B, len(rows), d), written into the (B, n) uint8 out, which it returns.

        Each draw's classes are the argmax of its float64 logits, bit for bit,
        though no (B, n, C) logits array is built.  _chunks runs on float32
        twins of the weights, the operator, cols = ops[:, rows], the deltas and
        pre, layer 1's clean products, which the float64 path shares.  Where a
        node-draw's float32 class margin (top logit minus runner-up) exceeds
        _margin_bounds' bound32, the float64 logits have the same strict
        maximum, so the float32 class is their argmax.  Every other node-draw
        is re-evaluated in float64 by _node_logits, from pre and cols, in
        batches of at most a float64 chunk's hidden rows, and settled where
        that margin exceeds bound64.  A draw with a node still unsettled (an
        exact tie, a NaN), or whose unsettled nodes read more hidden rows than
        the draw has nodes, is rerun through _exact, and so is every draw when
        _margin_bounds gives no bound (a value outside float32's range, the
        deltas included, or a bound that cannot be trusted).  Draws are
        independent (each draw's dense products are BLAS calls of their own,
        and a sparse product sums each column alone), so a rerun gives the bits
        of the full float64 pass.  self.fallbacks counts the node-draws settled
        by re-evaluation and the draws rerun.
        """
        rows = np.asarray(rows, dtype=np.int64)
        pre, cols = self._pre(ops, X), ops[:, rows].toarray()
        B, n = out.shape
        bounds = self._margin_bounds(ops, pre, rows, deltas, cols)
        if bounds is None:
            self.fallbacks.add(0, B)
            return self._exact(ops, X, rows, deltas, pre, cols, out)
        bound32, bound64 = bounds
        f32 = methodcaller("astype", np.float32)
        twin = self._map(f32)
        unsettled = np.empty((B, n), dtype=bool)
        for at, own, P in twin._chunks(f32(ops), X, rows, deltas, tuple(map(f32, pre)), f32(cols)):
            logits = [twin._logits(own, P, c) for c in range(self.C)]
            _first_max(logits, out[at])
            unsettled[at] = ~(_margin(logits) > bound32)
        b, v = np.nonzero(unsettled)
        # a draw whose nodes read more hidden rows than it has is cheaper to rerun
        lengths = np.diff(ops.indptr)
        exact = np.bincount(b, weights=lengths[v] + 1, minlength=B) > n
        b, v = b[~exact[b]], v[~exact[b]]
        settled, step = 0, max(1, FORWARD_MANY_CHUNK_BYTES // (8 * self.h * (lengths.max(initial=0) + 1)))
        for at in range(0, b.size, step):  # batches of at most a float64 chunk's hidden rows
            bb, vv = b[at : at + step], v[at : at + step]
            logits = self._node_logits(ops, pre, cols, rows, deltas, bb, vv)
            ok = _margin(list(logits.T)) > bound64[vv]
            out[bb[ok], vv[ok]] = logits[ok].argmax(axis=1)
            exact[bb[~ok]] = True
            settled += int(ok.sum())
        redo = np.flatnonzero(exact)
        if redo.size:
            out[redo] = self._exact(ops, X, rows, deltas[redo], pre, cols, np.empty((redo.size, n), np.uint8))
        self.fallbacks.add(settled, redo.size)
        return out

    def _exact(self, ops, X, rows, deltas, pre, cols, out):
        """forward_many's float64 path: the hard classes of _chunks of draws in float64, written into out, which it returns."""
        for at, own, P in self._chunks(ops, X, rows, deltas, pre, cols):
            self._emit(own, P, out[at])
        return out

    def _chunks(self, ops, X, rows, deltas, pre, cols):
        """(at, own, P) of each chunk of draws at = slice(start, stop): _pass on deltas[at] in the weights' dtype.

        Layer 1 runs in place in one reused C-contiguous buffer of
        FORWARD_MANY_CHUNK_BYTES, so memory is O(chunk n h), not O(B n h),
        and a float32 chunk holds twice the draws of a float64 one.  Each
        draw's arithmetic is the same as in one unchunked batch, so its
        logits are too, bit for bit, while the buffer stays C-contiguous (a
        strided h @ W2 leaves BLAS and moves the last bits).  The bias add
        and ReLU take same-shape operands, _tiles(n), built once per call,
        with the scalar forms' bits (see _relu_dropout): against a broadcast
        (h,) row or a scalar, numpy's inner loop is h elements long or misses
        its contiguous fast path.
        """
        dtype = self.b1.dtype
        B, n = deltas.shape[0], X.shape[0]
        chunk = max(1, FORWARD_MANY_CHUNK_BYTES // (dtype.itemsize * n * self.h))
        buf = np.empty((min(chunk, B), n, self.h), dtype)
        tiles = self._tiles(n)
        for start in range(0, B, chunk):
            part = deltas[start : start + chunk].astype(dtype, copy=False)
            own, P = self._pass(ops, X, rows=rows, deltas=part, out=buf[: len(part)], cols=cols, pre=pre, tiles=tiles)[3:]
            yield slice(start, start + len(part)), own, P

    def _margin_bounds(self, ops, pre, rows, deltas, cols):
        """(bound32, bound64) for forward_many's draws, or None when no bound can be trusted.

        The float32 pass, the float64 pass and _node_logits all start from the
        same float64 layer-1 products pre (the float32 pass casts them), so
        each is measured against m, a class margin (logit c minus logit c')
        computed in exact arithmetic from pre and the other inputs.  For
        node v, bound32[v] bounds |m32 - m| + |m64 - m| and bound64[v]
        bounds |m64' - m| + |m64 - m|, m32 and m64 being that margin from
        the float32 and the float64 pass and m64' from _node_logits; each
        is the sum of the two largest per-class logit bounds E[v, c],
        evaluated in float64.  So a margin m32 above bound32 (or m64' above
        bound64) has the sign of m64, and its top class is m64's.

        The bounds follow Higham (Accuracy and Stability of Numerical
        Algorithms, 2002, ch. 3): an operation rounds with relative error
        at most u (2^-24 in float32, 2^-53 in float64), so a computed sum
        of products, each carrying at most K factors (1 + delta_i), errs by
        at most gamma_K = K u / (1 - K u) times the same sum over absolute
        values.  The backbone's own layers give those sums: M1, _layer1 run
        on |pre|, |weights|, the operator's |entries|, |cols| and D, the
        elementwise max of |deltas| over the draws, bounds |z1| of every
        draw (layer 1 is monotone in each operand), and M, _layer2 and
        _logits run on M1, bounds every logit's terms.  Counting factors
        per product:
        - layer 1, K1 = d + r + 7: 3 casts to float32 (cols, deltas and a
          weight; pre or b1 alone cost 1), d + r in the nested dot products
          (deltas times a weight, then a row of cols), 2 additions (GCN:
          onto pre, b1; SAGE: onto pre, the own-row shift), and 2 shared
          with layer 2: the subtraction that forms the margin and the
          bound's own evaluation in float64 (its relative error, near
          gamma in float64, is far below one float32 u);
        - layer 2, K2 = h + R_v + 6 for node v: 2 casts (operator,
          weight), h + R_v in the nested dot products (h times a weight,
          then v's operator row of R_v entries), 2 additions (own term,
          b2) and the same 2.
        So the float32 pre-activation errs by at most e1 = gamma_K1 M1.
        Every draw's z1 is at most U = z + M1 - |z|, z the clean
        pre-activation in float64, _hidden_rows of all rows (a draw's
        shift is at most M1 - |z|, and e1 dwarfs the roundings of z and
        U).  Where U + 2 e1 <= 0 both
        the exact and the float32 unit are negative, so the ReLU makes both
        0 and passes on no error; elsewhere it passes on at most e1 (it is
        1-Lipschitz), and both hidden units lie in [0, H], H = max(U +
        2 e1, 0).  So E32 is layer 2 on absolute values without biases run
        on that passed-on error, plus gamma_K2 times layer 2 on absolute
        values run on H; one _layer2 call on the stacked M1, passed-on
        error and H gives M and both.  The float64 pass and _node_logits
        cast nothing and have the same dot-product lengths, so E64 =
        gamma_(K1 + K2) M.

        Absolute term: a product or sum that underflows errs by at most
        2^-126 (float32) or 2^-1022 (float64) absolutely, flushed to zero
        or not.  Summed over every such operation feeding one value,
        weighted by that value's sensitivity to its result, layer 1 adds
        N1 = 2 + 2 r + 2 d (1 + a) units to e1 and layer 2 adds N2 = 2 h
        (1 + a) + 2 R + 2 to a logit, R the longest operator row and a the
        largest operator row sum; so E64 adds N = (1 + a) w2 N1 + N2 units,
        w2 the largest column sum of |W| over layer 2's matrices.  Each
        term is doubled, for the relative factors it passes through.  A
        cast rounds with relative error alone only for magnitudes in
        [2^-126, F32_LIMIT], so the bounds are None unless pre, the weights,
        the operator's entries and the deltas lie there (or are 0).  They
        are also None if any magnitude the float32 pass can reach exceeds
        F32_LIMIT, since it would overflow (NaN and inf fail these checks
        too): M1, M, layer 1's delta products, bounded by D @ |W|, and
        _head's products, bounded by M1's column maxima times |W|.  And
        they are None if rows repeat a node.
        """
        mag, apre, absm = np.abs(deltas), tuple(np.abs(p) for p in pre), self._map(np.abs)
        small = np.abs(np.concatenate([ops.data, *(w.ravel() for w in self.params().values())]))
        if np.unique(rows).size < rows.size or not all(_f32_fits(a).all() for a in (*apre, small, mag)):
            return None
        D = mag.max(axis=0, initial=0.0)
        A = abs(ops)
        M1 = absm._layer1(apre, np.abs(cols), rows, D[None], None, absm.b1)[0]
        W1s, W2s = ([w for name, w in absm.params().items() if name[0] == "W" and name[-1] == k] for k in "12")
        (r, d), h, n = D.shape, self.h, A.shape[0]
        R = np.diff(A.indptr)
        a = float((A @ np.ones(n)).max(initial=0.0))
        w2 = max(w.sum(axis=0).max(initial=0.0) for w in W2s)
        K1, K2 = d + r + 7, (h + 6 + R)[:, None]
        if (K1 + K2).max(initial=K1) * 2.0**-24 >= 0.5:
            return None
        N1, N2 = 2 + 2 * r + 2 * d * (1 + a), 2 * h * (1 + a) + 2 * R.max(initial=0) + 2

        def gamma(K, u):
            return K * u / (1 - K * u)

        e1 = gamma(K1, 2.0**-24) * M1 + 2 * 2.0**-126 * N1
        # z + M1 - |z| + 2 e1, z the clean pre-activation
        G = M1 + 2 * (e1 + np.minimum(self._hidden_rows(pre, pre[1], slice(None)), 0.0))
        own, P = absm._layer2(A, np.stack([M1, e1 * (G > 0), np.maximum(G, 0.0)]))
        M, _, L = absm._logits(own, P)
        reach = (M1, M, *(D @ w for w in W1s), *(M1.max(axis=0, initial=0.0) @ w for w in W2s))
        if not all(p.max(initial=0.0) <= F32_LIMIT for p in reach):
            return None
        no_bias = absm._map(lambda w: w if w.ndim > 1 else np.zeros_like(w))
        E32 = no_bias._logits(own, P)[1] + gamma(K2, 2.0**-24) * L + 2 * 2.0**-126 * N2
        E64 = gamma(K1 + K2, 2.0**-53) * M + 2 * 2.0**-1022 * ((1 + a) * w2 * N1 + N2)

        def top2(E):
            return np.sort(E, axis=1)[:, -2:].sum(axis=1)

        return top2(E32 + E64), top2(2 * E64)

    def _node_logits(self, ops, pre, cols, rows, deltas, b, v):
        """float64 logits (len(v), C) of node v[i] under the draw X[rows] += deltas[b[i]].

        They read the hidden rows of v[i] itself (_head's own term) and of
        its operator row's columns (the propagated term), whose
        pre-activations the backbone's _hidden_at hook gives from pre and
        cols.  The arithmetic is not a full pass's, so the bits may differ,
        but every dot product has the same length, which _margin_bounds'
        float64 bound needs.
        """
        lengths = ops.indptr[v + 1] - ops.indptr[v] + 1
        ptr = np.concatenate([[0], np.cumsum(lengths)])
        own_at = ptr[:-1]  # each node's own entry, ahead of its operator row's entries
        row_at = np.ones(ptr[-1], dtype=bool)
        row_at[own_at] = False
        node, weight = np.empty(ptr[-1], dtype=np.int64), np.zeros(ptr[-1])
        k = _row_entries(ops.indptr, v)[1]
        node[own_at], node[row_at], weight[row_at] = v, ops.indices[k], ops.data[k]
        h = self._hidden_at(pre, sparse.csr_matrix(cols), rows, deltas, np.repeat(b, lengths), node)
        np.maximum(h, 0.0, out=h)
        # layer 2 as (ops h) W rather than ops (h W): the same dot-product lengths, and BLAS sees len(v) rows, not one per entry
        P = self._head(sparse.csr_matrix((weight, np.arange(ptr[-1]), ptr), shape=(v.size, ptr[-1])) @ h)[1]
        return self._logits(self._head(h[own_at])[0], P)

    def _emit(self, own, P, out):
        """Write the hard classes of the logits _logits(own, P) into the uint8 out: each class's logits from its own strided view, then _first_max."""
        _first_max([self._logits(own, P, c) for c in range(self.C)], out)

    def _tiles(self, n):
        """forward_many's layer-1 operands (b1 on every row, zeros), each C-contiguous (n, h), in the weights' dtype."""
        return np.tile(self.b1, (n, 1)), np.zeros((n, self.h), self.b1.dtype)

    def forward_flips(self, g: Graph, X, pairs, out, rows=None):
        """Hard classes at the nodes rows (default all n) of the B graphs g.flip(pairs[b:b + 1]), pairs (B, 2), written into the (B, len(rows)) uint8 out, which it returns (eval mode).

        out[b] is the argmax of forward(build_ops(g.flip(pairs[b:b + 1])),
        X)[rows], whose logits the flip groups compute bit for bit; a pair
        outside 0 <= u < v < n raises DataError, as Graph.flip does.  The clean
        pass runs once, then the flips run in _flip_groups whose _flip_charges
        sum to at most FORWARD_FLIPS_GROUP_BYTES.  Per group, one _flip_patch
        call gives the operator rows each flip changes, through build_ops's
        builder, as one CSR over the group's stacked columns; its twin over the
        graph's columns gives their layer-1 products in one sparse product, and
        the backbone's _flip_hidden hook their hidden activations in one call.
        Each flip swaps its rows into a reused clean hidden array, runs _head
        full-shape into the group's (B, n, C) arrays and restores the rows: a
        row of a BLAS product depends on its position, so only full-shape dense
        products match the clean pass in the rows a flip leaves alone.  Layer 2
        then propagates over the rows alone: one sparse product of the clean
        operator restricted to rows (built once per call; each of its rows sums
        the same stored entries in the same order as in the full operator) and
        one of the patch, whose rows overwrite the held rows that are among
        rows; one _emit call writes the group's classes.
        """
        pairs = pair_array(pairs, g.n)
        n = g.n
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError(f"rows must lie in [0, {n})")
        indptr, indices, deg = adjacency = _adjacency(g, self.self_loops)
        scale = self._scale(deg)
        pre = self._pre(self._operator(indptr, indices, scale), X)
        h_clean = np.maximum(self._hidden_rows(pre, pre[1], slice(None)), 0.0)
        h = h_clean.copy()  # work array, clean again after every candidate
        scored_ptr = np.concatenate([[0], np.cumsum(indptr[rows + 1] - indptr[rows])])
        scored = self._operator(scored_ptr, indices[_row_entries(indptr, rows)[1]], scale, rows)
        # node j is scored at the positions order[found[j]:found[j + 1]] of rows
        order = np.argsort(rows, kind="stable")
        found = np.searchsorted(rows[order], np.arange(n + 1))
        for start, stop in _flip_groups(self._flip_charges(*adjacency, pairs)):
            u, v = pairs[start:stop].T
            b, held, patch, offset = self._flip_patch(*adjacency, scale, u, v)
            twin = sparse.csr_matrix((patch.data, patch.indices - offset, patch.indptr), shape=(held.size, n))
            cuts = np.searchsorted(b, np.arange(u.size + 1))
            H = self._flip_hidden(pre, twin @ pre[0], held, cuts)
            clean = h_clean[held]
            own, Y = None, np.empty((u.size, n, self.C))  # own stays None where _head has no own term (GCN)
            for c in range(u.size):
                at = slice(cuts[c], cuts[c + 1])
                h[held[at]] = H[at]
                own_c, Y[c] = self._head(h)
                if own_c is not None:
                    own = np.empty((u.size, rows.size, self.C)) if own is None else own
                    own[c] = own_c[rows]
                h[held[at]] = clean[at]
            P = _propagate(scored, Y)
            i, k = _row_entries(found, held)  # held row i is scored at position order[k]
            P[b[i], order[k]] = (patch @ Y.reshape(-1, self.C))[i]
            self._emit(own, P, out[start:stop])
        return out

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
    def _scale(deg):
        """d = 1 / sqrt(deg), each node's scale in D^{-1/2} (A + I) D^{-1/2}."""
        return 1.0 / np.sqrt(deg)

    @staticmethod
    def _values(row_scale, scale, c):
        """d_r d_c, the entries of D^{-1/2} (A + I) D^{-1/2}, from each entry's d_r."""
        return row_scale * scale[c]

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

    def _hidden_at(self, pre, cols, rows, deltas, b, k):
        """Layer 1's pre-activation at node k[e] under draw deltas[b[e]], for every entry e: A_hat X W1 + cols (delta W1) + b1, cols a CSR."""
        z = _shift_at(cols[k], deltas, self.W1, b)
        z += pre[1][k]
        z += self.b1
        return z

    def _flip_hidden(self, pre, SR, held, cuts):
        """np.maximum(SR + b1, 0.0), in place: a GCN's layer-1 rows are row-local."""
        SR += self.b1
        return np.maximum(SR, 0.0, out=SR)

    def _head(self, h):
        return None, h @ self.W2

    def _logits(self, own, P, c=slice(None)):
        return P[..., c] + self.b2[c]

    def _layer1(self, pre, cols, rows, deltas, out, bias):
        """A_hat X W1, shifted by the deltas, plus bias (b1 or its tile)."""
        z1 = _shifted(pre[1], cols, deltas, self.W1, out)
        z1 += bias
        return z1

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
    def _scale(deg):
        """1 / deg, each row's scale in D^{-1} A (inf where deg is 0, a row without entries)."""
        with np.errstate(divide="ignore"):
            return 1.0 / deg

    @staticmethod
    def _values(row_scale, scale, c):
        """1 / deg_r, the entries of D^{-1} A, each entry's row_scale."""
        return row_scale

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

    def _hidden_at(self, pre, cols, rows, deltas, b, k):
        """Layer 1's pre-activation at node k[e] under draw deltas[b[e]], for every entry e: pre[3] + cols (delta Wn1), plus delta Ws1 where k[e] is a perturbed row; cols a CSR."""
        own = sparse.csr_matrix((np.ones(rows.size), (rows, np.arange(rows.size))), shape=cols.shape)
        z = _shift_at(cols[k], deltas, self.Wn1, b)
        z += pre[3][k]
        z += _shift_at(own[k], deltas, self.Ws1, b)
        return z

    def _flip_hidden(self, pre, SR, held, cuts):
        """Each flip's hidden rows from its own full-shape (M X) Wn1, whose rows depend on their position: flip c swaps its rows SR[cuts[c]:cuts[c + 1]] into a copy of M X."""
        Q, H = pre[1].copy(), np.empty((held.size, self.h))
        for c in range(cuts.size - 1):
            at = slice(cuts[c], cuts[c + 1])
            Q[held[at]] = SR[at]
            H[at] = np.maximum(self._hidden_rows(pre, Q, held[at]), 0.0)
            Q[held[at]] = pre[1][held[at]]
        return H

    def _head(self, h):
        return h @ self.Ws2, h @ self.Wn2

    def _logits(self, own, P, c=slice(None)):
        return own[..., c] + P[..., c] + self.b2[c]

    def _layer1(self, pre, cols, rows, deltas, out, bias):
        """X Ws1 + (M X) Wn1 + b1 (pre[3], which holds b1, so bias is unused), shifted by the deltas through Wn1 and, in the perturbed rows, Ws1."""
        z1 = _shifted(pre[3], cols, deltas, self.Wn1, out)
        if deltas is not None:
            z1[:, rows] += deltas @ self.Ws1
        return z1

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
