"""Numpy binary node classifiers: two-layer GCN and GraphSAGE-mean.

Backbone contract.  Certification (pipeline.PredictionCache and
certify_sets) needs only `build_ops(g)` (the propagation operator of a
graph) and `forward_many(ops, X, rows, deltas, out)`, which writes the
hard classes of B perturbations of the given attribute rows into the
(B, n) uint8 out and returns it.  `forward(ops, X)` (logits, shape
(n, 2)) scores the vanilla model for the CLI's relative threshold
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
and `replace`, computing layer 1's products once per epoch: a step on the
clean graph reuses those of the validation pass before it (`loss_grads`
and `forward` take them as `pre`, which no pass writes into), the loss
reads the training rows alone, a step computes no input gradient, and
an augmented epoch toggles its flipped
pairs in the clean graph's sorted adjacency keys (_toggled) rather than
sorting a flipped graph's anew; every epoch keeps the bits of a fresh
pass.

Both reference backbones share one base, _TwoLayer: each names its
operator by its entries (`self_loops`, `_scale`, `_values` and
`descending`, which the one array builder `_operator` turns into CSR
from integer index arrays, for `build_ops` and single-flip scoring
alike) and writes only its layer algebra's pieces: layer 1's products
(_pre), whose last entry, pre[-1], is layer 1's clean pre-activation, b1
included, layer 1 under a batch of perturbations of a few attribute rows
(_layer1, which always shifts pre[-1] and adds no bias of its own),
layer 2's dense head (_head) and the reverse pass (_backward, and
_pullback to the inputs).  The one forward pass, _TwoLayer._pass,
starts from pre[-1]: its ReLU and dropout, then _layer2 (_head plus
propagation); prediction, training with manual backpropagation and input
gradients derive from it, and batched inference and single-flip scoring
run the same pieces.  Batched inference runs its draws at two
granularities (_chunks): _layer1, the ReLU and _head run per block of a
few draws, in place in one reused buffer small enough to stay in a
core's L2 cache, and write into contiguous slices of the (chunk, m, C)
layer-2 arrays of a chunk of draws, which one sparse product propagates;
so its memory is O(block m h + chunk n C), not O(B n h), m being the
rows layer 1 runs on.

The float64 pass runs on all n rows; forward_many's classes come from a
float32 filter that computes only what its class test reads.  A rigorous
forward-error bound (Higham 2002, ch. 3; _TwoLayer._margin_bounds, the
backbone's own layers run once on absolute values) proves each float32
class equal to the float64 argmax where the node-draw's class margin
exceeds it, and the filter computes that margin from the one logit
difference of the two classes, logit 1 minus logit 0, its layer-2
weights being W[:, 1] - W[:, 0].  The same bound, with the
largest shift any draw's deltas can add, proves some hidden units
negative at every node under every draw, so that their ReLU gives 0 in
both precisions, and the float32 pass skips them (23 to 31 of the GCN's
64 on sbm-german); its layer-1 operand is the cast clean float64
pre-activation of the others, b1 included, so it adds no bias.  Per draw
it runs layer 1, the ReLU and _head on the rows the noise reaches alone
(those with an operator entry in a perturbed row's column, and the
perturbed rows: about 780 of sbm-german's 1000), through _chunks'
operands; the other rows' layer-2 term is one constant per call.  The
node-draws it leaves unsettled, 0.003% to 0.011% of an sbm-german
mask's (noise-trained GCN and SAGE, seeds 5 and 11) and about 0.05% at
perfbench's GCN worlds of seeds 3 and 8312 (72 of 150,000 per mask),
are re-evaluated in float64 over the node's operator row (the
_hidden_at hook) on the kept units alone, for a batch's distinct draws
alone, in batches sized by the bytes of hidden rows they hold.  The
fallback rule: a node still within that margin's own bound (an exact
tie, a NaN) sends its draw to the exact float64 path, and a value
outside float32's range (in layer 1's clean pre-activation, the
weights, the operator or the deltas) or a bound that cannot be trusted
(NaN, inf, overflow) sends every draw.  Draws are
independent, so a rerun gives the bits of a full float64 pass.  A
float64 chunk adds each class's b2 on its own strided (chunk, n) view of
the layer-2 product and picks the first maximum straight into the
caller's uint8 rows (_emit), so neither the (B, n, C) logits nor their
argmax pass exist.  Single-flip scoring works in groups of flips: one
array build gives the operator rows each flip changes, one sparse
product their layer-1 rows and the backbone's _flip_hidden hook their
activations, while every dense product stays full-shape, so its logits
equal a full rebuild bit for bit; layer 2 propagates over the scored
rows alone, and _emit writes each group's classes in one pass.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import threading
from dataclasses import dataclass
from operator import methodcaller

import numpy as np
from scipy import sparse

from .data import DataError, Graph, pair_array
from .fairness import node_ids
from .smoothing import DOMAIN_TRAIN, eligible_pairs, substream, vulnerable_ids

logger = logging.getLogger(__name__)

# Working set of forward_many's chunk loop (_chunks), which sets both of its
# granularities: a block of BYTES // (itemsize m h) draws, m the rows layer 1
# runs on, runs layer 1, the ReLU and _head in one reused buffer that stays in
# a core's 2 MiB L2 (2 float64 draws at m=1000, h=64; the float32 pass's m and
# h are the rows the noise reaches and the units it keeps), and a chunk of
# BYTES // (itemsize n C) draws (65 float64 draws at C=2, 262 float32 ones on
# the float32 pass's one difference column) is propagated at once.  Sweep on
# sbm-german (2-core VM, 2 MiB L2 per core; 150-draw masks of a trained model,
# median time relative to the former 12 MiB buffer's 49-draw float32 chunks
# over 30 interleaved rounds, two sweeps, GCN / SAGE): 256 KiB 1.01 / -,
# 512 KiB 0.87-0.90 / 0.82-0.84, 768 KiB 0.78-0.86 / 0.73-0.85, 1 MiB
# 0.80-0.84 / 0.80-0.81, 1.5 MiB 0.82-0.84 / 0.87-0.89, 2 MiB 0.80-0.88 /
# 0.89, 4 MiB 0.88 / -.  Blocks of 3 draws and chunks of 98 at 768 KiB ran
# about as fast as 1 MiB's, which stayed.  A batch of the float64
# re-evaluation of unsettled node-draws holds at most BYTES of hidden rows,
# BYTES // (8 k) rows of the k kept units (3,196 at k=41), unless one
# node-draw's rows alone hold more.  Its set-up is about 0.14 ms a batch
# and a hidden row 0.2-0.3 us (sbm-german), so a seed-3 mask's 72
# unsettled node-draws (1,600-2,400 rows) take one batch.
FORWARD_MANY_CHUNK_BYTES = 2**20
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
    """Running totals of forward_many's exact fallbacks, skipped hidden units and rows reached by the noise; several threads may add to one."""

    def __init__(self):
        self._lock = threading.Lock()
        self.settled = 0  # node-draws the float64 re-evaluation settled
        self.rerun = 0  # draws rerun on the float64 path
        self.skipped = 0  # hidden units the float32 pass skipped, summed over calls
        self.moving = 0  # rows the noise reaches (layer 1 runs per draw on them alone), summed over calls

    def add(self, settled: int, rerun: int, skipped: int, moving: int) -> None:
        with self._lock:
            self.settled += settled
            self.rerun += rerun
            self.skipped += skipped
            self.moving += moving


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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("weight_decay", "train_noise_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        if not 0 <= self.train_noise_flip_prob <= 1:
            raise ValueError(f"train_noise_flip_prob must lie in [0, 1], got {self.train_noise_flip_prob}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.hidden < 1:
            raise ValueError(f"hidden width must be positive, got {self.hidden}")


def _adjacency_keys(g: Graph, self_loops: bool):
    """The ascending keys r n + c of the entries (r, c) of g's symmetric 0/1 adjacency, plus the identity with self_loops."""
    n, e = g.n, g.edge_array()
    loops = np.arange(n if self_loops else 0)
    return np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0], loops * (n + 1)]))


def _csr(keys, n):
    """CSR index arrays (indptr, indices) of the n x n 0/1 matrix whose entries have the ascending keys r n + c, and its row lengths as float64 degrees.

    Each row's columns are ascending.
    """
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return indptr, keys % n, np.diff(indptr).astype(np.float64)


def _toggled(keys, n, pairs):
    """_adjacency_keys of g.flip(pairs) from keys, g's: both entries of each pair (u, v), u < v, drop if present and appear if absent.

    pairs must be duplicate-free, as for Graph.flip.  Each key is looked up
    in keys with one searchsorted; the present ones are deleted and the
    absent ones inserted at their places, so no key is sorted again.
    """
    u, v = pairs.T
    toggle = np.concatenate([u * n + v, v * n + u])
    at = np.searchsorted(keys, toggle)
    present = at < keys.size
    present[present] = keys[at[present]] == toggle[present]
    kept = np.delete(keys, at[present])
    added = np.sort(toggle[~present])
    return np.insert(kept, np.searchsorted(kept, added), added)


def _row_entries(indptr, rows):
    """(ptr, i, k) over the entries of the CSR rows `rows`, in order: ptr their stacked row pointers, i the position of each entry's row in rows, k its index in the CSR arrays."""
    lengths = indptr[rows + 1] - indptr[rows]
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    i = np.repeat(np.arange(rows.size), lengths)
    return ptr, i, np.arange(i.size) + (indptr[rows] - ptr[:-1])[i]


def _groups(charges, limit):
    """(start, stop) of consecutive items whose charges sum to at most limit.

    An item charged more than that forms a group alone.
    """
    start, total = 0, 0.0
    for i, charge in enumerate(charges):
        if i > start and total + charge > limit:
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


def _relu_dropout(z1, dropout, rng):
    """Hidden activations and the inverted-dropout mask (None in eval mode).

    The mask holds 0.0 and 1 / (1 - dropout), the bits of a bool divided by
    1 - dropout.
    """
    h = np.maximum(z1, 0.0)
    mask = None
    if dropout > 0.0:
        mask = (rng.random(h.shape) >= dropout) * (1.0 / (1.0 - dropout))
        h *= mask
    return h, mask


def _relu_dropout_grad(dh, z1, mask):
    """Gradient of _relu_dropout's output pulled back to z1, written into dh."""
    if mask is not None:
        dh *= mask
    dh *= z1 > 0.0
    return dh


def _shifted(z, cols, deltas, W, out):
    """The batch z + cols @ (deltas[b] @ W) for deltas (B, r, d), shape (B, n, k), written into out.

    Perturbing X[rows] moves ops @ (X @ W) only through the operator columns
    at rows, cols = ops[:, rows] as a dense array.  The shift is one BLAS
    product per draw, written straight into the C-contiguous out; each
    element is the same r-term dot product as in a single product over all
    draws, and z is added after it.
    """
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
        return out.reshape(out.shape[0], B, k).transpose(1, 0, 2)
    return ops @ Y


def _first_max(l0, l1, out):
    """Index of the first maximum of the same-shape logits l0 and l1 of the two classes, written into the uint8 out: ndarray.argmax over their class-last stack.

    One comparison, l1 > l0, is that argmax (a tie, -0.0 against +0.0
    included, goes to class 0) except where l1 is NaN and l0 is not; a NaN
    anywhere in l1 makes its max NaN and sends the call to the argmax
    itself (an empty l1 has max -inf).
    """
    if np.isnan(l1.max(initial=-np.inf)):
        out[...] = np.stack([l0, l1], axis=-1).argmax(axis=-1)
    else:
        np.greater(l1, l0, out=out.view(bool))
    return out


def _differences(w):
    """Layer-2 weights w, (h, 2) or (2,), as the one column w[..., 1] - w[..., 0], so the logit it gives is logit 1 minus logit 0."""
    return w[..., 1:] - w[..., :1]


def _pair_columns(w):
    """|w[..., 1]| + |w[..., 0]| beside |w[..., 1] - w[..., 0]|: the 2 layer-2 columns of _margin_bounds' absolute-value model."""
    return np.concatenate([np.abs(w[..., 1:]) + np.abs(w[..., :1]), np.abs(_differences(w))], axis=-1)


def _difference_classes(m, out):
    """Classes m > 0 from the logit differences m (..., 1), logit 1 minus logit 0, written into the uint8 out; returns the margin |m|, NaN where m is.

    forward_many reads a class only where the margin settles it, so a NaN
    may go to either class.
    """
    np.greater(m[..., 0], 0.0, out=out.view(bool))
    return np.abs(m[..., 0])


def _f32_fits(mag):
    """Whether every magnitude in mag is 0 or lies in [2^-126, F32_LIMIT], where a float32 cast errs by at most 2^-24 relative; False if one is NaN.

    Two reductions decide it: the largest magnitude, and the smallest, which
    only when it is 0 or below 2^-126 sends the call to a third, the
    smallest nonzero one.
    """
    if not mag.max(initial=0.0) <= F32_LIMIT:
        return False
    return bool(mag.min(initial=np.inf) >= 2.0**-126 or np.min(mag, where=mag != 0.0, initial=np.inf) >= 2.0**-126)


def _shift_at(C, k, deltas, W, b):
    """Row k[e] of C @ (deltas[b[e]] @ W) for every e, C a CSR (n, r) and deltas (D, r, d): one sparse product over the stacked (r, h) products of deltas' D draws (one (D r, d) GEMM), whose rows are gathered from C's index arrays."""
    r = C.shape[1]
    ptr, i, at = _row_entries(C.indptr, k)
    D = deltas.reshape(-1, W.shape[0]) @ W
    return sparse.csr_matrix((C.data[at], b[i] * r + C.indices[at], ptr), shape=(k.size, D.shape[0])) @ D


def _max_shift(deltas, W):
    """max_b |deltas[b] @ W| (r, k) over the draws of deltas (B, r, d), from one (B r, d) @ (d, k) product; zeros for no draws."""
    B, r, d = deltas.shape
    P = deltas.reshape(B * r, d) @ W
    return np.abs(P, out=P).reshape(B, r, W.shape[1]).max(axis=0, initial=0.0)


def _cross_entropy(logits, y, train_idx):
    """Mean cross entropy on train_idx and its gradient in the logits.

    Every step is row-wise, so the softmax runs on the train_idx rows alone,
    with the bits it gives them over all rows.
    """
    idx = np.asarray(train_idx, dtype=np.int64)
    at = np.arange(idx.size), np.asarray(y)[idx]
    p = _softmax(logits[idx])
    eps = 1e-12
    loss = -np.mean(np.log(p[at] + eps))
    p[at] -= 1.0
    g = np.zeros_like(logits)
    g[idx] = p
    g /= idx.size
    return float(loss), g


class _TwoLayer:
    """Weights, training loss and input gradients shared by the two backbones.

    A backbone lists its weights in weight_names (matrices W*, biases b*,
    each name ending in its layer number) and writes its layer algebra
    once, in pieces:
    - _pre(ops, X), layer 1's products before any shift; its first two
      entries are S, the operand layer 1 propagates, and ops @ S, and its
      last, pre[-1], is layer 1's clean pre-activation, b1 included;
    - _layer1(pre, cols, rows, deltas, out), layer 1's pre-activation z1
      under the B draws X[rows] += deltas[b], deltas (B, len(rows), d) and
      cols = ops[:, rows] as a dense array: pre[-1], the one entry of pre
      it reads, always shifted, written into the C-contiguous (B, n, h)
      out and never into pre, which training reuses across passes;
    - _shift_bound(cols, rows, deltas), a bound (n, h) on every draw's
      layer-1 shift |z1 - z| from |cols| and the draws' largest delta
      products, for _margin_bounds' test of units no draw switches on;
    - _flip_hidden(pre, SR, held, cuts), the hidden activations of a group
      of flipped graphs in their changed rows: flip c's rows are
      held[cuts[c]:cuts[c + 1]], SR[cuts[c]:cuts[c + 1]] their rows of the
      flipped ops @ S;
    - _hidden_at(z, cols, rows, deltas, b, k), layer 1's pre-activation
      at node k[e] under the draw X[rows] += deltas[b[e]], from z, the
      clean pre-activation pre[-1], and the CSR cols through _shift_at,
      for forward_many's float64 re-evaluation of single node-draws
      (_node_logits);
    - _head(h, out), layer 2's products of the hidden activations h as
      (own, Y), Y being what layer 2 propagates (own is None if nothing
      else is left), written into the pair of arrays out if given, and
      _logits(own, P, c), the logits when ops @ Y is P, of every class or
      of class c alone, by the same elementwise steps;
    - _backward(ops, X, pre, h, mask, dlogits), the reverse of _pass on
      the products pre (its ReLU reads pre[-1]), returning (param_grads,
      g) for a given logit gradient, and _pullback(ops, g), the gradient
      in X from that g; training reads the parameter gradients alone, so
      it runs no _pullback.
    The one forward pass, _pass, starts from pre[-1], layer 1 unshifted:
    the ReLU and dropout of it, then _layer2 (_head, then ops @ Y),
    returning (h, mask, own, P) with h the hidden activations after
    dropout, so the logits are _logits(own, P).  forward, loss_grads and
    input_grad derive from _pass and _backward (input_grad also from
    _pullback); forward_many's _chunks runs _layer1, the ReLU and _head
    per block of draws and propagates per chunk; _margin_bounds runs
    _layer1 and _layer2 on absolute values, and forward_flips runs the
    pieces itself.

    A backbone also names its operator by its entries, from the CSR index
    arrays _csr makes of _adjacency_keys: self_loops (whether its
    adjacency holds the identity),
    _scale (each node's scale from its degree), _values (each entry's value
    from the scales of its row and column nodes), descending (whether a row
    stores its columns in descending order) and _held_rows (the rows a
    flipped pair changes or reads).  _operator, the one operator builder,
    turns index arrays and node scales into CSR; build_ops and
    forward_flips run it on a whole graph and _flip_patch on the held rows
    of a group of flipped graphs, so all agree bit for bit.
    """

    backbone: str
    weight_names: tuple

    def __init__(self, **weights):
        """Raises TypeError for other weight names than weight_names, and ValueError for a b2 of other shape than (2,) (backbones are binary) or any weight whose shape does not fit weight_shapes(d, h), d from the first weight's rows and h from b1."""
        if set(weights) != set(self.weight_names):
            raise TypeError(f"{type(self).__name__} takes weights {self.weight_names}, got {tuple(weights)}")
        for name in self.weight_names:
            setattr(self, name, np.asarray(weights[name], dtype=np.float64))
        if self.b2.shape != (2,):
            raise ValueError(f"{type(self).__name__} is binary: b2 must have shape (2,), got {self.b2.shape}")
        got = {name: getattr(self, name).shape for name in self.weight_names}
        want = self.weight_shapes(*(s[0] if s else None for s in (got[self.weight_names[0]], got["b1"])))
        if got != want:
            raise ValueError(f"{type(self).__name__} weights {got} do not fit a d -> h -> 2 model, which needs {want}")
        self.fallbacks = FallbackCounts()

    @classmethod
    def weight_shapes(cls, d, hidden) -> dict:
        """Shape of every weight of a d -> hidden -> 2 model."""
        dims = {"1": (d, hidden), "2": (hidden, 2)}
        return {name: dims[name[-1]][1:] if name.startswith("b") else dims[name[-1]] for name in cls.weight_names}

    @classmethod
    def init(cls, rng, d, hidden):
        """Glorot matrices drawn in weight_names order; zero biases."""
        shapes = cls.weight_shapes(d, hidden)
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

    def _map(self, f, keep=None, head=None):
        """A copy of this model whose every weight w is f(w), f(head(w)) for layer 2's (matrices and b2) if head is given, on the hidden units keep alone if given (layer 1's columns, layer 2's matrices' rows); it shares fallbacks.

        np.take keeps a column subset C-contiguous: w[:, keep] is
        Fortran-ordered, and a block's add of such an (n, k) operand runs
        strided.
        """
        twin = copy.copy(self)
        for name in self.weight_names:
            w = getattr(self, name)
            if head is not None and name[-1] == "2":
                w = head(w)
            if keep is not None and (name[-1] == "1" or w.ndim > 1):
                w = np.take(w, keep, axis=-1 if name[-1] == "1" else 0)
            setattr(twin, name, f(w))
        return twin

    def replace(self, params):
        return type(self)(**params)

    def build_ops(self, g: Graph):
        """The propagation operator of g: _keyed_ops of _adjacency_keys(g, self_loops)."""
        return self._keyed_ops(_adjacency_keys(g, self.self_loops), g.n)

    def _keyed_ops(self, keys, n):
        """The propagation operator of the n-node adjacency whose entries have the ascending keys r n + c: _operator over their _csr."""
        indptr, indices, deg = _csr(keys, n)
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
        """(b, held, patch, offset): the operator rows that toggling the pair (u[b], v[b]) changes, for the B graphs b, from the _csr arrays of the unflipped graph's _adjacency_keys and scale = _scale(deg).

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
        _, t, k = _row_entries(indptr, ends)
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
        _, t, e = _row_entries(ptr, at_end)
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

    def _pass(self, ops, X, dropout=0.0, rng=None, pre=None):
        """(h, mask, own, P): the ReLU and dropout of pre[-1], then _layer2; see the class docstring."""
        h, mask = _relu_dropout((pre or self._pre(ops, X))[-1], dropout, rng)
        return h, mask, *self._layer2(ops, h)

    def _layer2(self, ops, h):
        """(own, P): _head's products of the hidden activations h, with Y propagated, P = ops @ Y."""
        own, Y = self._head(h)
        return own, _propagate(ops, Y)

    def forward(self, ops, X, pre=None):
        """Logits (n, C) for every node under a prebuilt operator (eval mode); pre, if given, is _pre(ops, X), which it leaves as it is."""
        return self._logits(*self._pass(ops, X, pre=pre)[2:])

    def forward_many(self, ops, X, rows, deltas, out):
        """Hard classes of B perturbations of X, X[rows] += deltas[b], deltas (B, len(rows), d), written into the (B, n) uint8 out, which it returns.

        Each draw's classes are the argmax of its float64 logits, bit for bit,
        though no (B, n, C) logits array is built.  A float32 pass filters:
        where a node-draw's float32 class margin exceeds _margin_bounds'
        bound32, the float64 logits have the same strict maximum, so the
        float32 class is their argmax.  It computes only what that test reads:
        - the one logit difference m, logit 1 minus logit 0: its twin's
          layer-2 weights and b2 are the float32 casts of W[:, 1] - W[:, 0],
          formed in float64 (_differences), and _difference_classes gives
          the class (m > 0) and the margin (|m|);
        - the hidden units keep alone, those _margin_bounds cannot prove
          negative for every node under every draw (whose ReLU gives 0 in
          float64 and float32 alike), starting from the float32 cast of
          z[:, keep], z the clean float64 pre-activation, b1 included, so
          it adds no bias;
        - per draw, the rows the noise reaches alone: those with an entry in
          cols = ops[:, rows], and rows themselves (a SAGE row moves through
          its own Ws1 shift).  _chunks runs on them through its operands:
          the operator's columns, z's rows and cols' rows at those rows.  The
          other rows' hidden activations are the draws' clean ones, so their
          whole layer-2 term (propagated, SAGE's own-row term and b2) is one
          constant per call, computed once and added to every draw.
        Every other node-draw is re-evaluated in float64 by _node_logits, on
        the kept units alone (the others are 0 in every draw) from z's kept
        columns and the CSR cols, in batches of consecutive node-draws whose
        hidden rows hold at most FORWARD_MANY_CHUNK_BYTES (a node-draw whose
        rows alone hold more is a batch of its own), and settled where that
        margin exceeds bound64.  A draw with a node still unsettled (an
        exact tie, a NaN), or whose unsettled nodes read more hidden rows
        than the draw has nodes, is rerun through _exact (on sbm-german a
        rerun draw costs about 0.27 ms and a re-evaluated hidden row about
        0.2 to 0.3 us, so n rows cost about as much as the rerun), and so
        is every draw when _margin_bounds gives no bound (a value outside
        float32's range, the deltas included, or a bound that cannot be
        trusted).  Draws are independent (each draw's dense products are
        BLAS calls of their own, and a sparse product sums each column
        alone), so a rerun gives the bits of the full float64 pass.
        self.fallbacks counts the node-draws settled by re-evaluation, the
        draws rerun, the hidden units skipped and the rows reached.
        """
        rows = np.asarray(rows, dtype=np.int64)
        pre, cols = self._pre(ops, X), ops[:, rows]
        dense = cols.toarray()
        B, n = out.shape
        reached = dense.any(axis=1)
        reached[rows] = True
        moving = np.flatnonzero(reached)
        bounds = self._margin_bounds(ops, pre, rows, deltas, dense)
        if bounds is None:
            self.fallbacks.add(0, B, 0, moving.size)
            return self._exact(ops, rows, deltas, pre, dense, out)
        bound32, bound64, keep = bounds
        f32 = methodcaller("astype", np.float32)
        twin, ops32 = self._map(f32, keep, _differences), f32(ops)
        zk = np.take(pre[-1], keep, axis=1)  # C-contiguous, as in _map
        z32 = f32(zk)
        # the rows the noise leaves alone: their layer-2 term, b2 included, with the moving rows' activations zeroed
        h = np.maximum(z32, 0.0)
        h[moving] = 0.0
        const = twin._logits(*twin._layer2(ops32, h))
        unsettled = np.empty((B, n), dtype=bool)
        # layer 1 shifts pre[-1] alone, here z32's moving rows, which hold b1
        for at, own, P in twin._chunks(ops32[:, moving], np.searchsorted(moving, rows), deltas, (z32[moving],), f32(dense[moving])):
            m = P + const
            if own is not None:
                m[:, moving] += own
            unsettled[at] = ~(_difference_classes(m, out[at]) > bound32)
        b, v = divmod(np.flatnonzero(unsettled), n)
        # the hidden rows a node-draw reads, at most its operator row's and its own; a draw whose nodes read more than it has is cheaper to rerun
        reads = np.diff(ops.indptr)[v] + 1
        exact = np.bincount(b, weights=reads, minlength=B) > n
        b, v, reads = b[~exact[b]], v[~exact[b]], reads[~exact[b]]
        settled, kept = 0, self._map(np.asarray, keep)  # float64 on the kept units: the others are 0 in every draw
        for start, stop in _groups(reads, FORWARD_MANY_CHUNK_BYTES // (8 * max(kept.h, 1))):
            bb, vv = b[start:stop], v[start:stop]
            logits = kept._node_logits(ops, zk, cols, rows, deltas, bb, vv)
            ok = np.abs(logits[:, 1] - logits[:, 0]) > bound64[vv]
            out[bb[ok], vv[ok]] = logits[ok].argmax(axis=1)
            exact[bb[~ok]] = True
            settled += int(ok.sum())
        redo = np.flatnonzero(exact)
        if redo.size:
            out[redo] = self._exact(ops, rows, deltas[redo], pre, dense, np.empty((redo.size, n), np.uint8))
        self.fallbacks.add(settled, redo.size, self.h - keep.size, moving.size)
        return out

    def _exact(self, ops, rows, deltas, pre, cols, out):
        """forward_many's float64 path: the hard classes of _chunks of draws in float64, written into out, which it returns."""
        for at, own, P in self._chunks(ops, rows, deltas, pre, cols):
            self._emit(own, P, out[at])
        return out

    def _chunks(self, ops, rows, deltas, pre, cols):
        """(at, own, P) of each chunk of draws at = slice(start, stop): _layer1, the ReLU and _layer2 of the draws deltas[at] in the weights' dtype, own (len(at), m, C) and P (len(at), N, C), over the m rows of cols (m, r) and pre[-1] and the N rows of ops (N, m).

        Layer 1 runs on the m rows that pre, cols and ops' columns hold (all
        n on the float64 path, the rows the noise reaches on forward_many's
        float32 one), rows being the perturbed rows' positions among them;
        ops propagates them to its N rows.  Two granularities, both sized by
        FORWARD_MANY_CHUNK_BYTES.  Layer 1, the ReLU and _head run per block
        of draws in one reused C-contiguous (block, m, h) buffer that stays
        in cache; each block's _head writes straight into its contiguous
        slice of the chunk's (chunk, m, C) arrays (a strided output makes a
        one-column head far slower), and one sparse product over their
        transposed (m, chunk C) copy propagates the whole chunk (_propagate).
        Memory is O(block m h + chunk (m + N) C), not O(B n h), and a float32
        pass holds twice the draws of a float64 one.  Each draw's dense
        products are BLAS calls of their own on C-contiguous operands (a
        strided h @ W2 leaves BLAS and moves the last bits), and a sparse
        product sums each column alone, so every logit equals one unchunked
        batch's bit for bit.  The ReLU runs in place against a same-shape
        C-contiguous (m, h) zero tile, built once per call: against a
        scalar, numpy's inner loop misses its contiguous fast path (38.5
        rather than 85.9 us for a float32 block of 8 draws, 780 rows and 38
        units; 29.8 against 43.9 us for a float64 block of 4; 2-core VM).
        The tile gives the scalar 0.0's bits: np.maximum returns its second
        operand on a tie, so layer 1's output stays first, and a -0.0 there
        becomes +0.0 either way.  A model of no hidden units, or a call of
        no rows, sizes its blocks and chunks as if it had one.
        """
        dtype = self.b1.dtype
        B, m = deltas.shape[0], cols.shape[0]
        block = max(1, FORWARD_MANY_CHUNK_BYTES // (dtype.itemsize * max(m, 1) * max(self.h, 1)))
        chunk = max(1, FORWARD_MANY_CHUNK_BYTES // (dtype.itemsize * max(ops.shape[0], 1) * self.C))
        buf, zero = np.empty((min(block, B), m, self.h), dtype), np.zeros((m, self.h), dtype)
        written = [a is not None for a in self._head(buf[:0])]  # which of (own, Y) _head writes
        for start in range(0, B, chunk):
            stop = min(start + chunk, B)
            heads = [np.empty((stop - start, m, self.C), dtype) if w else None for w in written]
            for first in range(start, stop, block):
                part = deltas[first : min(first + block, stop)].astype(dtype, copy=False)
                h = self._layer1(pre, cols, rows, part, buf[: len(part)])
                np.maximum(h, zero, out=h)
                self._head(h, [None if a is None else a[first - start : first - start + len(part)] for a in heads])
            own, Y = heads
            yield slice(start, stop), own, _propagate(ops, Y)

    def _margin_bounds(self, ops, pre, rows, deltas, cols):
        """(bound32, bound64, keep) for forward_many's draws, or None when no bound can be trusted.

        The float32 pass, the float64 pass and _node_logits all start from the
        same float64 z = pre[-1] (the float32 pass casts it), so each is
        measured against m, the class margin logit 1 minus logit 0 computed
        in exact arithmetic from z and the other inputs.  For node v, bound32[v] bounds |m32 - m| + |m64 - m| and
        bound64[v] bounds |m64' - m| + |m64 - m|, m32 being that margin as
        the float32 pass's one logit difference, m64 the difference of the
        float64 pass's two logits and m64' that of _node_logits'.  bound32
        is E32 + E64, evaluated in float64, E32 a bound on the float32
        difference's error and E64 one on the summed errors of the float64
        logits 1 and 0; bound64 is 2 E64.  So a margin |m32| above bound32
        (or |m64'| above bound64) has the sign of m64, and its class is
        m64's.  keep holds the hidden units the float32 pass must compute,
        ascending: every other unit is negative at every node under every
        draw, exactly and in float32.

        The bounds follow Higham (Accuracy and Stability of Numerical
        Algorithms, 2002, ch. 3): an operation rounds with relative error
        at most u (2^-24 in float32, 2^-53 in float64), so a computed sum
        of products, each carrying at most K factors (1 + delta_i), errs by
        at most gamma_K = K u / (1 - K u) times the same sum over absolute
        values.  The backbone's own layers give those sums, run on a model
        of absolute values whose 2 layer-2 columns (and b2 entries) are
        |W[:, 1]| + |W[:, 0]| beside |W[:, 1] - W[:, 0]| (_pair_columns):
        M1, _layer1 run on |z|, |weights|, the operator's |entries|,
        |cols| and D, the elementwise max of |deltas| over the draws, bounds
        |z1| of every draw (layer 1 is monotone in each operand), and M,
        _layer2 and _logits run on M1 through the sum |W[:, 1]| + |W[:, 0]|
        over the kept units alone (see below), bounds the terms of the
        logits 1 and 0 together, and so those of their difference, no
        larger.  Counting factors per product:
        - layer 1, K1 = d + r_u + 7 at row u, r_u <= r the nonzero entries
          of u's row of cols: a shift term takes 3 casts to float32 (cols,
          deltas and a weight), d + r_u in the nested dot products (deltas
          times a weight, then u's row of cols, whose zero entries give
          exact 0 products that round nothing), at most 2 additions
          (onto the cast z; SAGE: also the own-row shift) and 2 shared
          with layer 2: the subtraction that forms the margin and the
          bound's own evaluation in float64 (its relative error, near
          gamma in float64, is far below one float32 u).  A term of z,
          b1's included, takes its cast, the same additions and the
          shared 2, at most 5;
        - layer 2, K2 = k + R_v + 8 for node v, k the kept units: 3
          roundings of its factors (the operator's cast; a weight
          difference's float64 subtraction and its cast), k + R_v in the
          nested dot products (k times a weight, then v's operator row of
          R_v entries, split between the rows the noise reaches and the
          constant), 3 additions (own term, b2, and the constant onto the
          reached rows' sum) and the same 2.
        So the float32 pre-activation errs by at most e1 = gamma_K1 M1,
        row by row.
        Every draw's z1 is at most U = z + S, S the backbone's
        _shift_bound: |cols| times T = max_b |deltas[b] W|, the largest
        product of any draw's deltas and a layer-1 weight (one (B r, d)
        product per weight), a draw's shift being a sum of such products
        weighted by its operator entries.  T is far tighter than D |W|,
        which M1 uses, since it keeps each draw's cancellation; that is
        also why e1 cannot use it, as e1 bounds roundings of the terms
        themselves.  Where U + 2 e1 <= 0 both the exact and the float32
        unit are negative: one e1 covers the float32 error, the other the
        float64 roundings of z, T (at most gamma_d D |W|, in float64) and
        U, which are far below e1.  There the ReLU makes both 0 and passes
        on no error; elsewhere it passes on at most e1 (it is 1-Lipschitz),
        and both hidden units lie in [0, H], H = max(U + 2 e1, 0).  A unit
        with U + 2 e1 <= 0 at every node is 0 in every draw, exactly and in
        float32, so the float32 pass skips it; keep is the rest.  So E32 is
        layer 2 on |W[:, 1] - W[:, 0]| without biases run on that passed-on
        error, plus gamma_K2 times layer 2 on that column run on H.  The
        float64 pass and _node_logits cast nothing and have the same
        dot-product lengths, so E64 = gamma_(K1 + K2) M, K1 = d + r + 7
        there, its largest.

        Kept units.  A dead unit is an exact 0 wherever it is computed: the
        float32 pass skips it, and in the float64 pass (and _node_logits,
        which forward_many runs on the kept units alone) its pre-activation
        is negative, its float64 roundings being far below e1, so its ReLU
        gives 0.  Its product with a layer-2 weight is an exact 0, and
        adding an exact 0 rounds nothing, so in any summation order a
        term of a layer-2 dot product over hidden units passes through at
        most one rounding per other kept unit: K2 counts k = keep.size, not
        h, and so does N2, and M, w2 and the check on _head's products
        read the kept units alone.

        Evaluation order.  M1, then 2 e1 (exactly twice e1: doubling gamma
        and the absolute term doubles each rounded result, and halving it
        back is exact), then U + 2 e1 are written in place into one (3, n,
        h) stack, and keep is read from the last.  The stack then becomes
        M1, e1 where U + 2 e1 > 0 (else 0) and H, and one _layer2 call on it
        gives M, the error term and gamma_K2's operand, through layer-2
        weights stacked per slice: the sum on M1, the difference on the
        other two, b2's likewise (none on the error), and 0 in every dead
        unit's rows.

        Absolute term: a product or sum that underflows errs by at most
        2^-126 (float32) or 2^-1022 (float64) absolutely, flushed to zero
        or not.  Summed over every such operation feeding one value,
        weighted by that value's sensitivity to its result, layer 1 adds
        N1 = 2 + 2 r + 2 d (1 + a) units to e1 and layer 2 adds N2 = 2 k
        (1 + a) + 2 R + 4 to a logit, R the longest operator row and a the
        largest operator row sum (z's cast among layer 1's); so E64 adds
        N = (1 + a) w2 N1 + N2 units per logit, twice for its two, w2 the
        largest layer-2 column sum of the absolute-value model.  Each term
        is doubled, for the relative factors it passes through.  A cast
        rounds with relative error alone only for magnitudes in [2^-126,
        F32_LIMIT], so the bounds are None unless z (the one entry of pre
        any pass reads), the absolute-value model's weights (layer 1's, and
        the sums and differences of layer 2's), the operator's entries and
        the deltas lie there (or are 0).  They are also None if any magnitude
        the float32 pass can reach exceeds F32_LIMIT, since it would
        overflow (NaN and inf fail these checks too): M1 (its column
        maxima), M (its sums bound the differences), layer 1's delta
        products, bounded by D @ |W|, and _head's products, bounded by M1's
        column maxima times the kept units' sum columns.  Each range check
        is two reductions (_f32_fits).  And they are None if rows repeat a
        node.
        """
        absm, mag, z, data = self._map(np.abs, head=_pair_columns), np.abs(deltas), pre[-1], np.abs(ops.data)
        az = np.abs(z)
        small = np.concatenate([data, *(w.ravel() for w in absm.params().values())])
        if np.unique(rows).size < rows.size or not all(map(_f32_fits, (az, small, mag))):
            return None
        D = mag.max(axis=0, initial=0.0)
        (r, d), h, n = D.shape, self.h, ops.shape[0]
        R = np.diff(ops.indptr)
        K1 = d + r + 7
        if (K1 + h + 8 + R).max(initial=K1) * 2.0**-24 >= 0.5:
            return None
        A = sparse.csr_matrix((data, ops.indices, ops.indptr), shape=ops.shape)  # |ops| on ops' index arrays
        a = float((A @ np.ones(n)).max(initial=0.0))
        acols = np.abs(cols)
        # M1, then twice e1, then G = U + 2 e1, in place in one (3, n, h) array: layer 2's operand
        full = np.empty((3, n, h))
        M1 = absm._layer1((az,), acols, rows, D[None], full[:1])[0]
        N1 = 2 + 2 * r + 2 * d * (1 + a)

        def gamma(K, u):
            return K * u / (1 - K * u)

        # 2 e1 exactly, K1 row by row: doubling gamma and the absolute term doubles each rounded result
        K1u = d + 7 + np.count_nonzero(cols, axis=1)[:, None]
        e2 = np.multiply(M1, 2 * gamma(K1u, 2.0**-24), out=full[1])
        e2 += 4 * 2.0**-126 * N1
        G = np.add(z, self._shift_bound(acols, rows, deltas), out=full[2])
        G += e2
        keep = np.flatnonzero(~(G <= 0.0).all(axis=0))
        e2 *= (G > 0.0) * 0.5  # the passed-on error e1 where G > 0
        np.maximum(G, 0.0, out=G)  # H
        live = np.zeros((h, 1))
        live[keep] = 1.0

        def slices(w):
            """Layer 2's weights per slice of the stack: the pair columns w's sum on M1 and difference on e1 and H, 0 in the dead units' rows; b2 likewise, none on e1."""
            if w.ndim == 1:
                return np.stack([w[:1], np.zeros(1), w[1:]])[:, None]
            return np.stack([w[:, :1], w[:, 1:], w[:, 1:]]) * live

        kept = absm._map(np.asarray, head=slices)
        M, E, L = kept._logits(*kept._layer2(A, full))
        W1s = [w for name, w in absm.params().items() if name[0] == "W" and name[-1] == "1"]
        W2s = [w[0] for name, w in kept.params().items() if name[0] == "W" and name[-1] == "2"]
        top = M1.max(axis=0, initial=0.0)
        reach = (top, M, *(D @ w for w in W1s), *(top @ w for w in W2s))
        if not all(p.max(initial=0.0) <= F32_LIMIT for p in reach):
            return None
        w2 = max(w.sum(axis=0).max(initial=0.0) for w in W2s)
        K2, N2 = (keep.size + 8 + R)[:, None], 2 * keep.size * (1 + a) + 2 * R.max(initial=0) + 4
        E32 = E + gamma(K2, 2.0**-24) * L + 2 * 2.0**-126 * N2
        E64 = gamma(K1 + K2, 2.0**-53) * M + 4 * 2.0**-1022 * ((1 + a) * w2 * N1 + N2)

        return (E32 + E64)[:, 0], 2 * E64[:, 0], keep

    def _node_logits(self, ops, z, cols, rows, deltas, b, v):
        """float64 logits (len(v), C) of node v[i] under the draw X[rows] += deltas[b[i]], from z, layer 1's clean pre-activation pre[-1], and cols = ops[:, rows] as CSR.

        They read the hidden rows of v[i]'s operator row's columns (the
        propagated term) and, where _head has an own term (SAGE), of v[i]
        itself, whose pre-activations the backbone's _hidden_at hook gives
        from z and cols, for the distinct draws of b alone.  Rows are
        gathered from the operator's and cols' CSR index arrays, never sliced
        as matrices, and each sparse product builds its CSR from them.  The
        arithmetic is not a full pass's, so the bits may differ, but every
        dot product has the same length, which _margin_bounds' float64 bound
        needs.
        """
        draws, b = np.unique(b, return_inverse=True)
        ptr, i, at = _row_entries(ops.indptr, v)
        k, kb = ops.indices[at], b[i]  # the node and draw of each hidden row
        own = self._head(z[:0])[0] is not None
        if own:  # v's own rows follow the operator rows' entries
            k, kb = np.concatenate([k, v]), np.concatenate([kb, b])
        h = self._hidden_at(z, cols, rows, deltas[draws], kb, k)
        np.maximum(h, 0.0, out=h)
        # layer 2 as (ops h) W rather than ops (h W): the same dot-product lengths, and BLAS sees len(v) rows, not one per entry
        P = self._head(sparse.csr_matrix((ops.data[at], np.arange(at.size), ptr), shape=(v.size, k.size)) @ h)[1]
        return self._logits(self._head(h[at.size :])[0] if own else None, P)

    def _emit(self, own, P, out):
        """Write the hard classes of the logits _logits(own, P) into the uint8 out: each class's logits from its own strided view, then _first_max."""
        _first_max(self._logits(own, P, 0), self._logits(own, P, 1), out)

    def forward_flips(self, g: Graph, X, pairs, out, rows=None):
        """Hard classes at the nodes rows (default all n) of the B graphs g.flip(pairs[b:b + 1]), pairs (B, 2), written into the (B, len(rows)) uint8 out, which it returns (eval mode).

        out[b] is the argmax of forward(build_ops(g.flip(pairs[b:b + 1])),
        X)[rows], whose logits the flip groups compute bit for bit; a pair
        outside 0 <= u < v < n raises DataError, as Graph.flip does, and a
        row that is not a node id in [0, n) ValueError (node_ids).  The clean
        pass runs once, then the flips run in _groups whose _flip_charges
        sum to at most FORWARD_FLIPS_GROUP_BYTES.  Per group, one _flip_patch
        call gives the operator rows each flip changes, through build_ops's
        builder, as one CSR over the group's stacked columns; its twin over the
        graph's columns gives their layer-1 products in one sparse product, and
        the backbone's _flip_hidden hook their hidden activations in one call.
        Each flip swaps its rows into a reused clean hidden array, runs _head
        full-shape into the group's (B, n, C) arrays and restores the rows: a
        row of a BLAS product depends on its position, so only full-shape dense
        products match the clean pass in the rows a flip leaves alone.  Layer 2
        then propagates over the rows alone: one sparse product of ops[rows],
        the clean pass's operator restricted to rows (each of its rows sums the
        same stored entries in the same order as in the full operator), and
        one of the patch, whose rows overwrite the held rows that are among
        rows; one _emit call writes the group's classes.
        """
        pairs = pair_array(pairs, g.n)
        n = g.n
        rows = np.arange(n) if rows is None else node_ids(rows, n, "rows")
        indptr, indices, deg = adjacency = _csr(_adjacency_keys(g, self.self_loops), n)
        scale = self._scale(deg)
        ops = self._operator(indptr, indices, scale)
        pre = self._pre(ops, X)
        h_clean = np.maximum(pre[-1], 0.0)
        h = h_clean.copy()  # work array, clean again after every candidate
        scored = ops[rows]
        # node j is scored at the positions order[found[j]:found[j + 1]] of rows
        order = np.argsort(rows, kind="stable")
        found = np.searchsorted(rows[order], np.arange(n + 1))
        for start, stop in _groups(self._flip_charges(*adjacency, pairs), FORWARD_FLIPS_GROUP_BYTES):
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
            _, i, k = _row_entries(found, held)  # held row i is scored at position order[k]
            P[b[i], order[k]] = (patch @ Y.reshape(-1, self.C))[i]
            self._emit(own, P, out[start:stop])
        return out

    def loss_grads(self, ops, X, y, train_idx, dropout=0.0, rng=None, pre=None):
        """(loss, param_grads): mean cross entropy on train_idx and its gradients in the weights; pre, if given, is _pre(ops, X), which it leaves as it is."""
        pre = pre or self._pre(ops, X)
        h, mask, own, P = self._pass(ops, X, dropout, rng, pre=pre)
        loss, dlogits = _cross_entropy(self._logits(own, P), y, train_idx)
        return loss, self._backward(ops, X, pre, h, mask, dlogits)[0]

    def input_grad(self, ops, X, dlogits):
        """Backpropagate an arbitrary logit gradient to the inputs (eval mode)."""
        pre = self._pre(ops, X)
        h, mask = self._pass(ops, X, pre=pre)[:2]
        return self._pullback(ops, self._backward(ops, X, pre, h, mask, dlogits)[1])


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
        _, i, k = _row_entries(indptr, x)
        return i, indices[k]

    def _pre(self, ops, X):
        """(X W1, A_hat X W1 + b1), b1 added in place into the sparse product."""
        XW = X @ self.W1
        Z = ops @ XW
        Z += self.b1
        return XW, Z

    def _hidden_at(self, z, cols, rows, deltas, b, k):
        """Layer 1's pre-activation at node k[e] under draw deltas[b[e]], for every entry e: cols (delta W1) + z, z = A_hat X W1 + b1 (pre[-1]) and cols a CSR."""
        z1 = _shift_at(cols, k, deltas, self.W1, b)
        z1 += z[k]
        return z1

    def _flip_hidden(self, pre, SR, held, cuts):
        """np.maximum(SR + b1, 0.0), in place: a GCN's layer-1 rows are row-local."""
        SR += self.b1
        return np.maximum(SR, 0.0, out=SR)

    def _head(self, h, out=(None, None)):
        return None, np.matmul(h, self.W2, out=out[1])

    def _logits(self, own, P, c=slice(None)):
        return P[..., c] + self.b2[c]

    def _layer1(self, pre, cols, rows, deltas, out):
        """A_hat X W1 + b1 (pre[-1]), shifted by the deltas."""
        return _shifted(pre[-1], cols, deltas, self.W1, out)

    def _shift_bound(self, cols, rows, deltas):
        """|cols| @ max_b |deltas[b] @ W1|, cols = |ops[:, rows]|."""
        return cols @ _max_shift(deltas, self.W1)

    def _backward(self, ops, X, pre, h, mask, dlogits):
        """(param_grads, A_hat dz1), the latter the gradient in X W1."""
        ag2 = ops @ dlogits  # A_hat is symmetric, so A_hat^T g = A_hat g
        grads = {"W2": h.T @ ag2, "b2": dlogits.sum(axis=0)}
        dz1 = _relu_dropout_grad(ag2 @ self.W2.T, pre[-1], mask)
        adz1 = ops @ dz1
        grads["W1"] = X.T @ adz1
        grads["b1"] = dz1.sum(axis=0)
        return grads, adz1

    def _pullback(self, ops, adz1):
        """dX from the gradient adz1 in X W1."""
        return adz1 @ self.W1.T


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
        """Layer 1's pre-activation in rows when M X is Q."""
        return pre[2][rows] + (Q @ self.Wn1)[rows] + self.b1

    def _hidden_at(self, z, cols, rows, deltas, b, k):
        """Layer 1's pre-activation at node k[e] under draw deltas[b[e]], for every entry e: cols (delta Wn1) + z, z = pre[3], plus delta Ws1 where k[e] is a perturbed row; cols a CSR."""
        z1 = _shift_at(cols, k, deltas, self.Wn1, b)
        z1 += z[k]
        j = np.full(z.shape[0], -1)
        j[rows] = np.arange(rows.size)
        e = np.flatnonzero(j[k] >= 0)  # the entries at perturbed rows
        z1[e] += deltas[b[e], j[k[e]]] @ self.Ws1
        return z1

    def _flip_hidden(self, pre, SR, held, cuts):
        """Each flip's hidden rows from its own full-shape (M X) Wn1, whose rows depend on their position: flip c swaps its rows SR[cuts[c]:cuts[c + 1]] into a copy of M X."""
        Q, H = pre[1].copy(), np.empty((held.size, self.h))
        for c in range(cuts.size - 1):
            at = slice(cuts[c], cuts[c + 1])
            Q[held[at]] = SR[at]
            H[at] = np.maximum(self._hidden_rows(pre, Q, held[at]), 0.0)
            Q[held[at]] = pre[1][held[at]]
        return H

    def _head(self, h, out=(None, None)):
        return np.matmul(h, self.Ws2, out=out[0]), np.matmul(h, self.Wn2, out=out[1])

    def _logits(self, own, P, c=slice(None)):
        return own[..., c] + P[..., c] + self.b2[c]

    def _layer1(self, pre, cols, rows, deltas, out):
        """X Ws1 + (M X) Wn1 + b1 (pre[-1]), shifted by the deltas through Wn1 and, in the perturbed rows, Ws1."""
        z1 = _shifted(pre[-1], cols, deltas, self.Wn1, out)
        z1[:, rows] += deltas @ self.Ws1
        return z1

    def _shift_bound(self, cols, rows, deltas):
        """|cols| @ max_b |deltas[b] @ Wn1|, cols = |ops[:, rows]|, plus max_b |deltas[b] @ Ws1| in the perturbed rows."""
        S = cols @ _max_shift(deltas, self.Wn1)
        S[rows] += _max_shift(deltas, self.Ws1)
        return S

    def _backward(self, ops, X, pre, h, mask, dlogits):
        grads = {"Ws2": h.T @ dlogits, "Wn2": (ops @ h).T @ dlogits, "b2": dlogits.sum(axis=0)}
        dz1 = _relu_dropout_grad(dlogits @ self.Ws2.T + (ops.T @ dlogits) @ self.Wn2.T, pre[-1], mask)
        grads["Ws1"] = X.T @ dz1
        grads["Wn1"] = pre[1].T @ dz1  # pre[1] is M X
        grads["b1"] = dz1.sum(axis=0)
        return grads, dz1

    def _pullback(self, ops, dz1):
        """dX from the gradient dz1 in layer 1's pre-activation."""
        return dz1 @ self.Ws1.T + (ops.T @ dz1) @ self.Wn1.T


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

    Each epoch computes only what its results read, with the bits of a
    fresh pass per step.  The validation pass after a step runs _pre, layer
    1's products, on the clean graph with the weights the next step trains,
    so a step on the clean graph and attributes (no augmentation) reuses
    them: with a validation split, _pre runs epochs + 1 times, not 2 epochs
    + 1.  The loss reads the training rows' logits alone, and a step
    computes no gradient in X (loss_grads runs no _pullback).  An augmented
    epoch's operator comes from the clean graph's adjacency keys with the
    flipped pairs toggled in place (_toggled), not from a flipped Graph
    sorted anew.
    """
    rng = substream(cfg.seed, DOMAIN_TRAIN, 0)
    model = BACKBONES[backbone].init(rng, d=X.shape[1], hidden=cfg.hidden)
    y = labels.y
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    keys = _adjacency_keys(g, model.self_loops)
    clean_ops = model._keyed_ops(keys, g.n)
    vul = vulnerable_ids(split.vulnerable, g.n) if (augment and split.vulnerable) else None
    pairs = None if vul is None else eligible_pairs(g.n, vul)

    def validate(m):
        """(validation accuracy, pre): m's accuracy on the clean graph and the layer-1 products _pre it ran on."""
        pre = m._pre(clean_ops, X)
        logits = m.forward(clean_ops, X, pre)
        return float((logits[val_idx].argmax(axis=1) == y[val_idx]).mean()), pre

    best = {k: v.copy() for k, v in model.params().items()}
    best_acc, pre = validate(model) if val_idx.size else (-1.0, None)
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}
    for epoch in range(cfg.epochs):
        ops, Xe = clean_ops, X
        if pairs is not None:
            flip = rng.random(pairs.shape[0]) < cfg.train_noise_flip_prob
            if flip.any():
                ops = model._keyed_ops(_toggled(keys, g.n, pairs[flip]), g.n)
            Xe = np.array(X, copy=True)
            Xe[vul] += cfg.train_noise_std * rng.standard_normal((vul.size, X.shape[1]))
        loss, grads = model.loss_grads(ops, Xe, y, train_idx, dropout=cfg.dropout, rng=rng, pre=None if pairs is not None else pre)
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
            acc, pre = validate(model)
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
    backbone or other than 2 classes, or holds weights whose names or shapes
    do not fit its meta.
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
    if meta.get("classes") != 2:
        raise DataError(f"{path}: backbones are binary, but its meta says {meta.get('classes')!r} classes")
    want = cls.weight_shapes(meta.get("d"), meta.get("hidden"))
    got = {k: v.shape for k, v in weights.items()}
    if got != want:
        raise DataError(f"{path}: weights {got} do not match its {cls.backbone} meta, which needs {want}")
    return cls(**weights)
