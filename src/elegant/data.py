"""Graph, label, and split containers plus dataset loading.

A graph is its node count n plus one sorted, duplicate-free (m, 2) int64
edge array whose rows (u, v) satisfy u < v; every layer reads that array
and flips node pairs through `Graph.flip`, a set XOR on the linear keys
u * n + v.  `Graph.edges` derives a frozenset of (u, v) tuples on demand
for callers that want set semantics.  Attribute matrices are plain float64
numpy arrays of shape (n, d).  Edge files may list each pair in both
directions (the common export format for directed adjacency dumps);
loading collapses each such pair into one edge without a warning.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .fairness import integral_ids
from .smoothing import DOMAIN_SPLIT, DOMAIN_TESTSET, _rekeyed, substream

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


def pair_array(pairs, n: int) -> np.ndarray:
    """pairs (any iterable of pairs or an (m, 2) integer array) as a new int64 (m, 2) array.

    Raises DataError for an endpoint that is not an integer (a fraction,
    NaN or inf: fairness.integral_ids), a wrong shape or the first row
    outside 0 <= u < v < n.
    """
    try:
        e = integral_ids(pairs, "edge endpoints")
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise DataError(f"edges must form an (m, 2) array, got shape {e.shape}")
    bad = (e[:, 0] < 0) | (e[:, 0] >= e[:, 1]) | (e[:, 1] >= n)
    if bad.any():
        u, v = e[np.argmax(bad)]
        raise DataError(f"edge ({u}, {v}) violates 0 <= u < v < {n}")
    return e


class Graph:
    """Undirected graph on nodes 0..n-1 with canonical (u < v) edge rows.

    edges may be any iterable of pairs or an (m, 2) integer array, in any
    row order; rows are stored sorted by (u, v).  An n that is not a
    positive integer (a fraction, NaN or inf included), rows with u >= v,
    ids outside 0..n-1, duplicate rows and a wrong shape raise DataError.
    """

    __slots__ = ("n", "_edges")

    def __init__(self, n: int, edges=()):
        if not float(n).is_integer():
            raise DataError(f"graph needs an integer node count, got n={n}")
        if n < 1:
            raise DataError(f"graph needs at least one node, got n={n}")
        n = int(n)
        e = pair_array(edges, n)
        keys = e[:, 0] * n + e[:, 1]
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            e, keys = e[order], keys[order]
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if dup.size:
                u, v = e[dup[0]]
                raise DataError(f"duplicate edge ({u}, {v})")
        e.flags.writeable = False
        self.n = n
        self._edges = e

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, n_edges={self.n_edges})"

    @property
    def n_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def edges(self) -> frozenset:
        """Read-only set view: the edge rows as (u, v) tuples of Python ints."""
        return frozenset(map(tuple, self._edges.tolist()))

    def edge_array(self) -> np.ndarray:
        """Edges as the stored sorted, read-only (m, 2) int64 array."""
        return self._edges

    def flip(self, pairs) -> "Graph":
        """Toggle node pairs: present edges drop, absent ones appear.

        pairs takes the same forms as the constructor's edges and must be
        canonical and duplicate-free too.  Flipping the same pairs twice
        restores the graph.
        """
        keys = np.setxor1d(self._keys(), Graph(self.n, pairs)._keys(), assume_unique=True)
        return Graph(self.n, np.column_stack((keys // self.n, keys % self.n)))

    def _keys(self) -> np.ndarray:
        return self._edges[:, 0] * self.n + self._edges[:, 1]


@dataclass(frozen=True)
class NodeLabels:
    """Binary task labels y and binary sensitive attributes s, both (n,) int arrays."""

    y: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        s = np.asarray(self.s, dtype=np.int64)
        if y.shape != s.shape or y.ndim != 1:
            raise DataError(f"label arrays must be equal-length vectors, got {y.shape} and {s.shape}")
        if not (np.isin(y, (0, 1)).all() and np.isin(s, (0, 1)).all()):
            raise DataError("labels and sensitive attributes must be binary")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint node index sets; vulnerable is a subset of test_pool."""

    train: tuple
    validation: tuple
    test_pool: tuple
    vulnerable: tuple

    def __post_init__(self):
        tr, va, po = set(self.train), set(self.validation), set(self.test_pool)
        if tr & va or tr & po or va & po:
            raise DataError("train/validation/test_pool must be disjoint")
        if not set(self.vulnerable) <= po:
            raise DataError("vulnerable nodes must lie in the test pool")
        object.__setattr__(self, "train", tuple(sorted(self.train)))
        object.__setattr__(self, "validation", tuple(sorted(self.validation)))
        object.__setattr__(self, "test_pool", tuple(sorted(self.test_pool)))
        object.__setattr__(self, "vulnerable", tuple(sorted(self.vulnerable)))


def _open_rows(path):
    with open(path, newline="") as fh:
        sniff = fh.read(4096)
        fh.seek(0)
        delim = "," if "," in next(iter(sniff.splitlines()), "") else None
        if delim:
            yield from csv.reader(fh)
        else:
            for line in fh:
                yield line.split()


def _is_header(row) -> bool:
    try:
        float(row[0])
        return False
    except ValueError:
        return True


def load_dataset(edge_file: str, attribute_file: str, label_file: str):
    """Load an attributed, labeled graph from three text files.

    label_file: CSV rows node_id,label,sensitive (optional header); node ids
    must be exactly 0..n-1.  attribute_file: CSV with n rows of d finite
    floats (optional header); nan or inf raises.  edge_file: one pair per
    line, whitespace or comma separated; self loops and repeated listings
    of a pair are dropped with a warning that counts them, a pair listed
    as both u v and v u is one undirected edge (logged at DEBUG), and
    out-of-range endpoints raise.

    Returns (Graph, X, NodeLabels) with X float64 of shape (n, d).
    """
    rows = [r for r in _open_rows(label_file) if r]
    if not rows:
        raise DataError(f"{label_file}: no label rows")
    if _is_header(rows[0]):
        rows = rows[1:]
    try:
        triples = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
    except (ValueError, IndexError) as exc:
        raise DataError(f"{label_file}: expected rows of node_id,label,sensitive ({exc})") from exc
    n = len(triples)
    ids = sorted(t[0] for t in triples)
    if ids != list(range(n)):
        raise DataError(f"{label_file}: node ids must be exactly 0..{n - 1}")
    y = np.zeros(n, dtype=np.int64)
    s = np.zeros(n, dtype=np.int64)
    for node, label, sens in triples:
        y[node] = label
        s[node] = sens
    labels = NodeLabels(y=y, s=s)

    rows = [r for r in _open_rows(attribute_file) if r]
    if rows and _is_header(rows[0]):
        rows = rows[1:]
    if len(rows) != n:
        raise DataError(f"{attribute_file}: expected {n} attribute rows, got {len(rows)}")
    ragged = next((i for i, r in enumerate(rows) if len(r) != len(rows[0])), None)
    if ragged is not None:
        raise DataError(f"{attribute_file}: ragged attribute rows: the row of node {ragged} has {len(rows[ragged])} values, the first row {len(rows[0])}")
    try:
        X = np.array([[float(v) for v in r] for r in rows], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{attribute_file}: non-numeric attribute value ({exc})") from exc
    bad_rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad_rows.size:
        raise DataError(f"{attribute_file}: non-finite attribute value (nan or inf) in the row of node {bad_rows[0]}")

    pairs = []
    dropped_loops = 0
    with open(edge_file) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DataError(f"{edge_file}:{lineno}: expected two endpoints, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataError(f"{edge_file}:{lineno}: non-integer endpoint in {line!r}") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise DataError(f"{edge_file}:{lineno}: endpoint out of range for n={n}")
            if u == v:
                dropped_loops += 1
                continue
            pairs.append((u, v))
    listed = np.unique(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=0)
    edges = np.unique(np.sort(listed, axis=1), axis=0)
    repeated, mirrored = len(pairs) - len(listed), len(listed) - len(edges)
    if dropped_loops:
        logger.warning("%s: dropped %d self loops", edge_file, dropped_loops)
    if repeated:
        logger.warning("%s: dropped %d repeated listings of a pair", edge_file, repeated)
    if mirrored:
        logger.debug("%s: %d pairs listed in both directions, each one undirected edge", edge_file, mirrored)
    return Graph(n, edges), X, labels


def normalize_attributes(X: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1]; constant columns become 0."""
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    out = np.zeros_like(X)
    nz = span > 0
    out[:, nz] = (X[:, nz] - lo[nz]) / span[nz]
    return out


def make_splits(g: Graph, seed: int, train_frac: float = 0.3, val_frac: float = 0.45, vul_frac: float = 0.05) -> SplitSpec:
    """Random node splits plus a vulnerable subset of the test pool.

    Sizes are round(frac * n) for train and validation; the pool is the
    rest.  The vulnerable set holds round(vul_frac * |pool|) pool nodes.
    Both draws run on dedicated substreams of the seed, so split identity
    depends only on (g.n, seed, fractions).  Raises DataError naming a
    non-finite train_frac or val_frac, or fractions out of range.
    """
    for name, frac in (("train_frac", train_frac), ("val_frac", val_frac)):
        if not np.isfinite(frac):
            raise DataError(f"{name} must be finite, got {frac}")
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac >= 1:
        raise DataError(f"train_frac + val_frac must stay below 1, got {train_frac} + {val_frac}")
    if not 0 <= vul_frac <= 1:
        raise DataError(f"vul_frac must lie in [0, 1], got {vul_frac}")
    n = g.n
    n_train = round(train_frac * n)
    n_val = round(val_frac * n)
    perm = substream(seed, DOMAIN_SPLIT, 0).permutation(n)
    train = perm[:n_train]
    val = perm[n_train : n_train + n_val]
    pool = perm[n_train + n_val :]
    if pool.size == 0:
        raise DataError("empty test pool; lower train_frac or val_frac")
    n_vul = round(vul_frac * pool.size)
    vul = substream(seed, DOMAIN_SPLIT, 1).choice(np.sort(pool), size=n_vul, replace=False)
    return SplitSpec(
        train=tuple(int(i) for i in train),
        validation=tuple(int(i) for i in val),
        test_pool=tuple(int(i) for i in pool),
        vulnerable=tuple(int(i) for i in vul),
    )


def sample_test_sets(split: SplitSpec, ratio: float, count: int, seed: int, include=()) -> np.ndarray:
    """Sample `count` test sets of size round(ratio * |pool|) from the pool.

    Returns a read-only (count, size) int64 matrix whose row j, sorted,
    is set j.  Draws are uniform without replacement on a per-set
    substream, read through one re-keyed generator rather than a new one
    per set.  When `include` is nonempty those nodes are forced into every
    set and only the remainder is drawn, keeping the total size unchanged.
    Raises DataError naming an include id that is not an integer (a
    fraction, NaN or inf: fairness.integral_ids).
    """
    if not 0 < ratio <= 1:
        raise DataError(f"ratio must lie in (0, 1], got {ratio}")
    if count < 1:
        raise DataError(f"count must be positive, got {count}")
    pool = np.array(split.test_pool, dtype=np.int64)
    try:
        include = tuple(sorted(set(integral_ids(include, "include nodes").tolist())))
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if not set(include) <= set(split.test_pool):
        raise DataError("include nodes must lie in the test pool")
    size = round(ratio * pool.size)
    if size < 1:
        raise DataError(f"ratio {ratio} yields empty test sets for pool of {pool.size}")
    if len(include) > size:
        raise DataError(f"cannot force {len(include)} nodes into test sets of size {size}")
    rest = pool[~np.isin(pool, include)]  # in pool order, which the seeded draws index into
    drawn = size - len(include)
    sets = np.empty((count, size), dtype=np.int64)
    sets[:, drawn:] = include
    for j in range(count):
        sets[j, :drawn] = _rekeyed(seed, DOMAIN_TESTSET, j).choice(rest, size=drawn, replace=False)
    sets.sort(axis=1)
    sets.flags.writeable = False
    return sets
