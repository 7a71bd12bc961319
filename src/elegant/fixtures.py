"""Deterministic synthetic datasets for tests and demos.

A two-block stochastic block model over the task label, with a sensitive
attribute correlated to the label and attribute columns that leak a weak
amount of both.  Parameters below are tuned so that the standard credit-
scoring regime is reproduced at n = 1000: a two-layer GCN lands around 60%
accuracy with a statistical parity gap of roughly 0.2 to 0.4.

make_sbm draws the n(n - 1)/2 candidate pairs EDGE_BLOCK at a time, so
its memory is O(edges + EDGE_BLOCK), not O(n^2): at sbm-german's mean
degree and n = 10,000 its tracemalloc peak is 9.0 MiB, of which the
graph, X and labels it returns are 3.9 MiB (an all-pairs draw peaks at
1,574 MiB).  Its time still grows as n^2, one uniform per candidate pair:
about 0.9 s at n = 10,000 on a 2-core VM.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

from .data import Graph, NodeLabels
from .smoothing import DOMAIN_PROBE, substream

# candidate pairs whose uniforms one step of make_sbm's edge draw holds
EDGE_BLOCK = 1 << 16


def _draw_edges(rng: np.random.Generator, y: np.ndarray, p_in: float, p_out: float) -> np.ndarray:
    """Edges (u, v), u < v, of the SBM over labels y, in row-major order.

    Walks the upper-triangle pairs EDGE_BLOCK at a time and keeps pair
    (u, v) when its uniform falls below p_in (y[u] == y[v]) or p_out.  The
    blocks continue one rng.random stream, so the edges, and the stream
    position left behind, are those of one draw over all n(n - 1)/2 pairs.
    """
    n = y.size
    rows = np.arange(n + 1)
    starts = rows * (2 * n - rows - 1) // 2  # flat position of pair (u, u + 1); starts[n] is the pair count
    parts = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, starts[n], EDGE_BLOCK):
        hi = min(lo + EDGE_BLOCK, starts[n])
        first, last = np.searchsorted(starts, (lo, hi - 1), side="right") - 1
        cut = np.clip(starts[first : last + 2], lo, hi)  # the block's share of each row it meets
        u = np.repeat(rows[first : last + 1], np.diff(cut))
        v = np.arange(lo, hi) - starts[u] + u + 1
        keep = rng.random(hi - lo) < np.where(y[u] == y[v], p_in, p_out)
        parts.append(np.column_stack((u[keep], v[keep])))
    return np.concatenate(parts)


def make_sbm(
    n: int,
    d: int,
    seed: int,
    p_in: float,
    p_out: float,
    p_s_given_y1: float = 0.65,
    p_s_given_y0: float = 0.35,
    signal_cols: int = 3,
    signal_shift: float = 0.3,
    leak_cols: int = 2,
    leak_shift: float = 0.4,
    label_noise: float = 0.0,
):
    """Two-block SBM with label-correlated sensitive attribute.

    Half the nodes carry a clean label 1; within-block pairs connect with
    p_in, cross-block with p_out.  signal_cols attribute columns shift with
    the clean label, leak_cols with the sensitive attribute, the rest are
    pure noise.  label_noise flips that fraction of the emitted task
    labels, capping reachable accuracy the way noisy real-world targets do
    while the planted structure stays intact.

    Returns (Graph, X, NodeLabels).  A non-integer n, or a probability
    outside [0, 1] (NaN included), raises ValueError.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    for name, value in (("p_in", p_in), ("p_out", p_out), ("p_s_given_y1", p_s_given_y1), ("p_s_given_y0", p_s_given_y0)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if signal_cols + leak_cols > d:
        raise ValueError("more signal/leak columns than attribute dimensions")
    if not 0 <= label_noise < 0.5:
        raise ValueError(f"label_noise must lie in [0, 1/2), got {label_noise}")
    rng = substream(seed, DOMAIN_PROBE, 0)
    y_clean = np.zeros(n, dtype=np.int64)
    y_clean[rng.permutation(n)[: n // 2]] = 1
    s = np.where(y_clean == 1, rng.random(n) < p_s_given_y1, rng.random(n) < p_s_given_y0).astype(np.int64)

    edges = _draw_edges(rng, y_clean, p_in, p_out)
    X = rng.standard_normal((n, d))
    X[:, :signal_cols] += signal_shift * (2.0 * y_clean[:, None] - 1.0)
    X[:, signal_cols : signal_cols + leak_cols] += leak_shift * (2.0 * s[:, None] - 1.0)
    y = np.where(rng.random(n) < label_noise, 1 - y_clean, y_clean)
    return Graph(n, edges), X, NodeLabels(y=y, s=s)


def make_german_like(seed: int = 0):
    """Credit-scoring-sized fixture: 1000 nodes, 27 attributes, mean degree near 22."""
    return make_sbm(
        n=1000,
        d=27,
        seed=seed,
        p_in=0.030,
        p_out=0.014,
        p_s_given_y1=0.7,
        p_s_given_y0=0.3,
        signal_shift=1.2,
        leak_shift=1.2,
        label_noise=0.3,
    )


def make_small(seed: int = 7):
    """Compact 200-node fixture for fast tests; denser so columns stay informative."""
    return make_sbm(
        n=200,
        d=8,
        seed=seed,
        p_in=0.11,
        p_out=0.05,
        p_s_given_y1=0.8,
        p_s_given_y0=0.2,
        signal_cols=2,
        signal_shift=1.2,
        leak_cols=2,
        leak_shift=1.6,
        label_noise=0.15,
    )


def bundled_fixture_dir(name: str = "sbm200") -> str:
    """Path of a dataset shipped inside the package."""
    root = os.path.join(os.path.dirname(__file__), "fixture_data", name)
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return root
