"""Deterministic synthetic datasets for tests and demos.

A two-block stochastic block model over the task label, with a sensitive
attribute correlated to the label and attribute columns that leak a weak
amount of both.  Parameters below are tuned so that the standard credit-
scoring regime is reproduced at n = 1000: a two-layer GCN lands around 60%
accuracy with a statistical parity gap of roughly 0.2 to 0.4.
"""

from __future__ import annotations

import os

import numpy as np

from .data import Graph, NodeLabels
from .smoothing import DOMAIN_PROBE, substream


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

    Returns (Graph, X, NodeLabels).
    """
    if signal_cols + leak_cols > d:
        raise ValueError("more signal/leak columns than attribute dimensions")
    if not 0 <= label_noise < 0.5:
        raise ValueError(f"label_noise must lie in [0, 1/2), got {label_noise}")
    rng = substream(seed, DOMAIN_PROBE, 0)
    y_clean = np.zeros(n, dtype=np.int64)
    y_clean[rng.permutation(n)[: n // 2]] = 1
    s = np.where(y_clean == 1, rng.random(n) < p_s_given_y1, rng.random(n) < p_s_given_y0).astype(np.int64)

    iu, iv = np.triu_indices(n, k=1)
    p = np.where(y_clean[iu] == y_clean[iv], p_in, p_out)
    keep = rng.random(p.size) < p
    edges = np.column_stack((iu[keep], iv[keep]))  # triu order: already sorted by (u, v)

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
