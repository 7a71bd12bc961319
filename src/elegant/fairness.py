"""Group fairness metrics and the bias threshold.

Both metrics compare the two groups induced by a binary sensitive
attribute over a node subset: statistical parity looks at positive
prediction rates, equal opportunity at true positive rates.  METRICS
names them.  _sides is the one place those groups are formed and
_population the one place a metric picks its population, for the metrics
here, the certification pipeline and both attacks: sensitive_groups and
metric_groups return one set's groups, metric_sides marks them over a
whole batch of sets at once.  One kernel compares their class-1 rates,
one side at a time: each side's groups are counted against the class-1
hits of that side's nodes only, so neither side's product multiplies the
other side's columns.  positive_rate_gap gathers the hits it needs, and
rate_gaps counts hits that class1_hits gathered once for many group
pairs, as the pipeline does for a whole batch of test sets.  A metric is
undefined when one of its groups is empty; callers decide how to treat
that (the certification pipeline forces such draws' indicator votes to 0
and logs them).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

STATISTICAL_PARITY = "sp"
EQUAL_OPPORTUNITY = "eo"
METRICS = (STATISTICAL_PARITY, EQUAL_OPPORTUNITY)


class UndefinedMetricError(ValueError):
    """A subgroup needed by the metric is empty on the evaluated node set."""


@dataclass(frozen=True)
class BiasThreshold:
    """Bias level eta a prediction must stay strictly below to count as fair.

    Absolute thresholds carry the level directly; relative ones record the
    multiplier and the measured bias of the undefended model they scale.
    """

    eta: float
    provenance: str = "absolute"
    multiplier: float | None = None
    vanilla_bias: float | None = None

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.provenance not in ("absolute", "relative"):
            raise ValueError(f"provenance must be 'absolute' or 'relative', got {self.provenance!r}")

    @classmethod
    def absolute(cls, eta: float) -> "BiasThreshold":
        return cls(eta=float(eta))

    @classmethod
    def relative(cls, multiplier: float, vanilla_bias: float) -> "BiasThreshold":
        if multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        return cls(
            eta=float(multiplier) * float(vanilla_bias),
            provenance="relative",
            multiplier=float(multiplier),
            vanilla_bias=float(vanilla_bias),
        )


def sensitive_groups(nodes, s, y=None) -> tuple[np.ndarray, np.ndarray]:
    """The node ids with s = 0 and with s = 1 among nodes, in input order.

    Passing y keeps only the label-1 nodes, the population equal
    opportunity compares.  Raises UndefinedMetricError when either group is
    empty.
    """
    idx = np.asarray(nodes, dtype=np.int64)
    g0, g1 = (idx[side] for side in _sides(idx, s, y))
    if g0.size == 0 or g1.size == 0:
        raise UndefinedMetricError("one sensitive group is empty on this node set")
    return g0, g1


def metric_groups(nodes, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The sensitive groups metric compares among nodes; labels carries both y and s.

    Statistical parity compares all of nodes, equal opportunity only the
    label-1 ones.  Raises ValueError on an unknown metric and
    UndefinedMetricError when either group is empty.
    """
    return sensitive_groups(nodes, labels.s, _population(labels, metric))


def metric_sides(nodes: np.ndarray, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over an int64 array of node ids: metric's s = 0 and s = 1 members.

    nodes may hold many sets at once, one after another; the masks mark,
    entry by entry, what metric_groups would return for each set, and an
    empty group is left to the caller.  Raises ValueError on an unknown
    metric.
    """
    return _sides(nodes, labels.s, _population(labels, metric))


def _population(labels, metric: str):
    """The labels whose 1 entries metric compares (None: every node)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return labels.y if metric == EQUAL_OPPORTUNITY else None


def _sides(idx: np.ndarray, s, y) -> tuple[np.ndarray, np.ndarray]:
    """Masks over idx of its s = 0 and its s = 1 nodes, label-1 nodes only when y is given."""
    sv = np.asarray(s)[idx]
    if y is None:
        return sv == 0, sv == 1
    keep = np.asarray(y)[idx] == 1
    return keep & (sv == 0), keep & (sv == 1)


def class1_hits(classes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The class-1 indicator of classes[..., nodes] as a (rows, nodes) float32 matrix.

    classes holds hard classes over its last axis with any leading shape;
    rows is the product of that shape.  rate_gaps counts column blocks of
    this matrix, so one gather can serve many group pairs over the same
    nodes.
    """
    return (classes[..., nodes] == 1).astype(np.float32).reshape(math.prod(classes.shape[:-1]), nodes.size)


def rate_gaps(k: int, side0: tuple, side1: tuple) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| per hits row, for each of k group pairs.

    Each side is (hits, pair, col), for the pairs' g0 groups and then for
    their g1 groups: hits is a (rows, width) block of class1_hits columns,
    and entry e of the side puts hits column col[e] into the group of pair
    pair[e].  A side's product spans only its own block, so when each block
    holds only its side's nodes, no product multiplies the other side's
    columns.  Returns (k, rows); a pair with an empty group has NaN gaps.
    """
    with np.errstate(invalid="ignore"):  # an empty group's rate is 0 / 0
        gap = _rates(k, *side0) - _rates(k, *side1)
    return np.abs(gap, out=gap)


def positive_rate_gap(classes: np.ndarray, pairs) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| for each of K group pairs (g0, g1).

    classes holds hard classes over its last axis with any leading shape:
    one prediction (n,) or a whole cache (n_outer, n_inner, n).  Returns
    (K, *lead), as rate_gaps on one class1_hits gather whose columns are
    the g0 groups' nodes as listed, then the g1 groups'.  Pairs that share
    nodes gather them once per listing; for many such pairs, gather their
    union once and call rate_gaps, as the pipeline does.
    """
    k = len(pairs)
    sides = [[np.asarray(g, dtype=np.int64) for g in groups] for groups in zip(*pairs)]
    listed = [np.concatenate(groups) for groups in sides]
    hits = class1_hits(classes, np.concatenate(listed))
    blocks = hits[:, : listed[0].size], hits[:, listed[0].size :]
    args = [(block, np.repeat(np.arange(k), [g.size for g in groups]), np.arange(block.shape[1])) for block, groups in zip(blocks, sides)]
    return rate_gaps(k, *args).reshape(k, *classes.shape[:-1])


def _rates(k: int, hits: np.ndarray, pair: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The group-rate kernel: each of k groups' class-1 rate per hits row.

    The (k, width) membership matrix times hits.T gives each group's
    class-1 count.  The counts are exact, since float32 holds every
    integer up to 2^24, so they do not depend on which other nodes hits
    covers, and count / size in float64 is bit for bit numpy's mean of the
    gathered bool array.
    """
    width = hits.shape[1]
    # one row per group; a node listed twice counts twice, as in a mean
    member = np.bincount(pair * width + col, minlength=k * width).astype(np.float32).reshape(k, width)
    sizes = np.bincount(pair, minlength=k)
    return (member @ hits.T) / sizes[:, None].astype(np.float64)


def delta_sp(yhat: np.ndarray, s: np.ndarray, nodes) -> float:
    """Statistical parity gap |P(yhat=1 | s=0) - P(yhat=1 | s=1)| over nodes."""
    return float(positive_rate_gap(np.asarray(yhat), [sensitive_groups(list(nodes), s)])[0])


def delta_eo(yhat: np.ndarray, y: np.ndarray, s: np.ndarray, nodes) -> float:
    """Equal opportunity gap: statistical parity restricted to y = 1 nodes."""
    return float(positive_rate_gap(np.asarray(yhat), [sensitive_groups(list(nodes), s, y)])[0])


def accuracy(yhat: np.ndarray, y: np.ndarray, nodes) -> float:
    idx = np.asarray(list(nodes), dtype=np.int64)
    if idx.size == 0:
        raise UndefinedMetricError("empty node set")
    return float((np.asarray(yhat)[idx] == np.asarray(y)[idx]).mean())


def prediction_metrics(yhat: np.ndarray, labels, nodes) -> dict:
    """Accuracy, statistical parity gap and equal opportunity gap over nodes."""
    return {
        "accuracy": accuracy(yhat, labels.y, nodes),
        "delta_sp": delta_sp(yhat, labels.s, nodes),
        "delta_eo": delta_eo(yhat, labels.y, labels.s, nodes),
    }


def bias_value(yhat: np.ndarray, labels, nodes, metric: str) -> float:
    """The requested metric's gap over nodes; labels carries both y and s."""
    return float(positive_rate_gap(np.asarray(yhat), [metric_groups(list(nodes), labels, metric)])[0])
