"""Group fairness metrics and the bias threshold.

Both metrics compare the two groups induced by a binary sensitive
attribute over a node subset: statistical parity looks at positive
prediction rates, equal opportunity at true positive rates.  METRICS
names them.  metric_sides is the one place a metric's groups are formed
and its population picked, for the metrics here, the certification
pipeline and both attacks: it marks them over a whole batch of sets at
once, and metric_groups returns one set's groups.  One kernel compares
their class-1 rates, one side at a time: rate_gaps counts each side's
groups, a membership matrix group_members builds once, against the
class-1 hits of that side's nodes only, hits that class1_hits gathers
once for many group pairs.  The pipeline pairs one membership build per
chunk of test sets with one gather per outer sample of the cache;
group_gaps prices one group pair on many rows at once, as the greedy
attack does for a step's whole candidate pool and bias_value for one
prediction.  Node ids reach them through node_ids, which refuses a
fraction, NaN, inf or an id outside the graph rather than truncating or
wrapping it.  A metric is
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


def non_integers(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of the float array a that are not integers: a fraction, NaN or inf."""
    return ~(np.isfinite(a) & (a == np.trunc(a)))


def integral_ids(ids, what: str) -> np.ndarray:
    """ids, an array or any iterable of ids, as a new int64 array of its shape.

    An integer array keeps its values; any other's entries must each be an
    integer (exact below 2^53), since a cast would truncate a fraction and
    wrap NaN or inf.  Raises ValueError naming the first entry that is not
    one (non_integers).
    """
    a = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
    if a.dtype.kind not in "iu":
        a = a.astype(np.float64)
        fractional = non_integers(a)
        if fractional.any():
            raise ValueError(f"{what} must be integers; {a.flat[np.argmax(fractional)]} is not one")
    return a.astype(np.int64)


def node_ids(ids, n: int, what: str = "node ids") -> np.ndarray:
    """integral_ids(ids, what), each in [0, n): raises ValueError naming the first id that is not an integer or lies outside, so a negative id never wraps to the last nodes."""
    idx = integral_ids(ids, what)
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise ValueError(f"{what} must lie in [0, {n}); {idx.flat[np.argmax(outside)]} does not")
    return idx


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
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")
        if self.provenance not in ("absolute", "relative"):
            raise ValueError(f"provenance must be 'absolute' or 'relative', got {self.provenance!r}")

    @classmethod
    def absolute(cls, eta: float) -> "BiasThreshold":
        return cls(eta=float(eta))

    @classmethod
    def relative(cls, multiplier: float, vanilla_bias: float) -> "BiasThreshold":
        if not 0 < multiplier < math.inf:
            raise ValueError(f"multiplier must be positive and finite, got {multiplier}")
        return cls(
            eta=float(multiplier) * float(vanilla_bias),
            provenance="relative",
            multiplier=float(multiplier),
            vanilla_bias=float(vanilla_bias),
        )


def metric_groups(nodes, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The node ids metric compares among nodes, s = 0 then s = 1, in input order.

    labels carries both y and s.  Raises ValueError on an unknown metric or
    a node id that node_ids refuses, and UndefinedMetricError when either
    group is empty.
    """
    idx = node_ids(nodes, np.shape(labels.s)[0])
    g0, g1 = (idx[side] for side in metric_sides(idx, labels, metric))
    if g0.size == 0 or g1.size == 0:
        raise UndefinedMetricError("one sensitive group is empty on this node set")
    return g0, g1


def metric_sides(nodes: np.ndarray, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over an int64 array of node ids: metric's s = 0 and s = 1 members.

    Statistical parity compares every node, equal opportunity only the
    label-1 ones.  nodes may hold many sets at once, one after another; an
    empty group is left to the caller.  Raises ValueError on an unknown
    metric.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    s = np.asarray(labels.s)[nodes]
    sides = s == 0, s == 1
    if metric == EQUAL_OPPORTUNITY:
        keep = np.asarray(labels.y)[nodes] == 1
        sides = keep & sides[0], keep & sides[1]
    return sides


def class1_hits(classes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The class-1 indicator of classes[..., nodes] as a (rows, nodes) float32 matrix.

    classes holds hard classes over its last axis with any leading shape;
    rows is the product of that shape.  rate_gaps counts column blocks of
    this matrix, so one gather can serve many group pairs over the same
    nodes.
    """
    return (classes[..., nodes] == 1).astype(np.float32).reshape(math.prod(classes.shape[:-1]), nodes.size)


def group_members(k: int, group: np.ndarray, col: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """k groups over width hits columns: their (k, width) float32 membership matrix and (k,) float64 sizes.

    Entry e puts column col[e] into group group[e]; a column listed twice
    in a group counts twice, as in a mean.  The membership depends only on
    the groups, so one build serves every hits block over the same columns.
    """
    member = np.bincount(group * width + col, minlength=k * width).astype(np.float32).reshape(k, width)
    return member, np.bincount(group, minlength=k).astype(np.float64)


def rate_gaps(side0: tuple, side1: tuple) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| per hits row, for each of k group pairs.

    Each side is (hits, member, sizes), for the pairs' g0 groups and then
    for their g1 groups: hits is a (rows, width) block of class1_hits
    columns and (member, sizes) the side's group_members over those
    columns.  A side's product spans only its own block, so when each
    block holds only its side's nodes, no product multiplies the other
    side's columns.  Returns (k, rows); a pair with an empty group has NaN
    gaps.
    """
    with np.errstate(invalid="ignore"):  # an empty group's rate is 0 / 0
        gap = _rates(*side0)
        gap -= _rates(*side1)
    return np.abs(gap, out=gap)


def _rates(hits: np.ndarray, member: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The group-rate kernel: each group's class-1 rate per hits row.

    member @ hits.T gives each group's class-1 count.  The counts are
    exact, since float32 holds every integer up to 2^24, so they do not
    depend on which other nodes hits covers, and count / size in float64
    is bit for bit numpy's mean of the gathered bool array.
    """
    return (member @ hits.T) / sizes[:, None]


def accuracy(yhat: np.ndarray, y: np.ndarray, nodes) -> float:
    """The fraction of nodes where yhat equals y; raises ValueError for a node id that node_ids refuses."""
    idx = node_ids(nodes, np.shape(y)[0])
    if idx.size == 0:
        raise UndefinedMetricError("empty node set")
    return float((np.asarray(yhat)[idx] == np.asarray(y)[idx]).mean())


def prediction_metrics(yhat: np.ndarray, labels, nodes) -> dict:
    """Accuracy, statistical parity gap and equal opportunity gap over nodes."""
    return {
        "accuracy": accuracy(yhat, labels.y, nodes),
        "delta_sp": bias_value(yhat, labels, nodes, STATISTICAL_PARITY),
        "delta_eo": bias_value(yhat, labels, nodes, EQUAL_OPPORTUNITY),
    }


def bias_value(yhat: np.ndarray, labels, nodes, metric: str) -> float:
    """The requested metric's gap over nodes; labels carries both y and s."""
    return float(group_gaps(np.asarray(yhat), *metric_groups(nodes, labels, metric))[0])


def group_gaps(classes: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| for every row of classes, shape (rows,).

    One class1_hits gather puts g0's nodes in the first column block and
    g1's in the second, and one rate_gaps call counts both, so a batch of
    rows costs one gather and one count product per side.
    """
    hits = class1_hits(classes, np.concatenate((g0, g1)))
    sides = [(block, *group_members(1, np.zeros(g.size, dtype=np.int64), np.arange(g.size), g.size)) for block, g in ((hits[:, : g0.size], g0), (hits[:, g0.size :], g1))]
    return rate_gaps(*sides)[0]
