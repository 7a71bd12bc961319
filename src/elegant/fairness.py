"""Group fairness metrics and the bias threshold.

Both metrics compare the two groups induced by a binary sensitive
attribute over a node subset: statistical parity looks at positive
prediction rates, equal opportunity at true positive rates.  METRICS
names them.  sensitive_groups is the one place those groups are formed
and metric_groups the one place a metric picks its population, for the
metrics here, the certification pipeline and both attacks.  One kernel
compares their class-1 rates: positive_rate_gap gathers the hits it
needs, and rate_gaps reuses hits that class1_hits gathered once for many
group pairs, as the pipeline does for a whole batch of test sets.  A metric
is undefined when one of its groups is empty; callers decide how to treat
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
    if y is not None:
        idx = idx[np.asarray(y)[idx] == 1]
    sv = np.asarray(s)[idx]
    g0 = idx[sv == 0]
    g1 = idx[sv == 1]
    if g0.size == 0 or g1.size == 0:
        raise UndefinedMetricError("one sensitive group is empty on this node set")
    return g0, g1


def metric_groups(nodes, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """The sensitive groups metric compares among nodes; labels carries both y and s.

    Statistical parity compares all of nodes, equal opportunity only the
    label-1 ones.  Raises ValueError on an unknown metric and
    UndefinedMetricError when either group is empty.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return sensitive_groups(nodes, labels.s, labels.y if metric == EQUAL_OPPORTUNITY else None)


def class1_hits(classes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The class-1 indicator of classes[..., nodes] as a (rows, nodes) float32 matrix.

    classes holds hard classes over its last axis with any leading shape;
    rows is the product of that shape.  rate_gaps takes this matrix, so one
    gather can serve many group pairs over the same nodes.
    """
    return (classes[..., nodes] == 1).astype(np.float32).reshape(math.prod(classes.shape[:-1]), nodes.size)


def rate_gaps(hits: np.ndarray, nodes: np.ndarray, pairs) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| per row of hits, for each of K group pairs.

    hits is class1_hits over nodes, a sorted duplicate-free array holding
    every node of the pairs.  Returns (K, rows).
    """
    groups = _pair_groups(pairs)
    return _gaps(hits, nodes.size, groups, np.searchsorted(nodes, np.concatenate(groups)))


def positive_rate_gap(classes: np.ndarray, pairs) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| for each of K group pairs (g0, g1).

    classes holds hard classes over its last axis with any leading shape:
    one prediction (n,) or a whole cache (n_outer, n_inner, n).  Returns
    (K, *lead), as rate_gaps on the class1_hits of the pairs' node union.
    """
    groups = _pair_groups(pairs)
    nodes, inverse = np.unique(np.concatenate(groups), return_inverse=True)
    return _gaps(class1_hits(classes, nodes), nodes.size, groups, inverse).reshape(len(pairs), *classes.shape[:-1])


def _pair_groups(pairs) -> list:
    """The pairs' groups as int64 arrays, every pair's g0 first, then every g1."""
    g0s, g1s = zip(*pairs)
    return [np.asarray(g, dtype=np.int64) for g in g0s + g1s]


def _gaps(hits: np.ndarray, width: int, groups: list, inverse: np.ndarray) -> np.ndarray:
    """The group-rate kernel: groups[j] sits at hits columns inverse[offset_j : offset_j + size_j].

    The (2K, width) 0/1 membership matrix times hits.T gives each group's
    class-1 count.  The counts are exact, since float32 holds every
    integer up to 2^24, so they do not depend on which other nodes hits
    covers, and count / size in float64 is bit for bit numpy's mean of the
    gathered bool array.
    """
    sizes = np.array([g.size for g in groups])
    col = np.repeat(np.arange(sizes.size), sizes)
    # one row per group; a node listed twice counts twice, as in a mean
    member = np.bincount(col * width + inverse, minlength=sizes.size * width).astype(np.float32)
    rates = (member.reshape(sizes.size, width) @ hits.T) / sizes[:, None].astype(np.float64)
    k = sizes.size // 2
    gap = rates[:k] - rates[k:]
    return np.abs(gap, out=gap)


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
