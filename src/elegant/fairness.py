"""Group fairness metrics and the bias threshold.

Both metrics compare the two groups induced by a binary sensitive
attribute over a node subset: statistical parity looks at positive
prediction rates, equal opportunity at true positive rates.  METRICS
names them.  sensitive_groups is the one place those groups are formed
and metric_groups the one place a metric picks its population, for the
metrics here, the certification pipeline and both attacks;
positive_rate_gap is the one kernel comparing their class-1 rates.  A metric
is undefined when one of its groups is empty; callers decide how to treat
that (the certification pipeline forces such draws' indicator votes to 0
and logs them).
"""

from __future__ import annotations

import logging
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


def positive_rate_gap(classes: np.ndarray, groups) -> np.ndarray:
    """|class-1 rate on g0 - class-1 rate on g1| over the last axis of hard classes.

    The leading shape is kept: one prediction (n,) or a whole cache
    (n_outer, n_inner, n).  Indexing before comparing keeps temporaries
    group-sized.
    """
    g0, g1 = groups
    return np.abs((classes[..., g0] == 1).mean(-1) - (classes[..., g1] == 1).mean(-1))


def delta_sp(yhat: np.ndarray, s: np.ndarray, nodes) -> float:
    """Statistical parity gap |P(yhat=1 | s=0) - P(yhat=1 | s=1)| over nodes."""
    return float(positive_rate_gap(np.asarray(yhat), sensitive_groups(list(nodes), s)))


def delta_eo(yhat: np.ndarray, y: np.ndarray, s: np.ndarray, nodes) -> float:
    """Equal opportunity gap: statistical parity restricted to y = 1 nodes."""
    return float(positive_rate_gap(np.asarray(yhat), sensitive_groups(list(nodes), s, y)))


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
    return float(positive_rate_gap(np.asarray(yhat), metric_groups(list(nodes), labels, metric)))
