"""Group fairness metrics, group splitting and thresholds."""

import numpy as np
import pytest

from elegant.data import NodeLabels
from elegant.fairness import (
    BiasThreshold,
    UndefinedMetricError,
    accuracy,
    bias_value,
    delta_eo,
    delta_sp,
    metric_groups,
    positive_rate_gap,
    sensitive_groups,
)

S = np.array([0, 0, 0, 0, 1, 1, 1, 1])
Y = np.array([1, 1, 0, 0, 1, 1, 1, 0])


def test_delta_sp_hand_case():
    yhat = np.array([1, 1, 1, 0, 1, 0, 0, 0])  # rates 3/4 vs 1/4
    assert delta_sp(yhat, S, range(8)) == pytest.approx(0.5)


def test_delta_sp_symmetric_in_groups():
    yhat = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    assert delta_sp(yhat, S, range(8)) == delta_sp(yhat, 1 - S, range(8))


def test_delta_eo_restricts_to_positive_labels():
    # y=1 nodes: 0,1 (s=0) and 4,5,6 (s=1); tpr 1/2 vs 1/3
    yhat = np.array([1, 0, 1, 1, 1, 0, 0, 0])
    assert delta_eo(yhat, Y, S, range(8)) == pytest.approx(abs(0.5 - 1 / 3))


def test_metrics_undefined_on_degenerate_sets():
    yhat = np.zeros(8, dtype=int)
    with pytest.raises(UndefinedMetricError):
        delta_sp(yhat, S, [0, 1, 2])  # only s=0 present
    with pytest.raises(UndefinedMetricError):
        delta_eo(yhat, Y, S, [2, 3, 7])  # no y=1 nodes
    with pytest.raises(UndefinedMetricError):
        delta_sp(yhat, S, [])


def test_sensitive_groups_keep_input_order():
    g0, g1 = sensitive_groups([6, 1, 4, 0, 5], S)
    np.testing.assert_array_equal(g0, [1, 0])
    np.testing.assert_array_equal(g1, [6, 4, 5])
    g0, g1 = sensitive_groups(np.array([7, 5, 2, 1, 4, 0]), S, Y)  # label-1 nodes only
    np.testing.assert_array_equal(g0, [1, 0])
    np.testing.assert_array_equal(g1, [5, 4])
    with pytest.raises(UndefinedMetricError):
        sensitive_groups([4, 5, 2], S, Y)  # node 2 has y = 0, so no s = 0 node is left


def test_positive_rate_gap_keeps_leading_shape():
    rng = np.random.default_rng(3)
    classes = rng.integers(0, 2, size=(3, 4, 8)).astype(np.uint8)
    gaps = positive_rate_gap(classes, sensitive_groups(range(8), S))
    assert gaps.shape == (3, 4)
    for o in range(3):
        for i in range(4):
            assert gaps[o, i] == delta_sp(classes[o, i], S, range(8))


def test_accuracy():
    yhat = np.array([1, 1, 0, 0, 1, 1, 1, 1])
    assert accuracy(yhat, Y, range(8)) == pytest.approx(7 / 8)
    assert accuracy(yhat, Y, [0, 7]) == pytest.approx(0.5)


def test_bias_value_dispatch():
    labels = NodeLabels(y=Y, s=S)
    yhat = np.array([1, 1, 1, 0, 1, 0, 0, 0])
    assert bias_value(yhat, labels, range(8), "sp") == delta_sp(yhat, S, range(8))
    assert bias_value(yhat, labels, range(8), "eo") == delta_eo(yhat, Y, S, range(8))
    with pytest.raises(ValueError):
        bias_value(yhat, labels, range(8), "dp")


def test_metric_groups_pick_each_metrics_population():
    labels = NodeLabels(y=Y, s=S)
    nodes = np.arange(8)
    for metric, y in (("sp", None), ("eo", Y)):
        for got, want in zip(metric_groups(nodes, labels, metric), sensitive_groups(nodes, S, y)):
            np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="unknown metric 'dp'"):
        metric_groups(nodes, labels, "dp")


def test_threshold_constructors():
    t = BiasThreshold.absolute(0.3)
    assert t.eta == 0.3 and t.provenance == "absolute" and t.multiplier is None
    r = BiasThreshold.relative(1.25, 0.4)
    assert r.eta == pytest.approx(0.5)
    assert r.provenance == "relative"
    assert r.multiplier == 1.25 and r.vanilla_bias == 0.4
    with pytest.raises(ValueError):
        BiasThreshold.absolute(-0.1)
    with pytest.raises(ValueError):
        BiasThreshold.relative(0.0, 0.4)
    with pytest.raises(ValueError):
        BiasThreshold(eta=0.1, provenance="scaled")
