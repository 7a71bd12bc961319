"""Group fairness metrics, group splitting and thresholds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elegant.data import NodeLabels
from elegant.fairness import (
    BiasThreshold,
    UndefinedMetricError,
    accuracy,
    bias_value,
    class1_hits,
    group_gaps,
    group_members,
    metric_groups,
    rate_gaps,
)
from oracles import positive_rate_gap_oracle

S = np.array([0, 0, 0, 0, 1, 1, 1, 1])
Y = np.array([1, 1, 0, 0, 1, 1, 1, 0])
LABELS = NodeLabels(y=Y, s=S)


def _groups_oracle(nodes, metric):
    """Each metric's s = 0 and s = 1 nodes in input order, label-1 nodes only for eo."""
    keep = [i for i in nodes if metric == "sp" or Y[i] == 1]
    return [i for i in keep if S[i] == 0], [i for i in keep if S[i] == 1]


def _pair_gaps(classes, pairs):
    """rate_gaps over one class1_hits gather: the g0 groups' nodes as listed, then the g1 groups'."""
    k = len(pairs)
    sides = [[np.asarray(g, dtype=np.int64) for g in groups] for groups in zip(*pairs)]
    listed = [np.concatenate(groups) for groups in sides]
    hits = class1_hits(classes, np.concatenate(listed))
    blocks = hits[:, : listed[0].size], hits[:, listed[0].size :]
    args = [(block, *group_members(k, np.repeat(np.arange(k), [g.size for g in groups]), np.arange(block.shape[1]), block.shape[1])) for block, groups in zip(blocks, sides)]
    return rate_gaps(*args).reshape(k, *classes.shape[:-1])


def test_delta_sp_hand_case():
    yhat = np.array([1, 1, 1, 0, 1, 0, 0, 0])  # rates 3/4 vs 1/4
    assert bias_value(yhat, LABELS, range(8), "sp") == pytest.approx(0.5)


def test_delta_sp_symmetric_in_groups():
    yhat = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    assert bias_value(yhat, LABELS, range(8), "sp") == bias_value(yhat, NodeLabels(y=Y, s=1 - S), range(8), "sp")


def test_delta_eo_restricts_to_positive_labels():
    # y=1 nodes: 0,1 (s=0) and 4,5,6 (s=1); tpr 1/2 vs 1/3
    yhat = np.array([1, 0, 1, 1, 1, 0, 0, 0])
    assert bias_value(yhat, LABELS, range(8), "eo") == pytest.approx(abs(0.5 - 1 / 3))


def test_metrics_undefined_on_degenerate_sets():
    yhat = np.zeros(8, dtype=int)
    with pytest.raises(UndefinedMetricError):
        bias_value(yhat, LABELS, [0, 1, 2], "sp")  # only s=0 present
    with pytest.raises(UndefinedMetricError):
        bias_value(yhat, LABELS, [2, 3, 7], "eo")  # no y=1 nodes
    with pytest.raises(UndefinedMetricError):
        bias_value(yhat, LABELS, [], "sp")


def test_sensitive_groups_keep_input_order():
    g0, g1 = metric_groups([6, 1, 4, 0, 5], LABELS, "sp")
    np.testing.assert_array_equal(g0, [1, 0])
    np.testing.assert_array_equal(g1, [6, 4, 5])
    g0, g1 = metric_groups(np.array([7, 5, 2, 1, 4, 0]), LABELS, "eo")  # label-1 nodes only
    np.testing.assert_array_equal(g0, [1, 0])
    np.testing.assert_array_equal(g1, [5, 4])
    with pytest.raises(UndefinedMetricError):
        metric_groups([4, 5, 2], LABELS, "eo")  # node 2 has y = 0, so no s = 0 node is left


def test_positive_rate_gap_keeps_leading_shape():
    rng = np.random.default_rng(3)
    classes = rng.integers(0, 2, size=(3, 4, 8)).astype(np.uint8)
    gaps = _pair_gaps(classes, [metric_groups(range(8), LABELS, "sp")])
    assert gaps.shape == (1, 3, 4)
    for o in range(3):
        for i in range(4):
            assert gaps[0, o, i] == bias_value(classes[o, i], LABELS, range(8), "sp")


@pytest.mark.parametrize("metric", ["sp", "eo"])
def test_group_gaps_prices_every_row_as_bias_value(metric):
    # the greedy attack's form: one (pool, n) batch of classes against one group pair
    classes = np.random.default_rng(11).integers(0, 2, size=(40, 8)).astype(np.uint8)
    g0, g1 = metric_groups(np.arange(8), LABELS, metric)
    gaps = group_gaps(classes, g0, g1)
    assert gaps.shape == (40,)
    assert gaps.tobytes() == positive_rate_gap_oracle(classes, (g0, g1)).tobytes()
    assert gaps.tolist() == [bias_value(row, LABELS, range(8), metric) for row in classes]


@st.composite
def _gap_cases(draw):
    """Hard classes with a leading shape of () or (o, i), and K group pairs over their n nodes."""
    n = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (2, 3)]))
    classes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, lead + (n,), dtype=np.uint8)
    group = st.one_of(st.just(list(range(n))), st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    pairs = draw(st.lists(st.tuples(group, group), min_size=1, max_size=4))
    return classes, [(np.array(g0), np.array(g1)) for g0, g1 in pairs]


_WHOLE_POOL_CASE = (
    np.random.default_rng(5).integers(0, 2, (2, 3, 6), dtype=np.uint8),
    # size-1 groups, a pair overlapping them, and the whole pool against one node
    [(np.array([0]), np.array([5])), (np.array([0, 1]), np.array([1, 5])), (np.arange(6), np.array([3]))],
)


@settings(max_examples=200, deadline=None)
@given(case=_gap_cases())
@example(case=_WHOLE_POOL_CASE)
@example(case=(_WHOLE_POOL_CASE[0][0, 0], _WHOLE_POOL_CASE[1][:1]))
def test_positive_rate_gap_equals_the_gather_mean_oracle(case):
    classes, pairs = case
    gaps = _pair_gaps(classes, pairs)
    assert gaps.shape == (len(pairs),) + classes.shape[:-1]
    for gap, pair in zip(gaps, pairs):
        assert gap.tobytes() == np.asarray(positive_rate_gap_oracle(classes, pair)).tobytes()
    # hits gathered on every node, a superset of either side's nodes, give the same bits
    hits = class1_hits(classes, np.arange(classes.shape[-1]))
    sides = [(hits, *group_members(len(pairs), np.repeat(np.arange(len(pairs)), [g.size for g in groups]), np.concatenate(groups), hits.shape[1])) for groups in zip(*pairs)]
    assert rate_gaps(*sides).tobytes() == gaps.tobytes()


def test_accuracy():
    yhat = np.array([1, 1, 0, 0, 1, 1, 1, 1])
    assert accuracy(yhat, Y, range(8)) == pytest.approx(7 / 8)
    assert accuracy(yhat, Y, [0, 7]) == pytest.approx(0.5)


@pytest.mark.parametrize("nodes,bad", [([-1, 0], -1), ([0, 8], 8), ([1.7, 0.2], 1.7), ([0, np.nan], np.nan), ([np.inf], np.inf)])
def test_bias_value_and_accuracy_refuse_ids_that_are_not_nodes(nodes, bad):
    # a cast or a numpy index would read node n - 1 for -1, and nodes 1 and 0 for [1.7, 0.2]
    yhat = np.array([1, 1, 1, 0, 1, 0, 0, 0])
    message = f"node ids must be integers; {bad} is not one" if isinstance(bad, float) else rf"node ids must lie in \[0, 8\); {bad} does not"
    for metric in ("sp", "eo"):
        with pytest.raises(ValueError, match=message):
            bias_value(yhat, LABELS, nodes, metric)
    with pytest.raises(ValueError, match=message):
        accuracy(yhat, Y, nodes)
    with pytest.raises(ValueError, match=message):
        accuracy(yhat, Y, np.asarray(nodes))


def test_bias_value_dispatch():
    yhat = np.array([1, 1, 1, 0, 1, 0, 0, 0])
    for metric in ("sp", "eo"):
        want = positive_rate_gap_oracle(yhat, _groups_oracle(range(8), metric))
        assert bias_value(yhat, LABELS, range(8), metric) == want
    with pytest.raises(ValueError):
        bias_value(yhat, LABELS, range(8), "dp")


def test_metric_groups_pick_each_metrics_population():
    nodes = np.arange(8)
    for metric in ("sp", "eo"):
        for got, want in zip(metric_groups(nodes, LABELS, metric), _groups_oracle(nodes, metric)):
            np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="unknown metric 'dp'"):
        metric_groups(nodes, LABELS, "dp")


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_thresholds_reject_non_finite_numbers(value):
    with pytest.raises(ValueError, match=f"eta must be nonnegative and finite, got {value}"):
        BiasThreshold.absolute(value)
    with pytest.raises(ValueError, match=f"eta must be nonnegative and finite, got {value}"):
        BiasThreshold(eta=value, provenance="relative", multiplier=1.0, vanilla_bias=value)
    with pytest.raises(ValueError, match=f"multiplier must be positive and finite, got {value}"):
        BiasThreshold.relative(value, 0.4)
