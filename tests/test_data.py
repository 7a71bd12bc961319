"""Containers, the three-file loader, splits, and test-set sampling."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elegant.data import (
    DataError,
    Graph,
    NodeLabels,
    SplitSpec,
    load_dataset,
    make_splits,
    normalize_attributes,
    sample_test_sets,
)
from elegant.fixtures import bundled_fixture_dir, make_small, write_dataset
from oracles import flip_oracle


def test_graph_accepts_canonical_pairs():
    g = Graph(n=4, edges=frozenset({(0, 1), (1, 3)}))
    assert g.n_edges == 2
    np.testing.assert_array_equal(g.edge_array(), [[0, 1], [1, 3]])


def test_graph_rejects_bad_pairs():
    with pytest.raises(DataError):
        Graph(n=3, edges=frozenset({(1, 0)}))
    with pytest.raises(DataError):
        Graph(n=3, edges=frozenset({(1, 1)}))
    with pytest.raises(DataError):
        Graph(n=3, edges=frozenset({(0, 3)}))
    with pytest.raises(DataError):
        Graph(n=0, edges=frozenset())


def test_graph_canonicalizes_any_pair_form():
    rows = [(1, 3), (0, 2), (0, 1)]
    g = Graph(4, np.array(rows))
    np.testing.assert_array_equal(g.edge_array(), [[0, 1], [0, 2], [1, 3]])
    assert g.edge_array().dtype == np.int64
    assert not g.edge_array().flags.writeable
    assert g == Graph(4, rows) == Graph(4, frozenset(rows)) == Graph(4, iter(rows))
    assert hash(g) == hash(Graph(4, rows))
    assert g != Graph(5, rows)
    assert g != Graph(4, rows[:2])
    # the set view holds plain Python ints
    assert g.edges == frozenset(rows)
    assert all(type(x) is int for pair in g.edges for x in pair)


@pytest.mark.parametrize(
    "edges,fragment",
    [
        ([(0, 1), (1, 2), (0, 1)], "duplicate edge \\(0, 1\\)"),
        ([(0, 1), (2, 1)], "edge \\(2, 1\\) violates"),
        ([(2, 2)], "violates"),
        ([(-1, 2)], "violates"),
        ([(0, 4)], "violates"),
        (np.zeros((2, 3), dtype=np.int64), "shape"),
        (np.array([0, 1]), "shape"),
    ],
    ids=["duplicate", "reversed", "self-loop", "negative", "out-of-range", "three-columns", "one-dimensional"],
)
def test_graph_rejects_malformed_edge_arrays(edges, fragment):
    with pytest.raises(DataError, match=fragment):
        Graph(4, np.asarray(edges))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_flip_matches_set_symmetric_difference(data):
    n = data.draw(st.integers(2, 12))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(all_pairs)))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True))
    g = Graph(n, edges)
    flipped = g.flip(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert flipped.edges == flip_oracle(edges, pairs)
    assert flipped.edge_array().tolist() == sorted(map(list, flip_oracle(edges, pairs)))
    assert flipped.flip(pairs) == g


def test_flip_rejects_bad_pairs():
    g = Graph(3, [(0, 1)])
    with pytest.raises(DataError):
        g.flip([(1, 2), (1, 2)])
    with pytest.raises(DataError):
        g.flip([(2, 1)])


def test_empty_graph_edge_array_shape():
    g = Graph(n=2, edges=frozenset())
    assert g.edge_array().shape == (0, 2)


def test_labels_validate_binary():
    labels = NodeLabels(y=[0, 1, 1], s=[1, 0, 1])
    assert labels.n == 3
    with pytest.raises(DataError):
        NodeLabels(y=[0, 2], s=[0, 1])
    with pytest.raises(DataError):
        NodeLabels(y=[0, 1], s=[0, 1, 1])


def test_split_spec_validates_and_sorts():
    sp = SplitSpec(train=(3, 1), validation=(0,), test_pool=(5, 2), vulnerable=(5,))
    assert sp.train == (1, 3)
    assert sp.test_pool == (2, 5)
    with pytest.raises(DataError):
        SplitSpec(train=(0,), validation=(0,), test_pool=(1,), vulnerable=())
    with pytest.raises(DataError):
        SplitSpec(train=(0,), validation=(1,), test_pool=(2,), vulnerable=(1,))


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_loader_reads_csv_with_headers(tmp_path):
    edges = _write(tmp_path, "e.txt", "0,1\n1,0\n1,2\n2,2\n\n")
    attrs = _write(tmp_path, "x.csv", "a,b\n0.0,1.5\n2.0,3.0\n4.0,-1.0\n")
    labels = _write(tmp_path, "y.csv", "node,label,sens\n0,1,0\n1,0,1\n2,1,1\n")
    g, X, lab = load_dataset(edges, attrs, labels)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})  # reverse dupe and self loop dropped
    np.testing.assert_allclose(X, [[0.0, 1.5], [2.0, 3.0], [4.0, -1.0]])
    np.testing.assert_array_equal(lab.y, [1, 0, 1])
    np.testing.assert_array_equal(lab.s, [0, 1, 1])


def test_loader_reads_whitespace_edges_no_headers(tmp_path):
    edges = _write(tmp_path, "e.txt", "0 1\n")
    attrs = _write(tmp_path, "x.csv", "1.0,2.0\n3.0,4.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n")
    g, X, lab = load_dataset(edges, attrs, labels)
    assert g.edges == frozenset({(0, 1)})
    assert X.shape == (2, 2)


@pytest.mark.parametrize(
    "edge_text,fragment",
    [
        ("0 5\n", "out of range"),
        ("0 1 2\n", "two endpoints"),
        ("0 x\n", "non-integer"),
    ],
)
def test_loader_edge_errors_carry_line_numbers(tmp_path, edge_text, fragment):
    edges = _write(tmp_path, "e.txt", edge_text)
    attrs = _write(tmp_path, "x.csv", "1.0\n2.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n")
    with pytest.raises(DataError, match=fragment):
        load_dataset(edges, attrs, labels)


def test_loader_rejects_gapped_node_ids(tmp_path):
    edges = _write(tmp_path, "e.txt", "")
    attrs = _write(tmp_path, "x.csv", "1.0\n2.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n2,1,1\n")
    with pytest.raises(DataError, match="node ids"):
        load_dataset(edges, attrs, labels)


def test_loader_rejects_attribute_row_mismatch(tmp_path):
    edges = _write(tmp_path, "e.txt", "")
    attrs = _write(tmp_path, "x.csv", "1.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n")
    with pytest.raises(DataError, match="attribute rows"):
        load_dataset(edges, attrs, labels)


def test_loader_rejects_non_numeric_attributes(tmp_path):
    edges = _write(tmp_path, "e.txt", "")
    attrs = _write(tmp_path, "x.csv", "1.0\noops\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_dataset(edges, attrs, labels)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_loader_rejects_non_finite_attributes(tmp_path, bad):
    edges = _write(tmp_path, "e.txt", "")
    attrs = _write(tmp_path, "x.csv", f"a,b\n1.0,2.0\n3.0,4.0\n5.0,{bad}\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n2,0,1\n")
    with pytest.raises(DataError, match="x.csv: non-finite attribute value .* node 2"):
        load_dataset(edges, attrs, labels)


def test_normalize_attributes_minmax():
    X = np.array([[0.0, 7.0], [5.0, 7.0], [10.0, 7.0]])
    out = normalize_attributes(X)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out[:, 1], 0.0)  # constant column collapses to zero


def test_make_splits_sizes_and_disjointness():
    g = Graph(n=100, edges=frozenset())
    sp = make_splits(g, seed=0, train_frac=0.3, val_frac=0.45, vul_frac=0.05)
    assert len(sp.train) == 30
    assert len(sp.validation) == 45
    assert len(sp.test_pool) == 25
    assert len(sp.vulnerable) == round(0.05 * 25)
    everything = set(sp.train) | set(sp.validation) | set(sp.test_pool)
    assert everything == set(range(100))
    assert set(sp.vulnerable) <= set(sp.test_pool)


def test_make_splits_deterministic_per_seed():
    g = Graph(n=60, edges=frozenset())
    assert make_splits(g, seed=4) == make_splits(g, seed=4)
    assert make_splits(g, seed=4) != make_splits(g, seed=5)


def test_make_splits_rejects_bad_fractions():
    g = Graph(n=10, edges=frozenset())
    with pytest.raises(DataError):
        make_splits(g, seed=0, train_frac=0.6, val_frac=0.4)
    with pytest.raises(DataError):
        make_splits(g, seed=0, train_frac=-0.1, val_frac=0.5)
    with pytest.raises(DataError):
        make_splits(g, seed=0, vul_frac=1.5)


def test_sample_test_sets_draws_from_pool():
    g = Graph(n=80, edges=frozenset())
    sp = make_splits(g, seed=1)
    sets = sample_test_sets(sp, ratio=0.9, count=5, seed=3)
    size = round(0.9 * len(sp.test_pool))
    for ts in sets:
        assert len(ts) == size
        assert set(ts) <= set(sp.test_pool)
        assert ts == tuple(sorted(ts))
    # per-set substreams: same seed reproduces, different seed does not
    assert sets == sample_test_sets(sp, ratio=0.9, count=5, seed=3)
    assert sets != sample_test_sets(sp, ratio=0.9, count=5, seed=4)


def test_sample_test_sets_forces_include():
    g = Graph(n=80, edges=frozenset())
    sp = make_splits(g, seed=1)
    include = sp.vulnerable
    sets = sample_test_sets(sp, ratio=0.5, count=8, seed=0, include=include)
    for ts in sets:
        assert set(include) <= set(ts)
        assert len(ts) == round(0.5 * len(sp.test_pool))


def test_sample_test_sets_validation():
    g = Graph(n=40, edges=frozenset())
    sp = make_splits(g, seed=0)
    with pytest.raises(DataError):
        sample_test_sets(sp, ratio=0.0, count=1, seed=0)
    with pytest.raises(DataError):
        sample_test_sets(sp, ratio=0.5, count=0, seed=0)
    with pytest.raises(DataError):
        sample_test_sets(sp, ratio=0.5, count=1, seed=0, include=(0,))  # train node
    with pytest.raises(DataError):
        sample_test_sets(sp, ratio=0.1, count=1, seed=0, include=sp.test_pool)


def test_bundled_dataset_matches_generator(tmp_path):
    root = bundled_fixture_dir("sbm200")
    import os

    g, X, lab = load_dataset(
        os.path.join(root, "edges.txt"),
        os.path.join(root, "features.csv"),
        os.path.join(root, "labels.csv"),
    )
    g2, X2, lab2 = make_small()
    assert g == g2
    np.testing.assert_allclose(X, X2, atol=1e-9)
    np.testing.assert_array_equal(lab.y, lab2.y)
    np.testing.assert_array_equal(lab.s, lab2.s)


def test_write_dataset_round_trip(tmp_path):
    g = Graph(n=4, edges=frozenset({(0, 2), (1, 3)}))
    X = np.array([[0.5, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    lab = NodeLabels(y=[0, 1, 0, 1], s=[1, 1, 0, 0])
    import os

    write_dataset(str(tmp_path), g, X, lab)
    g2, X2, lab2 = load_dataset(
        os.path.join(tmp_path, "edges.txt"),
        os.path.join(tmp_path, "features.csv"),
        os.path.join(tmp_path, "labels.csv"),
    )
    assert g2 == g
    np.testing.assert_allclose(X2, X)
    np.testing.assert_array_equal(lab2.y, lab.y)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = np.array([p for p, k in zip(pairs, keep) if k], dtype=np.int64).reshape(-1, 2)
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n * d, max_size=n * d))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return Graph(n, edges), np.array(cells).reshape(n, d), NodeLabels(y=draw(bits), s=draw(bits))


@given(_datasets())
@settings(max_examples=60, deadline=None)
def test_write_then_load_round_trips(dataset):
    g, X, lab = dataset
    with tempfile.TemporaryDirectory() as root:
        write_dataset(root, g, X, lab)
        g2, X2, lab2 = load_dataset(*(os.path.join(root, f) for f in ("edges.txt", "features.csv", "labels.csv")))
    assert g2 == g
    np.testing.assert_array_equal(X2.view(np.int64), X.view(np.int64))  # bit for bit, down to the sign of zero
    np.testing.assert_array_equal(lab2.y, lab.y)
    np.testing.assert_array_equal(lab2.s, lab.s)
