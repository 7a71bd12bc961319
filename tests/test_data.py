"""Containers, the three-file loader, splits, and test-set sampling."""

import logging
import os
import re
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
from elegant.fixtures import bundled_fixture_dir, make_small
from elegant.smoothing import DOMAIN_TESTSET, substream
from oracles import flip_oracle


def write_dataset(directory: str, g: Graph, X: np.ndarray, labels: NodeLabels) -> None:
    """Write the three-file text format load_dataset reads.

    Edges are listed in both directions, matching the usual directed
    adjacency dumps the loader deduplicates.  Attributes are written as the
    shortest decimal that parses back to the same double, so every finite
    value round-trips exactly.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "edges.txt"), "w") as fh:
        e = g.edge_array()
        both = np.concatenate([e, e[:, ::-1]])
        np.savetxt(fh, both[np.lexsort((both[:, 1], both[:, 0]))], fmt="%d")
    with open(os.path.join(directory, "features.csv"), "w") as fh:
        fh.write(",".join(f"c{j}" for j in range(X.shape[1])) + "\n")
        for row in X:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    with open(os.path.join(directory, "labels.csv"), "w") as fh:
        fh.write("node_id,label,sensitive\n")
        for i in range(labels.n):
            fh.write(f"{i},{labels.y[i]},{labels.s[i]}\n")


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


@pytest.mark.parametrize("n", [2.7, float("nan"), float("inf")])
def test_graph_refuses_a_node_count_that_is_not_an_integer(n):
    # 2.7 used to build a 2-node graph, and NaN or inf failed inside int()
    with pytest.raises(DataError, match=f"graph needs an integer node count, got n={n}"):
        Graph(n, [(0, 1)])
    g = Graph(3.0, [(0, 1)])
    assert g.n == 3 and type(g.n) is int


def test_graph_canonicalizes_any_pair_form():
    rows = [(1, 3), (0, 2), (0, 1)]
    g = Graph(4, np.array(rows))
    np.testing.assert_array_equal(g.edge_array(), [[0, 1], [0, 2], [1, 3]])
    assert g.edge_array().dtype == np.int64
    assert not g.edge_array().flags.writeable
    # keys: the sorted u n + v and v n + u of every row, whatever the input form
    want = sorted([u * 4 + v for u, v in rows] + [v * 4 + u for u, v in rows])
    for form in (np.array(rows), rows, frozenset(rows), iter(rows), np.array(rows[::-1], dtype=float)):
        keys = Graph(4, form).keys
        assert keys.dtype == np.int64 and not keys.flags.writeable
        assert keys.tolist() == want
    empty = Graph(3)
    assert empty.keys.dtype == np.int64 and empty.keys.shape == (0,) and not empty.keys.flags.writeable
    assert empty.n_edges == 0 and empty.edges == frozenset()
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
        # a cast would store (0.5, 1.7) as edge (0, 1), and NaN as the smallest int64
        ([(0.0, 3.0), (0.5, 1.7)], "edge endpoints must be integers; 0.5 is not one"),
        ([(0.0, np.nan)], "edge endpoints must be integers; nan is not one"),
        ([(np.inf, 1.0)], "edge endpoints must be integers; inf is not one"),
    ],
    ids=["duplicate", "reversed", "self-loop", "negative", "out-of-range", "three-columns", "one-dimensional", "fraction", "nan", "inf"],
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
    # the toggled keys are those of a graph built afresh from the oracle's edge set
    fresh = Graph(n, flip_oracle(edges, pairs))
    assert flipped.keys.dtype == np.int64 and flipped.keys.tobytes() == fresh.keys.tobytes()
    assert not flipped.keys.flags.writeable
    assert flipped == fresh and hash(flipped) == hash(fresh) and flipped.n_edges == fresh.n_edges
    twice = flipped.flip(pairs)
    assert twice == g and twice.keys.tobytes() == g.keys.tobytes() and not twice.keys.flags.writeable


def test_flip_rejects_bad_pairs():
    g = Graph(3, [(0, 1)])
    with pytest.raises(DataError):
        g.flip([(1, 2), (1, 2)])
    with pytest.raises(DataError):
        g.flip([(2, 1)])
    with pytest.raises(DataError, match="edge endpoints must be integers; 1.5 is not one"):
        g.flip([(1, 1.5)])
    # integral floats name the same pairs as integers
    assert g.flip([(1.0, 2.0)]) == g.flip([(1, 2)])


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


def test_loader_collapses_mirrored_listings_without_a_warning(caplog):
    root = bundled_fixture_dir("sbm200")
    # sbm200 lists every edge in both directions
    with caplog.at_level(logging.DEBUG, logger="elegant.data"):
        g, _, _ = load_dataset(*(os.path.join(root, name) for name in ("edges.txt", "features.csv", "labels.csv")))
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert caplog.records[0].getMessage().endswith(f"edges.txt: {len(g.edge_array())} pairs listed in both directions, each one undirected edge")


def test_loader_warns_of_repeated_listings_and_self_loops(tmp_path, caplog):
    edges = _write(tmp_path, "e.txt", "1 2\n0 1\n1 2\n2 1\n1 2\n0 0\n")
    attrs = _write(tmp_path, "x.csv", "1.0\n2.0\n3.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n2,0,1\n")
    with caplog.at_level(logging.WARNING, logger="elegant.data"):
        g, _, _ = load_dataset(edges, attrs, labels)
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert [r.getMessage() for r in caplog.records] == [f"{edges}: dropped 1 self loops", f"{edges}: dropped 2 repeated listings of a pair"]


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


def test_loader_names_the_first_ragged_attribute_row(tmp_path):
    edges = _write(tmp_path, "e.txt", "")
    attrs = _write(tmp_path, "x.csv", "a,b\n1.0,2.0\n3.0,4.0\n5.0\n6.0,7.0,8.0\n")
    labels = _write(tmp_path, "y.csv", "0,0,0\n1,1,1\n2,0,1\n3,1,0\n")
    with pytest.raises(DataError, match="x.csv: ragged attribute rows: the row of node 2 has 1 values, the first row 2"):
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


@pytest.mark.parametrize("seed", [2**64, -1])
def test_make_splits_refuses_a_seed_outside_64_bits(seed):
    # not wrapped: 2**64 would rerun seed 0's splits, and -1 those of 2**64 - 1
    g = Graph(n=60, edges=frozenset())
    with pytest.raises(ValueError, match=r"^master seed out of range \[0, 2\*\*64\)"):
        make_splits(g, seed=seed)
    make_splits(g, seed=2**64 - 1)


def test_make_splits_rejects_bad_fractions():
    g = Graph(n=10, edges=frozenset())
    with pytest.raises(DataError):
        make_splits(g, seed=0, train_frac=0.6, val_frac=0.4)
    with pytest.raises(DataError):
        make_splits(g, seed=0, train_frac=-0.1, val_frac=0.5)
    with pytest.raises(DataError):
        make_splits(g, seed=0, vul_frac=1.5)
    # NaN passes every comparison of the range check, and would fail inside round()
    for name in ("train_frac", "val_frac"):
        with pytest.raises(DataError, match=f"{name} must be finite, got nan"):
            make_splits(g, seed=0, **{name: float("nan")})


def test_sample_test_sets_draws_from_pool():
    g = Graph(n=80, edges=frozenset())
    sp = make_splits(g, seed=1)
    sets = sample_test_sets(sp, ratio=0.9, count=5, seed=3)
    size = round(0.9 * len(sp.test_pool))
    for ts in sets:
        assert len(ts) == size
        assert set(ts) <= set(sp.test_pool)
        assert np.array_equal(ts, sorted(ts))
    # per-set substreams: same seed reproduces, different seed does not
    assert np.array_equal(sets, sample_test_sets(sp, ratio=0.9, count=5, seed=3))
    assert not np.array_equal(sets, sample_test_sets(sp, ratio=0.9, count=5, seed=4))


def test_sample_test_sets_equal_fresh_substream_draws():
    g = Graph(n=300, edges=frozenset())
    sp = make_splits(g, seed=2)
    include = sp.vulnerable
    rest = np.array([i for i in sp.test_pool if i not in set(include)], dtype=np.int64)
    for seed, ratio in ((0, 0.9), (7, 0.3)):
        sets = sample_test_sets(sp, ratio=ratio, count=60, seed=seed, include=include)
        size = round(ratio * len(sp.test_pool)) - len(include)
        for j, ts in enumerate(sets):
            draw = substream(seed, DOMAIN_TESTSET, j).choice(rest, size=size, replace=False)
            assert np.array_equal(ts, sorted(draw.tolist() + list(include)))


def test_sample_test_sets_return_a_read_only_sorted_matrix():
    g = Graph(n=300, edges=frozenset())
    sp = make_splits(g, seed=2)
    rest = np.array([i for i in sp.test_pool if i not in set(sp.vulnerable)], dtype=np.int64)
    for include in ((), sp.vulnerable):
        sets = sample_test_sets(sp, ratio=0.4, count=25, seed=5, include=include)
        size = round(0.4 * len(sp.test_pool))
        assert sets.dtype == np.int64 and sets.shape == (25, size)
        assert not sets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sets[0, 0] = -1
        assert (np.diff(sets, axis=1) > 0).all()
        pool = rest if include else np.array(sp.test_pool, dtype=np.int64)
        for j, row in enumerate(sets):
            draw = substream(5, DOMAIN_TESTSET, j).choice(pool, size=size - len(include), replace=False)
            np.testing.assert_array_equal(row, np.sort(np.concatenate([draw, np.array(include, dtype=np.int64)])))


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


@pytest.mark.parametrize("node", [171.7, float("nan"), float("inf")])
def test_sample_test_sets_refuses_include_ids_that_are_not_integers(node):
    # 171.7 used to force node 171 into every set, and NaN failed inside int()
    sp = make_splits(make_small()[0], seed=0)
    assert 171 in sp.test_pool
    with pytest.raises(DataError, match=re.escape(f"include nodes must be integers; {node} is not one")):
        sample_test_sets(sp, 0.5, 3, 0, include=[171, node])
    np.testing.assert_array_equal(sample_test_sets(sp, 0.5, 3, 0, include=[171.0]), sample_test_sets(sp, 0.5, 3, 0, include=[171]))


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
