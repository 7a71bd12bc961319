"""The SBM generator: bit for bit against the all-pairs oracle, bounded memory, and its input checks."""

import tracemalloc

import numpy as np
import pytest

from elegant import fixtures
from oracles import make_sbm_oracle


def generator_kwargs(make, **kw):
    """The keyword arguments make (a named fixture generator) passes to make_sbm."""
    seen, real = {}, fixtures.make_sbm
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fixtures, "make_sbm", lambda **args: seen.update(args) or real(**args))
        make(**kw)
    return seen


def assert_same_world(kwargs):
    g, X, labels = fixtures.make_sbm(**kwargs)
    g_ref, X_ref, labels_ref = make_sbm_oracle(**kwargs)
    assert g.n == g_ref.n and np.array_equal(g.keys, g_ref.keys)
    assert X.tobytes() == X_ref.tobytes()
    assert labels.y.tobytes() == labels_ref.y.tobytes()
    assert labels.s.tobytes() == labels_ref.s.tobytes()


@pytest.mark.parametrize(
    "make, kw",
    [(fixtures.make_german_like, {"seed": 0}), (fixtures.make_german_like, {"seed": 3}), (fixtures.make_small, {})],
    ids=["sbm-german-0", "sbm-german-3", "sbm-small"],
)
def test_named_fixtures_match_the_all_pairs_oracle(make, kw):
    assert_same_world(generator_kwargs(make, **kw))


BASE = {"d": 6, "seed": 5, "p_in": 0.3, "p_out": 0.1, "p_s_given_y1": 0.7, "p_s_given_y0": 0.3, "label_noise": 0.2}


@pytest.mark.parametrize(
    "block, change",
    [
        (None, {"n": 1}),
        (None, {"n": 2}),
        # 79,800 pairs: the first block ends inside row 230, and the second is a partial one
        (None, {"n": 400}),
        # rows 0 to 23 are each longer than a block; the last rows share one
        (5, {"n": 30}),
        (1, {"n": 9}),
        (7, {"n": 40, "p_in": 0.0, "p_out": 1.0}),
        (7, {"n": 40, "p_in": 1.0, "p_out": 0.0}),
        (None, {"n": 50, "p_in": 0.0, "p_out": 0.0}),
        (None, {"n": 50, "p_in": 1.0, "p_out": 1.0, "label_noise": 0.0}),
    ],
)
def test_make_sbm_matches_the_all_pairs_oracle(monkeypatch, block, change):
    if block is not None:
        monkeypatch.setattr(fixtures, "EDGE_BLOCK", block)
    assert_same_world(dict(BASE, **change))


def test_make_sbm_edges_need_no_all_pairs_memory():
    """At n = 5,000 with sbm-german's mean degree an all-pairs draw peaks near 400 MB; the blocked one stays within 32 MB."""
    n = 5000
    kwargs = generator_kwargs(fixtures.make_german_like, seed=0)
    kwargs.update(n=n, p_in=kwargs["p_in"] * 1000 / n, p_out=kwargs["p_out"] * 1000 / n)
    tracemalloc.start()
    try:
        g, _, _ = fixtures.make_sbm(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 40_000 < g.n_edges < 70_000
    assert peak < 32 * 2**20, f"make_sbm peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "name, value",
    [
        ("n", 10.5),
        ("p_in", 1.5),
        ("p_in", float("nan")),
        ("p_out", -0.1),
        ("p_s_given_y1", 2.0),
        ("p_s_given_y0", float("nan")),
    ],
)
def test_make_sbm_refuses_impossible_inputs(name, value):
    kwargs = dict(BASE, n=20)
    kwargs[name] = value
    with pytest.raises(ValueError, match=rf"^{name} must .*, got {value}$"):
        fixtures.make_sbm(**kwargs)
