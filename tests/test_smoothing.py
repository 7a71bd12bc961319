"""Substreams, noise samplers, and the eligible-pair domain."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from elegant import smoothing
from elegant.attack import attribute_attack
from elegant.data import Graph, NodeLabels, SplitSpec
from elegant.fairness import BiasThreshold
from elegant.pipeline import PredictionCache, certify_sets
from elegant.smoothing import (
    DOMAIN_ATTRIBUTE,
    DOMAIN_STRUCTURE,
    AttributeNoise,
    SmoothingConfig,
    StructureMask,
    apply_attribute_noise,
    apply_structure_mask,
    domain_size,
    eligible_pairs,
    sample_attribute_noise,
    sample_structure_mask,
    substream,
)
from oracles import eligible_pairs_oracle


def test_substream_reproducible_and_order_free():
    a = substream(42, DOMAIN_STRUCTURE, 7).random(5)
    b = substream(42, DOMAIN_STRUCTURE, 7).random(5)
    np.testing.assert_array_equal(a, b)
    # drawing stream 9 first must not change stream 7
    substream(42, DOMAIN_STRUCTURE, 9).random(100)
    np.testing.assert_array_equal(substream(42, DOMAIN_STRUCTURE, 7).random(5), a)


def test_substream_keys_are_disjoint():
    base = substream(0, DOMAIN_STRUCTURE, 0).random(4)
    assert not np.array_equal(base, substream(0, DOMAIN_STRUCTURE, 1).random(4))
    assert not np.array_equal(base, substream(0, DOMAIN_ATTRIBUTE, 0).random(4))
    assert not np.array_equal(base, substream(1, DOMAIN_STRUCTURE, 0).random(4))


def test_substream_stream_id_bounds():
    substream(0, DOMAIN_STRUCTURE, (1 << 56) - 1)
    with pytest.raises(ValueError):
        substream(0, DOMAIN_STRUCTURE, 1 << 56)
    with pytest.raises(ValueError):
        substream(0, DOMAIN_STRUCTURE, -1)


def test_substream_first_draws_look_uniform():
    # smoke check: first uniform from many consecutive streams
    u = np.array([substream(5, DOMAIN_ATTRIBUTE, j).random() for j in range(512)])
    counts, _ = np.histogram(u, bins=8, range=(0, 1))
    assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": 0.0},
        {"sigma": -1.0},
        {"beta": 0.5},
        {"beta": 1.0},
        {"n_outer": 0},
        {"n_inner": 0},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"metric": "parity"},
        {"k_max": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SmoothingConfig(**kwargs)


@pytest.mark.parametrize("field", ["sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .* finite, got {value}"):
        SmoothingConfig(**{field: value})


def test_config_has_no_threshold():
    # the bias threshold is a fairness.BiasThreshold passed to every certification call, never a config field
    with pytest.raises(TypeError, match="'eta'"):
        SmoothingConfig(eta=0.1)


def test_eligible_pairs_small_case():
    pairs = eligible_pairs(5, [1, 3])
    expected = {(0, 1), (1, 2), (1, 3), (1, 4), (0, 3), (2, 3), (3, 4)}
    assert set(map(tuple, pairs.tolist())) == expected
    assert pairs.shape[0] == domain_size(5, 2)
    # sorted lexicographically
    assert pairs.tolist() == sorted(pairs.tolist())


def test_eligible_pairs_validation():
    with pytest.raises(ValueError):
        eligible_pairs(5, [])
    with pytest.raises(ValueError):
        eligible_pairs(5, [5])


_N = 6
_G, _X = Graph(n=_N, edges=[(0, 1)]), np.zeros((_N, 2))
_CFG = SmoothingConfig(n_outer=2, n_inner=2)
_LABELS = NodeLabels(y=np.zeros(_N, dtype=int), s=np.zeros(_N, dtype=int))


def _split(vulnerable):
    return SplitSpec(train=(), validation=(), test_pool=tuple(sorted(set(range(_N)) | set(vulnerable))), vulnerable=vulnerable)


# every entry point that takes a vulnerable set; each rejects a bad one before it uses the model
_VULNERABLE_ENTRY_POINTS = {
    "eligible_pairs": lambda vul: eligible_pairs(_N, vul),
    "sample_attribute_noise": lambda vul: sample_attribute_noise(_CFG, vul, _X.shape[1], 0),
    "PredictionCache.build": lambda vul: PredictionCache.build(None, _G, _X, vul, _CFG),
    "certify_sets": lambda vul: certify_sets(None, _G, _X, _LABELS, _split(vul), [range(_N)], _CFG, eta=BiasThreshold.absolute(0.1)),
    "attribute_attack": lambda vul: attribute_attack(None, _G, _X, _LABELS, vul, 1.0),
    "apply_attribute_noise": lambda vul: apply_attribute_noise(_X, AttributeNoise(block=np.ones((len(vul), _X.shape[1])), vulnerable=tuple(vul))),
}
_BAD_VULNERABLE = {
    "empty": ((), "vulnerable set must be nonempty"),
    "negative": ((-1, 0), "vulnerable ids out of range"),
    "past n": ((0, _N), "vulnerable ids out of range"),  # needs n, which sample_attribute_noise lacks
    "fraction": ((1.5, 2.7, 3.0), "vulnerable ids must be integers; 1.5 is not one"),  # not truncated to nodes 1 and 2
    "nan": ((0, np.nan), "vulnerable ids must be integers; nan is not one"),
    "inf": ((np.inf,), "vulnerable ids must be integers; inf is not one"),
}


@pytest.mark.parametrize(
    "entry,case",
    [(e, c) for e in _VULNERABLE_ENTRY_POINTS for c in _BAD_VULNERABLE if (e, c) != ("sample_attribute_noise", "past n")],
)
def test_entry_points_reject_bad_vulnerable_sets_alike(entry, case):
    vulnerable, message = _BAD_VULNERABLE[case]
    with pytest.raises(ValueError, match=message):
        _VULNERABLE_ENTRY_POINTS[entry](vulnerable)


def test_vulnerable_ids_are_sorted_and_distinct():
    got = smoothing.vulnerable_ids([4, 1, 4, 0], n=5)
    assert got.dtype == np.int64 and got.tolist() == [0, 1, 4]
    assert smoothing.vulnerable_ids((7,)).tolist() == [7]  # no n: only the lower bound is checked


def test_domain_size_conventions():
    # unordered pairs, vulnerable-vulnerable pairs counted once
    assert domain_size(100, 5) == 5 * 95 + 10


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eligible_pairs_match_brute_force(data):
    n = data.draw(st.integers(1, 25))
    vulnerable = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    pairs = eligible_pairs(n, vulnerable)
    want = eligible_pairs_oracle(n, vulnerable)
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [list(p) for p in want]
    assert pairs.shape == (domain_size(n, len(set(vulnerable))), 2)


def test_structure_mask_flip_rate():
    g = Graph(n=400, edges=frozenset())
    vul = tuple(range(10))
    cfg = SmoothingConfig(beta=0.9, master_seed=0)
    d = domain_size(400, 10)
    flips = [len(sample_structure_mask(cfg, g, vul, stream_id=j).pairs) for j in range(40)]
    total = sum(flips)
    expect = 40 * d * 0.1
    sd = np.sqrt(40 * d * 0.1 * 0.9)
    assert abs(total - expect) < 5 * sd


def test_structure_mask_pairs_are_eligible_and_deterministic():
    g = Graph(n=30, edges=frozenset({(0, 1)}))
    vul = (2, 5)
    cfg = SmoothingConfig(beta=0.6, master_seed=3)
    mask = sample_structure_mask(cfg, g, vul, stream_id=4)
    allowed = set(map(tuple, eligible_pairs(30, vul).tolist()))
    assert mask.pairs.ndim == 2 and mask.pairs.shape[1] == 2
    assert set(map(tuple, mask.pairs.tolist())) <= allowed
    assert mask.pairs.tolist() == sorted(mask.pairs.tolist())
    again = sample_structure_mask(cfg, g, vul, stream_id=4)
    np.testing.assert_array_equal(mask.pairs, again.pairs)
    other = sample_structure_mask(cfg, g, vul, stream_id=5)
    assert not np.array_equal(mask.pairs, other.pairs)
    # passing the enumerated pairs draws the same mask from the same stream
    given = sample_structure_mask(cfg, g, vul, stream_id=4, pairs=eligible_pairs(30, vul))
    np.testing.assert_array_equal(mask.pairs, given.pairs)


def test_attribute_noise_scale_and_shape():
    cfg = SmoothingConfig(sigma=0.7, master_seed=1)
    noise = sample_attribute_noise(cfg, (4, 9, 2), d=50, stream_id=0)
    assert noise.block.shape == (3, 50)
    assert noise.vulnerable == (2, 4, 9)
    draws = np.concatenate(
        [sample_attribute_noise(cfg, (0, 1), d=200, stream_id=j).block.ravel() for j in range(30)]
    )
    assert abs(draws.std() - 0.7) < 0.02
    assert abs(draws.mean()) < 0.02


def test_attribute_noise_deterministic():
    cfg = SmoothingConfig(master_seed=8)
    a = sample_attribute_noise(cfg, (1,), d=4, stream_id=11)
    b = sample_attribute_noise(cfg, (1,), d=4, stream_id=11)
    np.testing.assert_array_equal(a.block, b.block)
    with pytest.raises(ValueError):
        sample_attribute_noise(cfg, (), d=4, stream_id=0)


@pytest.mark.parametrize("count", [1, 2, 150])
def test_attribute_noise_count_stacks_the_single_stream_blocks(count):
    cfg = SmoothingConfig(sigma=0.3, master_seed=5)
    vul, d = (3, 17, 8), 27
    for first in (0, 1_000, 2**56 - count):
        block = sample_attribute_noise(cfg, vul, d, stream_id=first, count=count).block
        assert block.shape == (count, len(vul), d)
        want = np.stack([sample_attribute_noise(cfg, vul, d, stream_id=first + i).block for i in range(count)])
        np.testing.assert_array_equal(block.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError, match="stream_id out of range"):
        sample_attribute_noise(cfg, vul, d, stream_id=2**56 - count, count=count + 1)


def test_attribute_noise_threads_each_draw_their_own_streams(monkeypatch):
    """Four threads re-key their generators in lockstep; each draw still equals a fresh substream's."""
    cfg = SmoothingConfig(sigma=0.3, master_seed=12)
    vul, d, threads = (7, 2, 5), 6, 4
    all_keyed = threading.Barrier(threads)
    rekeyed = smoothing._rekeyed

    def rekey_then_wait(*key):
        rng = rekeyed(*key)
        all_keyed.wait(timeout=10)  # every thread re-keys before any draws
        return rng

    monkeypatch.setattr(smoothing, "_rekeyed", rekey_then_wait)
    ids = {t: [t, t + threads, t + 2 * threads, 2**56 - 1 - t, 2] for t in range(threads)}
    blocks = {}

    def draw(t):
        blocks[t] = [sample_attribute_noise(cfg, vul, d, stream_id=i).block for i in ids[t]]

    workers = [threading.Thread(target=draw, args=(t,)) for t in ids]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()
    for t, stream_ids in ids.items():
        for i, block in zip(stream_ids, blocks[t]):
            want = cfg.sigma * substream(cfg.master_seed, DOMAIN_ATTRIBUTE, i).standard_normal((len(vul), d))
            np.testing.assert_array_equal(block, want)


def test_apply_structure_mask_flips_both_ways():
    g = Graph(n=4, edges=frozenset({(0, 1), (2, 3)}))
    mask = StructureMask(pairs=np.array([[0, 1], [1, 2]]))
    out = apply_structure_mask(g, mask)
    assert out.edges == frozenset({(2, 3), (1, 2)})
    # applying the same mask twice restores the original graph
    assert apply_structure_mask(out, mask).edges == g.edges


def test_apply_attribute_noise_touches_only_vulnerable_rows():
    X = np.zeros((5, 3))
    from elegant.smoothing import AttributeNoise

    noise = AttributeNoise(block=np.ones((2, 3)), vulnerable=(1, 4))
    out = apply_attribute_noise(X, noise)
    np.testing.assert_array_equal(out[[1, 4]], 1.0)
    np.testing.assert_array_equal(out[[0, 2, 3]], 0.0)
    np.testing.assert_array_equal(X, 0.0)  # input untouched


def test_apply_attribute_noise_rejects_a_repeated_id():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="vulnerable id 1 is listed more than once"):
        apply_attribute_noise(X, AttributeNoise(block=np.array([[1.0, 1.0], [2.0, 2.0]]), vulnerable=(1, 1)))
    with pytest.raises(ValueError, match="vulnerable id 3 is listed more than once"):
        apply_attribute_noise(X, AttributeNoise(block=np.ones((4, 2)), vulnerable=(3, 0, 2, 3)))
    # distinct ids keep their given order: block row i goes to vulnerable[i]
    out = apply_attribute_noise(X, AttributeNoise(block=np.array([[1.0, 1.0], [2.0, 2.0]]), vulnerable=(3, 1)))
    np.testing.assert_array_equal(out, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_apply_attribute_noise_validates():
    from elegant.smoothing import AttributeNoise

    X = np.zeros((5, 3))
    with pytest.raises(ValueError):
        apply_attribute_noise(X, AttributeNoise(block=np.ones((2, 2)), vulnerable=(1, 4)))
    with pytest.raises(ValueError):
        apply_attribute_noise(X, AttributeNoise(block=np.ones((1, 3)), vulnerable=(7,)))
