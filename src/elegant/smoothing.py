"""Noise samplers for the dual smoothing construction.

Every draw comes from a counter-based Philox generator keyed purely by
(master_seed, domain, stream_id), so any sample can be regenerated in
isolation and parallel schedules cannot change results.  Structure noise
flips each eligible pair (a pair with at least one vulnerable endpoint)
independently with probability 1 - beta; a mask holds the flipped rows of
the sorted (D, 2) `eligible_pairs` array and is applied with `Graph.flip`.
Attribute noise adds isotropic Gaussian rows of scale sigma to the
vulnerable rows.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass
from math import comb

import numpy as np

from .certify import DEFAULT_K_MAX
from .fairness import METRICS, integral_ids

# substream domains; disjoint keys keep every consumer independent
DOMAIN_STRUCTURE = 1
DOMAIN_ATTRIBUTE = 2
DOMAIN_SPLIT = 3
DOMAIN_TESTSET = 4
DOMAIN_TRAIN = 5
DOMAIN_ATTACK = 6
DOMAIN_PROBE = 7

_STREAM_BITS = 56
# per thread, one generator that _rekeyed points at a stream per draw
_THREAD = threading.local()


def _key(master_seed: int, domain: int, stream_id: int) -> np.ndarray:
    """The Philox key of a substream; a master seed outside [0, 2**64) is refused, not wrapped onto another seed's streams."""
    if not 0 <= operator.index(master_seed) < 1 << 64:
        raise ValueError(f"master seed out of range [0, 2**64): {master_seed}")
    if stream_id < 0 or stream_id >= 1 << _STREAM_BITS:
        raise ValueError(f"stream_id out of range: {stream_id}")
    return np.array([master_seed, (domain << _STREAM_BITS) | stream_id], dtype=np.uint64)


def _require_integers(config, names) -> None:
    """Raise ValueError naming the first field of config among names that is not an integer; a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def substream(master_seed: int, domain: int, stream_id: int) -> np.random.Generator:
    """Generator keyed by (master_seed, domain, stream_id); order independent."""
    return np.random.Generator(np.random.Philox(key=_key(master_seed, domain, stream_id)))


def _rekeyed(master_seed: int, domain: int, stream_id: int) -> np.random.Generator:
    """substream(master_seed, domain, stream_id), as this thread's one reused generator.

    Setting a Philox's state to the key with counter 0 and an empty buffer
    gives the stream a fresh Philox(key=key) gives, without building one.
    The generator is valid only until the thread's next call, so a caller
    draws from it and lets go.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(0))
    zero, key = np.zeros(4, dtype=np.uint64), _key(master_seed, domain, stream_id)
    state = {"counter": zero, "key": key}
    rng.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


@dataclass(frozen=True)
class SmoothingConfig:
    """Parameters of the dual smoothing scheme.

    sigma: Gaussian scale on vulnerable attribute rows.
    beta: probability an eligible pair keeps its state (must exceed 1/2).
    n_outer: Bernoulli structure masks drawn per certification.
    n_inner: Gaussian attribute draws per structure mask.
    alpha: miscoverage of each Monte-Carlo confidence bound.  The pipeline
        spends it separately on every inner Clopper-Pearson bound and again
        on the outer one, with no union bound; what that implies for the
        joint certificate is open (ROADMAP item 1).
    metric: one of fairness.METRICS (each certification call takes eta).
    master_seed: root of every substream.
    k_max: cap of the structure budget search.
    strict: abstain the whole run when an inner vote stays undecided; when
        False an undecided outer sample is counted as a vote against.
    """

    sigma: float = 0.25
    beta: float = 0.9
    n_outer: int = 200
    n_inner: int = 150
    alpha: float = 0.3
    metric: str = "sp"
    master_seed: int = 0
    k_max: int = DEFAULT_K_MAX
    strict: bool = True

    def __post_init__(self):
        _require_integers(self, ("n_outer", "n_inner", "k_max", "master_seed"))
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be a bool, got {self.strict!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.5 < self.beta < 1:
            raise ValueError(f"beta must lie strictly in (1/2, 1), got {self.beta}")
        if self.n_outer < 1 or self.n_inner < 1:
            raise ValueError("sample counts must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be {' or '.join(map(repr, METRICS))}, got {self.metric!r}")
        if self.k_max < 0:
            raise ValueError(f"k_max must be nonnegative, got {self.k_max}")


@dataclass(frozen=True)
class AttributeNoise:
    """Gaussian rows for the vulnerable nodes; block has shape (len(vulnerable), d)."""

    block: np.ndarray
    vulnerable: tuple


@dataclass(frozen=True)
class StructureMask:
    """Pairs to flip as a (k, 2) int array of eligible-pair rows."""

    pairs: np.ndarray


def vulnerable_ids(vulnerable, n: int | None = None) -> np.ndarray:
    """The vulnerable node ids as a sorted, duplicate-free int64 array.

    Raises ValueError when there are none, naming an id that is not an
    integer (a fraction, NaN or inf), or when an id is negative or, given
    the node count n, at least n.
    """
    vul = np.unique(integral_ids(vulnerable, "vulnerable ids"))
    if vul.size == 0:
        raise ValueError("vulnerable set must be nonempty")
    if vul[0] < 0 or (n is not None and vul[-1] >= n):
        raise ValueError("vulnerable ids out of range")
    return vul


def eligible_pairs(n: int, vulnerable) -> np.ndarray:
    """All unordered pairs with at least one vulnerable endpoint, sorted.

    Shape (D, 2) with D = |V|(n - |V|) + C(|V|, 2); the diagonal is excluded
    and each vulnerable-vulnerable pair appears once.
    """
    vul = vulnerable_ids(vulnerable, n)
    is_vul = np.zeros(n, dtype=bool)
    is_vul[vul] = True
    a = np.repeat(vul, n)  # vulnerable endpoint
    b = np.tile(np.arange(n, dtype=np.int64), vul.size)  # any other node
    keep = ~is_vul[b] | (b > a)  # vulnerable-vulnerable pairs once, from the smaller id
    a, b = a[keep], b[keep]
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return np.column_stack((keys // n, keys % n))


def domain_size(n: int, n_vul: int) -> int:
    """Number of eligible pairs: unordered pairs with a vulnerable endpoint."""
    return n_vul * (n - n_vul) + comb(n_vul, 2)


def sample_structure_mask(cfg: SmoothingConfig, g, vulnerable, stream_id: int, pairs=None) -> StructureMask:
    """Bernoulli mask over the eligible pairs: each flips with probability 1 - beta.

    pairs, if given, must be eligible_pairs(g.n, vulnerable); a caller
    drawing many masks passes it to enumerate the pairs once.
    """
    if pairs is None:
        pairs = eligible_pairs(g.n, vulnerable)
    rng = substream(cfg.master_seed, DOMAIN_STRUCTURE, stream_id)
    flip = rng.random(pairs.shape[0]) < (1.0 - cfg.beta)
    return StructureMask(pairs=pairs[flip])


def sample_attribute_noise(cfg: SmoothingConfig, vulnerable, d: int, stream_id: int, count: int | None = None) -> AttributeNoise:
    """Isotropic Gaussian rows of scale sigma for the vulnerable nodes.

    Given count, the block holds count draws, shape (count, len(vulnerable),
    d): draw i is stream stream_id + i's block, bit for bit, written in
    place by one re-keyed generator, so a mask's inner draws cost one call.
    """
    vul = tuple(vulnerable_ids(vulnerable).tolist())
    block = np.empty((1 if count is None else count, len(vul), d))
    for i, draw in enumerate(block):
        _rekeyed(cfg.master_seed, DOMAIN_ATTRIBUTE, stream_id + i).standard_normal(out=draw)
    block *= cfg.sigma
    return AttributeNoise(block=block[0] if count is None else block, vulnerable=vul)


def apply_structure_mask(g, mask: StructureMask):
    """Flip the masked pairs: present edges drop, absent ones appear."""
    return g.flip(mask.pairs)


def apply_attribute_noise(X: np.ndarray, noise: AttributeNoise) -> np.ndarray:
    """Add block row i to row noise.vulnerable[i] of X, in the given order; returns a new matrix.

    The ids are checked by vulnerable_ids against X's rows, and an id
    listed twice raises ValueError naming it, since one fancy-indexed add
    would keep only one of its rows.
    """
    out = np.array(X, dtype=np.float64, copy=True)
    size = vulnerable_ids(noise.vulnerable, X.shape[0]).size
    idx = np.array(noise.vulnerable, dtype=np.int64)
    if size < idx.size:
        ids = np.sort(idx)
        raise ValueError(f"vulnerable id {ids[1:][ids[1:] == ids[:-1]][0]} is listed more than once")
    if noise.block.shape != (idx.size, X.shape[1]):
        raise ValueError(f"noise block shape {noise.block.shape} does not match ({idx.size}, {X.shape[1]})")
    out[idx] += noise.block
    return out
