"""End-to-end certification of sampled test sets.

For each of n_outer structure masks, the wrapped classifier is evaluated
under n_inner Gaussian attribute draws and each draw's bias indicator
(bias strictly below eta) is recorded.  A Clopper-Pearson bound turns each
mask's indicator counts into a certified inner vote: fair, biased, or
undecided.  The same bound over the outer votes yields p_lower, a lower
confidence bound on the probability that a random mask produces a
certifiably fair vote; p_lower > 1/2 makes the run CERTIFIED with a
structure budget from the region-table search and an attribute budget
equal to the smallest certified inner radius.  The returned prediction is
the class vector of the sampled output with the smallest observed bias
among the indicator-fair draws of inner-certified samples, ties resolved
by stream id; it is picked by one masked argmin over the (n_outer,
n_inner) bias matrix.

All certification effort happens on a prediction cache of shape
(n_outer, n_inner, n): hard classes of the model under every noise pair.
Per structure mask, one sample_attribute_noise call draws the n_inner
Gaussian blocks and the backbone's forward_many writes their classes
straight into the mask's uint8 cache rows (its out=), so the build holds
no logits.  The cache depends only on (model, graph, X, vulnerable,
config), so one cache serves every test set drawn from the same pool, and
its entries are pure functions of the substream key, which makes results
independent of worker scheduling.  A cache keeps the SmoothingConfig it
was built with; certify_sets refuses one built for another vulnerable set,
shape, sigma, beta or master seed.

certify_sets certifies many test sets on one cache, as fcr_run does for
the (count, size) matrix sample_test_sets draws; certify_and_predict is
certify_sets on one set.  Any batch of sets, a matrix or a sequence of
sets of unequal sizes, becomes one flat layout: every set's sorted nodes
in one array, with per-set offsets.  Validation, the metric groups
(fairness.metric_sides), the membership scatter and accuracy are array
operations over that layout.  Per call it gathers the cache's class-1 hits
once (fairness.class1_hits), one column block per sensitive side holding
that side's group nodes, and tabulates the Clopper-Pearson bound of every
count a vote can take, with the inner radii; a vote count has only
n_inner + 1 (outer: n_outer + 1) values.  The sets then go in chunks: one
fairness.rate_gaps call, one count product per side, gives a chunk's
(k, n_outer, n_inner) bias from exact group counts, the tables its
(k, n_outer) evidence by lookup, and array operations its outcomes,
attribute budgets and selections (one select_fair_output call over the
chunk's certified sets); only the reports themselves are built one set at
a time.

A report's records is that evidence for its set: a read-only numpy record
array with one row per outer sample, in stream order, and the fields n1
(indicator-fair inner draws), inner_lower_bound (Clopper-Pearson bound on
the fair-draw probability), inner_certified, decided (False when neither
the fair nor the biased side certified) and attribute_radius (NaN where
the inner vote did not certify).  records[o].n1 reads one sample,
records.n1 the whole column.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import itertools
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .certify import CertifiedBudgets, attribute_radius, structure_budget
from .data import Graph, sample_test_sets
from .estimate import binomial_lower_bound_vec
from .fairness import BiasThreshold, class1_hits, metric_sides, rate_gaps
from .smoothing import (
    SmoothingConfig,
    apply_structure_mask,
    domain_size,
    eligible_pairs,
    sample_attribute_noise,
    sample_structure_mask,
    vulnerable_ids,
)

logger = logging.getLogger(__name__)

CERTIFIED = "CERTIFIED"
ABSTAIN = "ABSTAIN"

# certify_sets handles its sets in chunks whose float64 group rates (two per
# set and draw) take this many bytes: about 43 sets on a 20 x 150 cache
CERTIFY_CHUNK_BYTES = 2 * 2**20

# how every certificate is computed; each report adds its noise_domain_size
CONVENTIONS = {
    "estimation": "one-sided Clopper-Pearson: alpha quantile of Beta(successes, failures + 1)",
    "indicator": "strict inequality, bias < eta",
    "undefined_metric": "indicator forced to 0, logged",
    "budget_unit": "unordered node pairs (flips of eps_A distinct pairs)",
    "d_convention": "deduplicated",
    "tie_break": "smallest bias, then smallest stream id",
}


@dataclass(frozen=True)
class CertificationReport:
    """One test set's certificate; selected_prediction is the released draw's (n,) uint8 classes."""

    outcome: str
    budgets: CertifiedBudgets | None
    selected_prediction: np.ndarray | None
    selected_bias: float | None
    accuracy: float | None
    eta: BiasThreshold
    n_outer_positive: int
    outer_lower_bound: float
    prop1_bound: float
    records: np.recarray
    config: SmoothingConfig
    conventions: dict
    test_set: tuple
    abstain_reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "eps_A": None if self.budgets is None else int(self.budgets.eps_A),
            "eps_X": None if self.budgets is None else float(self.budgets.eps_X),
            "eta": float(self.eta.eta),
            "metric": self.config.metric,
            "bias": None if self.selected_bias is None else float(self.selected_bias),
            "accuracy": None if self.accuracy is None else float(self.accuracy),
            "n_outer_positive": int(self.n_outer_positive),
            "prop1_bound": float(self.prop1_bound),
            "abstain_reason": self.abstain_reason,
            "config": {
                **asdict(self.config),
                "eta": {
                    "value": float(self.eta.eta),
                    "provenance": self.eta.provenance,
                    "multiplier": self.eta.multiplier,
                    "vanilla_bias": self.eta.vanilla_bias,
                },
            },
            "conventions": dict(self.conventions),
        }


def prop1_bound(n: int) -> float:
    """Chance that n independent fair-coin votes all land positive: 2^-n.

    Reported alongside the certificate as the residual probability that the
    observed unanimity of n certified-positive outer votes carries no
    signal at all.
    """
    if n < 0:
        raise ValueError(f"vote count must be nonnegative, got {n}")
    return 0.5**n


class PredictionCache:
    """Hard classes of the model under every (structure mask, Gaussian draw) pair."""

    def __init__(self, classes: np.ndarray, vulnerable: tuple, config: SmoothingConfig):
        self.classes = classes  # (n_outer, n_inner, n) uint8
        self.vulnerable = vulnerable
        self.config = config

    @classmethod
    def build(cls, model, g: Graph, X, vulnerable, cfg: SmoothingConfig, jobs: int = 1):
        """Fill the cache, one forward_many call per structure mask, on jobs threads.

        The calling thread and min(jobs, n_outer) - 1 pool workers take
        masks off one shared iterator, so jobs = 1 starts no thread and no
        worker is started that would find no mask (a worker's own malloc
        arena would add its peak to the process's).  It logs progress at
        INFO about every tenth of the masks, with the elapsed time and an
        ETA, and at the end one DEBUG line with the model's forward_many
        fallbacks (gnn.FallbackCounts) during the build.  With pool workers,
        numpy's bundled OpenBLAS is held to one thread for the build
        (_one_blas_thread): the threads already keep the cores busy.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        n = g.n
        d = X.shape[1]
        vul_idx = vulnerable_ids(vulnerable, n)
        vul = tuple(vul_idx.tolist())
        pairs = eligible_pairs(n, vul)
        classes = np.empty((cfg.n_outer, cfg.n_inner, n), dtype=np.uint8)
        counts = getattr(model, "fallbacks", None)
        before = None if counts is None else (counts.settled, counts.rerun)
        lock, masks, finished, start = threading.Lock(), iter(range(cfg.n_outer)), itertools.count(1), time.perf_counter()
        every = max(1, -(-cfg.n_outer // 10))

        def drain() -> None:
            while True:
                with lock:
                    o = next(masks, None)
                if o is None:
                    return
                mask = sample_structure_mask(cfg, g, vul, stream_id=o, pairs=pairs)
                ops = model.build_ops(apply_structure_mask(g, mask))
                deltas = sample_attribute_noise(cfg, vul, d, o * cfg.n_inner, count=cfg.n_inner).block
                model.forward_many(ops, X, vul_idx, deltas, out=classes[o])
                with lock:
                    k = next(finished)
                if k % every == 0 or k == cfg.n_outer:
                    elapsed = time.perf_counter() - start
                    logger.info("prediction cache: %d/%d masks in %.1f s, ETA %.1f s", k, cfg.n_outer, elapsed, elapsed * (cfg.n_outer - k) / k)

        workers = min(jobs, cfg.n_outer) - 1
        with _one_blas_thread() if workers else contextlib.nullcontext(), ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            helpers = [pool.submit(drain) for _ in range(workers)]
            drain()
            for helper in helpers:
                helper.result()
        if before is not None:
            draws = cfg.n_outer * cfg.n_inner
            logger.debug(
                "prediction cache: %d of %d node-draws settled by the float64 re-evaluation, %d of %d draws rerun on the float64 path",
                counts.settled - before[0], draws * n, counts.rerun - before[1], draws,
            )
        return cls(classes=classes, vulnerable=vul, config=cfg)

    def check(self, vulnerable: tuple, n: int, cfg: SmoothingConfig) -> None:
        """Raise ValueError naming the first field in which this cache differs from a call."""
        n_outer, n_inner, cache_n = self.classes.shape
        fields = {
            "vulnerable": (self.vulnerable, vulnerable),
            "n_outer": (n_outer, cfg.n_outer),
            "n_inner": (n_inner, cfg.n_inner),
            "n": (cache_n, n),
            **{f: (getattr(self.config, f), getattr(cfg, f)) for f in ("sigma", "beta", "master_seed")},
        }
        for name, (built, wanted) in fields.items():
            if built != wanted:
                raise ValueError(f"prediction cache was built for {name}={built!r}, this call has {name}={wanted!r}")


def _bundled_openblas():
    """(get, set) of numpy's bundled OpenBLAS (scipy-openblas) thread count, or None with another BLAS."""
    here = os.path.dirname(np.__file__)
    found = glob.glob(os.path.join(here, os.pardir, "numpy.libs", "libscipy_openblas64_*")) + glob.glob(os.path.join(here, ".dylibs", "libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(found[0])
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread, restoring its count on exit; with another BLAS, do nothing."""
    blas = _bundled_openblas()
    if blas is None:
        logger.debug("no bundled scipy-openblas found; BLAS threads left as they are")
        yield
        return
    get, put = blas
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def select_fair_output(classes: np.ndarray, bias: np.ndarray, eligible: np.ndarray) -> tuple:
    """Class vector and bias of the smallest-bias eligible draw, per set.

    classes is the (n_outer, n_inner, n) cache; bias and eligible are
    (n_outer, n_inner), or (*sets, n_outer, n_inner) for many sets.  Picks
    by one masked argmin over each set's flattened draws; the first
    minimum is the smallest stream id o * n_inner + i, so ties resolve to
    it.  A 2-D call returns (classes[o, i].copy(), float(bias[o, i])), a
    call with set axes the (*sets, n) classes and (*sets,) biases.  Raises
    ValueError when a set has no eligible draw.
    """
    flat = np.where(eligible, bias, np.inf).reshape(*bias.shape[:-2], -1)
    if not eligible.any(axis=(-2, -1)).all():
        raise ValueError("no inner-certified sample to select from")
    pick = flat.argmin(axis=-1)
    draws = classes.reshape(-1, classes.shape[-1])
    if flat.ndim == 1:
        return draws[pick].copy(), float(flat[pick])
    return draws[pick], np.take_along_axis(flat, pick[..., None], axis=-1)[..., 0]


def _flat_sets(test_sets, pool, vulnerable: tuple, n: int) -> tuple:
    """The test sets as one flat layout: (nodes, set of each node, offsets).

    test_sets is a (count, size) matrix or a sequence of node sequences of
    any sizes.  nodes holds every set's members, sorted within each set and
    sets in order; set j is nodes[offsets[j] : offsets[j + 1]].  Raises
    ValueError naming the shape of an array that is not 2-D, and naming the
    set and the node when a set holds a node outside the pool, lists a node
    twice or lacks a vulnerable node.
    """
    if isinstance(test_sets, np.ndarray):
        if test_sets.ndim != 2:
            raise ValueError(f"test sets must be a (count, size) matrix or a sequence of node sequences, got an array of shape {test_sets.shape}")
        sizes = np.full(len(test_sets), test_sets.shape[1], dtype=np.int64)
        flat = test_sets.astype(np.int64, copy=False).ravel()
    else:
        test_sets = list(test_sets)
        sizes = np.fromiter(map(len, test_sets), np.int64, len(test_sets))
        flat = np.fromiter(itertools.chain.from_iterable(test_sets), np.int64, int(sizes.sum()))
    seg = np.repeat(np.arange(sizes.size), sizes)
    inside = flat.clip(0, n - 1)
    outside = (inside != flat) | ~np.isin(np.arange(n), pool)[inside]
    if outside.any():
        i = np.argmax(outside)
        raise ValueError(f"test set {seg[i]} must lie in the test pool; node {flat[i]} does not")
    # one sort orders every set: set j's keys j * n + node sit below set j + 1's
    key = np.sort(seg * n + flat)
    flat = key - seg * n
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        i = repeated[0]
        raise ValueError(f"test set {seg[i]} lists node {flat[i]} more than once")
    vul = np.array(vulnerable, dtype=np.int64)
    lacking = np.bincount(seg[np.isin(np.arange(n), vul)[flat]], minlength=sizes.size) < vul.size
    if lacking.any():
        j = np.argmax(lacking)
        node = np.setdiff1d(vul, flat[seg == j])[0]
        raise ValueError(f"vulnerable nodes must belong to the test set; test set {j} lacks node {node}")
    return flat, seg, np.concatenate([[0], np.cumsum(sizes)])


def _columns(nodes: np.ndarray, n: int) -> tuple:
    """The sorted distinct ids among nodes, and each entry's position among them."""
    covered = np.zeros(n, dtype=bool)
    covered[nodes] = True
    return np.flatnonzero(covered), (np.cumsum(covered) - 1)[nodes]


def certify_sets(model, g: Graph, X, labels, split, test_sets, cfg: SmoothingConfig, jobs: int = 1, cache: PredictionCache | None = None, *, eta: BiasThreshold) -> tuple:
    """Certify the smoothed bias indicator on each test set and pick its output.

    test_sets is a (count, size) node matrix, as sample_test_sets returns,
    or a sequence of node sequences of any sizes; both take one path.
    Returns one CertificationReport per set, in order.  model must already
    be the backbone the smoothing wraps (for defended runs, the
    noise-augmented one); only its build_ops, forward_many and optional
    fallbacks counter are read.  eta, the threshold every draw's bias is
    compared against, is required; cache may be shared across calls with
    identical (model, g, X, vulnerable, cfg), whatever their eta.  Every
    set is validated (members in the pool, each listed once, the
    vulnerable nodes among them), then one cache serves them all; a cache
    whose vulnerable set, shape, sigma, beta or master_seed differs from
    this call raises ValueError, and matching the model, graph and
    attributes is left to the caller.  No sets return () before any cache
    is built.

    The sets become one flat layout, every set's sorted nodes in one
    array, and the work that does not depend on the set is done once per
    call on it: validation, the metric groups, the class-1 hits of every
    draw on each sensitive side's union of group nodes, the
    Clopper-Pearson bound of every possible inner count 0..n_inner and
    outer count 0..n_outer, the inner radii, and one structure budget per
    distinct outer bound.  The sets are then certified in chunks of
    CERTIFY_CHUNK_BYTES worth of group rates: one rate_gaps product per
    sensitive side gives the chunk's (k, n_outer, n_inner) bias, table
    lookups its evidence, and array operations its outcomes, attribute
    budgets, selections and accuracies.
    """
    vul = tuple(vulnerable_ids(split.vulnerable, g.n).tolist())
    flat, seg, offsets = _flat_sets(test_sets, split.test_pool, vul, g.n)
    count = offsets.size - 1
    if count == 0:
        return ()
    if cache is None:
        cache = PredictionCache.build(model, g, X, vul, cfg, jobs=jobs)
    cache.check(vul, g.n, cfg)

    # per sensitive side: the set of each group member and its hits column
    sides = [(seg[m], *_columns(flat[m], g.n)) for m in metric_sides(flat, labels, cfg.metric)]
    group_sizes = [np.bincount(sets, minlength=count) for sets, _, _ in sides]
    for j in np.flatnonzero((group_sizes[0] == 0) | (group_sizes[1] == 0)):
        logger.warning("bias metric undefined on test set %d; all its indicators forced to 0", j)
    hits = class1_hits(cache.classes, np.concatenate([nodes for _, nodes, _ in sides]))
    width = sides[0][1].size
    blocks = hits[:, :width], hits[:, width:]

    # every count a vote can take: inner n1 in 0..n_inner, outer n_pos in 0..n_outer
    n1s = np.arange(cfg.n_inner + 1)
    inner_low = binomial_lower_bound_vec(n1s, cfg.n_inner - n1s, cfg.alpha)
    inner_certified = (n1s > cfg.n_inner - n1s) & (inner_low > 0.5)
    # the biased side's bound at n1 is the fair side's at n0 = n_inner - n1
    inner_decided = inner_certified | ((cfg.n_inner - n1s > n1s) & (inner_low[::-1] > 0.5))
    inner_radius = np.where(inner_certified, attribute_radius(inner_low, cfg.sigma), np.nan)
    n_poss = np.arange(cfg.n_outer + 1)
    outer_low = binomial_lower_bound_vec(n_poss, cfg.n_outer - n_poss, cfg.alpha)
    eps_a = {}  # structure budget per certified outer count

    domain = domain_size(g.n, len(vul))
    y = np.asarray(labels.y)
    members, bounds = flat.tolist(), offsets.tolist()
    chunk = max(1, CERTIFY_CHUNK_BYTES // (16 * cfg.n_outer * cfg.n_inner))
    reports = []
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        k = stop - start
        chunk_sides = []
        for block, (sets, _, col) in zip(blocks, sides):
            lo, hi = np.searchsorted(sets, (start, stop))
            chunk_sides.append((block, sets[lo:hi] - start, col[lo:hi]))
        # an undefined set's bias is NaN, which compares False: its indicators are 0
        bias = rate_gaps(k, *chunk_sides).reshape(k, cfg.n_outer, cfg.n_inner)
        indicator = bias < eta.eta

        n1 = indicator.sum(axis=2)
        cert_pos, decided = inner_certified[n1], inner_decided[n1]
        n_pos = cert_pos.sum(axis=1)
        undecided = ~decided.all(axis=1) if cfg.strict else np.zeros(k, dtype=bool)
        certified = ~undecided & (outer_low[n_pos] > 0.5)
        eps_x = np.where(cert_pos, inner_radius[n1], np.inf).min(axis=1)
        if certified.any():
            picked, picked_bias = select_fair_output(cache.classes, bias[certified], indicator[certified] & cert_pos[certified][:, :, None])
            # accuracy: one gather of the certified sets' nodes in their picked predictions
            lo, hi = offsets[start], offsets[stop]
            sets = seg[lo:hi] - start
            take = certified[sets]
            nodes, sets = flat[lo:hi][take], sets[take]
            correct = picked[(np.cumsum(certified) - 1)[sets], nodes] == y[nodes]
            accuracy = np.bincount(sets[correct], minlength=k) / np.diff(offsets[start : stop + 1])
        # a plain structured array: its rows index without recarray.__getitem__ (about 9 us a row)
        records = np.rec.fromarrays(
            [n1, inner_low[n1], cert_pos, decided, inner_radius[n1]],
            names="n1,inner_lower_bound,inner_certified,decided,attribute_radius",
        ).view(np.ndarray)
        records.flags.writeable = False

        c = 0
        for j in range(k):
            positive = int(n_pos[j])
            low = float(outer_low[positive])
            reason = budgets = prediction = sel_bias = acc = None
            if undecided[j]:
                first = int(np.argmin(decided[j]))
                n1_first = int(n1[j, first])
                reason = f"undecided inner vote at outer sample {first} (n1={n1_first}, n0={cfg.n_inner - n1_first})"
            elif not certified[j]:
                reason = f"outer fair-vote bound {low:.6f} <= 1/2 ({positive}/{cfg.n_outer} positive)"
            if reason is None:
                if positive not in eps_a:
                    eps_a[positive] = structure_budget(low, cfg.beta, cfg.k_max)
                budgets = CertifiedBudgets(eps_A=eps_a[positive], eps_X=float(eps_x[j]))
                prediction, sel_bias, acc = picked[c], float(picked_bias[c]), float(accuracy[j])
                c += 1
            else:
                logger.info("certification abstains: %s", reason)
            reports.append(
                CertificationReport(
                    outcome=CERTIFIED if reason is None else ABSTAIN,
                    budgets=budgets,
                    selected_prediction=prediction,
                    selected_bias=sel_bias,
                    accuracy=acc,
                    eta=eta,
                    n_outer_positive=positive,
                    outer_lower_bound=low,
                    prop1_bound=prop1_bound(positive),
                    records=records[j].view(np.recarray),
                    config=cfg,
                    conventions={**CONVENTIONS, "noise_domain_size": domain},
                    test_set=tuple(members[bounds[start + j] : bounds[start + j + 1]]),
                    abstain_reason=reason,
                )
            )
    return tuple(reports)


def certify_and_predict(model, g: Graph, X, labels, split, test_set, cfg: SmoothingConfig, jobs: int = 1, cache: PredictionCache | None = None, *, eta: BiasThreshold) -> CertificationReport:
    """Certify one test set: certify_sets on (test_set,)."""
    return certify_sets(model, g, X, labels, split, (test_set,), cfg, jobs=jobs, cache=cache, eta=eta)[0]


@dataclass(frozen=True)
class FcrResult:
    """Certification reports over sampled test sets plus the certified fraction."""

    fcr: float
    count: int
    reports: tuple

    def summary(self) -> dict:
        certified = [r for r in self.reports if r.outcome == CERTIFIED]
        out = {
            "fcr": self.fcr,
            "count": self.count,
            "n_certified": len(certified),
        }
        for name, values in (
            ("eps_A", [r.budgets.eps_A for r in certified]),
            ("eps_X", [r.budgets.eps_X for r in certified]),
            ("bias", [r.selected_bias for r in certified]),
            ("accuracy", [r.accuracy for r in certified]),
        ):
            arr = np.array(values, dtype=np.float64)
            out[f"mean_{name}"] = float(arr.mean()) if arr.size else None
            out[f"std_{name}"] = float(arr.std()) if arr.size else None
        return out


def fcr_run(model, g: Graph, X, labels, split, cfg: SmoothingConfig, ratio: float = 0.9, count: int = 100, jobs: int = 1, *, eta: BiasThreshold, cache: PredictionCache | None = None) -> FcrResult:
    """Certify `count` sampled test sets and report the certified fraction.

    Test sets are drawn from the pool with the vulnerable nodes forced in
    (certification requires them present); one prediction cache serves all
    sets.
    """
    sets = sample_test_sets(split, ratio, count, seed=cfg.master_seed, include=split.vulnerable)
    reports = certify_sets(model, g, X, labels, split, sets, cfg, jobs=jobs, cache=cache, eta=eta)
    n_certified = sum(1 for r in reports if r.outcome == CERTIFIED)
    fcr = n_certified / len(reports)
    logger.info("fraction of certified test sets: %.4f (%d/%d)", fcr, n_certified, count)
    return FcrResult(fcr=fcr, count=count, reports=reports)
