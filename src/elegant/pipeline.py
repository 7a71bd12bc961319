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
by stream id.  select_fair_output picks it by one masked argmin over the
(n_outer, n_inner) bias matrix; certify_sets, which never holds that
matrix, makes the same pick one outer sample at a time.

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
(fairness.metric_sides), their membership matrices (fairness.group_members,
built once per chunk of sets) and accuracy are array operations over that
layout.  Per call it tabulates the Clopper-Pearson bound of every count a
vote can take, with the inner radii; a vote count has only n_inner + 1
(outer: n_outer + 1) values.  It then walks the cache one outer sample at
a time.  One fairness.class1_hits gather takes that sample's n_inner draws
on the sets' group nodes, one column block per sensitive side, and per
chunk of sets one fairness.rate_gaps call, one count product per side,
gives the chunk's (k, n_inner) bias from exact group counts.  The sample's
indicator counts fill its column of a (count, n_outer) table, and its
eligible draws are folded into each set's running selection, so no array
spans every draw of the cache.  From that table the vote tables give the
evidence by lookup, and array operations the outcomes, attribute budgets
and accuracies; only the reports themselves are built one set at a time.

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
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .certify import CertifiedBudgets, attribute_radius, structure_budget
from .data import Graph, sample_test_sets
from .estimate import binomial_lower_bound_vec
from .fairness import BiasThreshold, class1_hits, group_members, metric_sides, non_integers, rate_gaps
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

# certify_sets handles its sets in chunks whose float64 group rates in one
# outer sample (two per set and inner draw) take this many bytes: 873 sets
# at n_inner 150
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
        fallbacks (gnn.FallbackCounts) during the build, and the hidden units
        its float32 pass skipped and the rows the noise reached, each as a
        mean per mask.  With pool workers,
        numpy's bundled OpenBLAS is held to one thread for the build
        (_one_blas_thread): the threads already keep the cores busy.
        Raises ValueError for a jobs that is not a positive integer.
        """
        if not (isinstance(jobs, numbers.Integral) and jobs >= 1):
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        n = g.n
        d = X.shape[1]
        vul_idx = vulnerable_ids(vulnerable, n)
        vul = tuple(vul_idx.tolist())
        pairs = eligible_pairs(n, vul)
        classes = np.empty((cfg.n_outer, cfg.n_inner, n), dtype=np.uint8)
        counts = getattr(model, "fallbacks", None)
        before = None if counts is None else (counts.settled, counts.rerun, counts.skipped, counts.moving)
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
                "prediction cache: %d of %d node-draws settled by the float64 re-evaluation, %d of %d draws rerun on the float64 path, "
                "%.1f of %d hidden units skipped per mask, %.1f of %d rows reached by the noise per mask",
                counts.settled - before[0], draws * n, counts.rerun - before[1], draws,
                (counts.skipped - before[2]) / cfg.n_outer, model.h, (counts.moving - before[3]) / cfg.n_outer, n,
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
    """Class vector and bias of the smallest-bias eligible draw: (classes[o, i].copy(), float(bias[o, i])).

    classes is the (n_outer, n_inner, n) cache; bias and eligible are
    (n_outer, n_inner).  Picks by one masked argmin over the flattened
    draws; the first minimum is the smallest stream id o * n_inner + i, so
    ties resolve to it.  Raises ValueError for a bias of other shape than
    (n_outer, n_inner) and when no draw is eligible.  This is the
    selection rule over the whole bias matrix; certify_sets folds the same
    rule over the outer samples one at a time (a masked argmin over a
    sample's draws, kept only when strictly below the earlier samples'
    best), and a test holds the two to the same picks.
    """
    if np.shape(bias) != classes.shape[:2]:
        raise ValueError(f"bias must have the cache's (n_outer, n_inner) shape {classes.shape[:2]}, got {np.shape(bias)}")
    if not np.any(eligible):
        raise ValueError("no inner-certified sample to select from")
    flat = np.where(eligible, bias, np.inf).ravel()
    pick = flat.argmin()
    return classes.reshape(-1, classes.shape[-1])[pick].copy(), float(flat[pick])


def _flat_sets(test_sets, pool, vulnerable: tuple, n: int) -> tuple:
    """The test sets as one flat layout: (nodes, set of each node, offsets).

    test_sets is a (count, size) matrix or a sequence of node sequences of
    any sizes.  nodes holds every set's members, sorted within each set and
    sets in order; set j is nodes[offsets[j] : offsets[j + 1]].  Raises
    ValueError naming the two accepted forms for an array that is not 2-D
    (with its shape), a sequence whose items are not flat node sequences or
    node ids that are not numbers, and naming the set and the node when a
    node id is not an integer, a set holds a node outside the pool, lists a
    node twice or lacks a vulnerable node.
    """
    forms = "test sets must be a (count, size) matrix or a sequence of node sequences, got "
    if isinstance(test_sets, np.ndarray):
        if test_sets.ndim != 2:
            raise ValueError(f"{forms}an array of shape {test_sets.shape}")
        sizes = np.full(len(test_sets), test_sets.shape[1], dtype=np.int64)
        flat = test_sets.ravel()
    else:
        try:
            test_sets = list(test_sets)
            sizes = np.fromiter(map(len, test_sets), np.int64, len(test_sets))
            flat = np.array(list(itertools.chain.from_iterable(test_sets)))
        except (TypeError, ValueError):  # an item without len, or items of ragged shapes
            flat = None
        if flat is None or flat.ndim != 1:
            raise ValueError(f"{forms}a sequence whose items are not flat node sequences")
    if flat.dtype.kind not in "iuf":
        raise ValueError(f"{forms}node ids of dtype {flat.dtype}")
    seg = np.repeat(np.arange(sizes.size), sizes)
    if flat.dtype.kind == "f":
        fractional = non_integers(flat)
        if fractional.any():
            i = np.argmax(fractional)
            raise ValueError(f"test set {seg[i]} must hold integer node ids; {flat[i]} is not one")
    flat = flat.astype(np.int64, copy=False)
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
    array, and the work that does not depend on the draws is done once per
    call on it: validation, the metric groups, each chunk's group
    memberships, the Clopper-Pearson bound of every possible inner count
    0..n_inner and outer count 0..n_outer, the inner radii, and one
    structure budget per distinct outer bound.  The cache is then read one
    outer sample o at a time: one class1_hits gather of its n_inner draws
    on each sensitive side's union of group nodes, and for each chunk of
    sets (CERTIFY_CHUNK_BYTES worth of the sample's group rates, 16 *
    n_inner bytes a set) one rate_gaps product per side, the indicator
    bias < eta, the chunk's n1 column and a running first minimum over the
    eligible draws (indicator-fair in an inner-certified sample).  A
    sample's minimum replaces a set's selection only when strictly
    smaller, which keeps the tie-break: smallest bias, then smallest stream
    id o * n_inner + i.  Outcomes, budgets, abstain reasons, records and
    accuracies then come from the (count, n_outer) n1 table.  Beyond the
    layout, that table, the memberships (4 bytes per set and group column)
    and the reports, the working memory is one sample's hits and one
    chunk's rates, whatever the number of sets.
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
    columns = np.concatenate([nodes for _, nodes, _ in sides])
    width = sides[0][1].size

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

    # the sets in chunks of CERTIFY_CHUNK_BYTES worth of one sample's group rates, each side's membership built once
    chunk = max(1, CERTIFY_CHUNK_BYTES // (16 * cfg.n_inner))
    chunks = []
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        groups = []
        for sets, nodes, col in sides:
            lo, hi = np.searchsorted(sets, (start, stop))
            groups.append(group_members(stop - start, sets[lo:hi] - start, col[lo:hi], nodes.size))
        chunks.append((start, stop, groups))
    n1 = np.empty((count, cfg.n_outer), dtype=np.int64)
    best = np.full(count, np.inf)  # each set's smallest eligible bias so far
    draw = np.zeros(count, dtype=np.int64)  # and its stream id
    for o in range(cfg.n_outer):
        hits = class1_hits(cache.classes[o], columns)
        blocks = hits[:, :width], hits[:, width:]
        for start, stop, groups in chunks:
            # an undefined set's bias is NaN, which compares False: its indicators are 0
            bias = rate_gaps(*((block, *members) for block, members in zip(blocks, groups)))
            indicator = bias < eta.eta
            votes = np.count_nonzero(indicator, axis=1)
            n1[start:stop, o] = votes
            # eligible draws are indicator-fair in an inner-certified sample; the first minimum is the smallest stream id
            bias[~(indicator & inner_certified[votes][:, None])] = np.inf
            i = bias.argmin(axis=1)
            low = bias[np.arange(stop - start), i]
            # strict, so a tie keeps the earlier sample's draw
            better = low < best[start:stop]
            best[start:stop][better] = low[better]
            draw[start:stop][better] = o * cfg.n_inner + i[better]

    cert_pos, decided = inner_certified[n1], inner_decided[n1]
    n_pos = cert_pos.sum(axis=1)
    undecided = ~decided.all(axis=1) if cfg.strict else np.zeros(count, dtype=bool)
    certified = ~undecided & (outer_low[n_pos] > 0.5)
    eps_x = np.where(cert_pos, inner_radius[n1], np.inf).min(axis=1)
    if certified.any():
        picked = cache.classes.reshape(-1, g.n)[draw[certified]]
        # accuracy: one gather of the certified sets' nodes in their picked predictions
        take = certified[seg]
        nodes, sets = flat[take], seg[take]
        correct = picked[(np.cumsum(certified) - 1)[sets], nodes] == np.asarray(labels.y)[nodes]
        accuracy = np.bincount(sets[correct], minlength=count) / np.diff(offsets)
    # a plain structured array: its rows index without recarray.__getitem__ (about 9 us a row)
    records = np.rec.fromarrays(
        [n1, inner_low[n1], cert_pos, decided, inner_radius[n1]],
        names="n1,inner_lower_bound,inner_certified,decided,attribute_radius",
    ).view(np.ndarray)
    records.flags.writeable = False

    domain = domain_size(g.n, len(vul))
    members, bounds = flat.tolist(), offsets.tolist()
    reports, c = [], 0
    for j in range(count):
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
            prediction, sel_bias, acc = picked[c], float(best[j]), float(accuracy[j])
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
                test_set=tuple(members[bounds[j] : bounds[j + 1]]),
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
