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
The cache depends only on (model, graph, X, vulnerable, config), so one
cache serves every test set drawn from the same pool, and its entries are
pure functions of the substream key, which makes results independent of
worker scheduling.  A cache keeps the SmoothingConfig it was built with;
certify_and_predict refuses one built for another vulnerable set, shape,
sigma, beta or master seed.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .certify import CertifiedBudgets, attribute_radius, joint_attribute_budget, structure_budget
from .data import Graph, sample_test_sets
from .estimate import binomial_lower_bound, binomial_lower_bound_vec
from .fairness import BiasThreshold, UndefinedMetricError, metric_groups, positive_rate_gap
from .smoothing import (
    SmoothingConfig,
    apply_structure_mask,
    domain_size,
    eligible_pairs,
    sample_attribute_noise,
    sample_structure_mask,
)

logger = logging.getLogger(__name__)

CERTIFIED = "CERTIFIED"
ABSTAIN = "ABSTAIN"

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
class OuterSampleRecord:
    """Certification evidence for one structure mask.

    inner_lower_bound is the Clopper-Pearson bound on the probability that
    a Gaussian draw under this mask is indicator-fair; inner_certified means
    that bound cleared 1/2 (so attribute_radius is present exactly then).
    decided is False when neither the fair nor the biased side certified.
    """

    stream_id: int
    n1: int
    n0: int
    inner_lower_bound: float
    inner_certified: bool
    decided: bool
    attribute_radius: float | None


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
    records: tuple
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
        vul = tuple(sorted(set(int(i) for i in vulnerable)))
        if not vul:
            raise ValueError("vulnerable set must be nonempty")
        n = g.n
        d = X.shape[1]
        vul_idx = np.array(vul, dtype=np.int64)
        pairs = eligible_pairs(n, vul)
        classes = np.empty((cfg.n_outer, cfg.n_inner, n), dtype=np.uint8)

        def run_outer(o: int) -> None:
            mask = sample_structure_mask(cfg, g, vul, stream_id=o, pairs=pairs)
            ops = model.build_ops(apply_structure_mask(g, mask))
            deltas = np.stack(
                [sample_attribute_noise(cfg, vul, d, o * cfg.n_inner + i).block for i in range(cfg.n_inner)]
            )
            logits = model.forward_many(ops, X, vul_idx, deltas)
            classes[o] = logits.argmax(axis=2).astype(np.uint8)

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(run_outer, range(cfg.n_outer)))
        else:
            for o in range(cfg.n_outer):
                run_outer(o)
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


def select_fair_output(classes: np.ndarray, bias: np.ndarray, eligible: np.ndarray) -> tuple:
    """Class vector and bias of the smallest-bias eligible draw.

    classes is (n_outer, n_inner, n), bias and eligible (n_outer, n_inner).
    Returns (classes[o, i].copy(), bias[o, i]); the first minimum in
    row-major order is the smallest stream id o * n_inner + i, so ties
    resolve to it.  Raises ValueError when no draw is eligible.
    """
    if not eligible.any():
        raise ValueError("no inner-certified sample to select from")
    o, i = np.unravel_index(np.argmin(np.where(eligible, bias, np.inf)), bias.shape)
    return classes[o, i].copy(), float(bias[o, i])


def certify_and_predict(model, g: Graph, X, labels, split, test_set, cfg: SmoothingConfig, jobs: int = 1, cache: PredictionCache | None = None, eta: BiasThreshold | None = None) -> CertificationReport:
    """Certify the smoothed bias indicator on one test set and pick an output.

    model must already be the backbone the smoothing wraps (for defended
    runs, the noise-augmented one).  eta defaults to an absolute threshold
    of cfg.eta; cache may be shared across calls with identical
    (model, g, X, vulnerable, cfg).  A cache whose vulnerable set, shape,
    sigma, beta or master_seed differs from this call raises ValueError;
    matching the model, graph and attributes is left to the caller.
    """
    if eta is None:
        eta = BiasThreshold.absolute(cfg.eta)
    test_idx = np.asarray(sorted(int(i) for i in test_set), dtype=np.int64)
    pool = set(split.test_pool)
    if not set(test_idx.tolist()) <= pool:
        raise ValueError("test set must lie in the test pool")
    vul = tuple(sorted(set(int(i) for i in split.vulnerable)))
    if not vul:
        raise ValueError("vulnerable set must be nonempty")
    if not set(vul) <= set(test_idx.tolist()):
        raise ValueError("vulnerable nodes must belong to the test set")
    if cache is None:
        cache = PredictionCache.build(model, g, X, vul, cfg, jobs=jobs)
    cache.check(vul, g.n, cfg)

    try:
        bias = positive_rate_gap(cache.classes, metric_groups(test_idx, labels, cfg.metric))
    except UndefinedMetricError:
        logger.warning("bias metric undefined on this test set; all indicators forced to 0")
        indicator = np.zeros((cfg.n_outer, cfg.n_inner), dtype=bool)
        bias = np.full((cfg.n_outer, cfg.n_inner), np.nan)
    else:
        indicator = bias < eta.eta

    n1 = indicator.sum(axis=1).astype(np.int64)
    n0 = cfg.n_inner - n1
    low_pos = binomial_lower_bound_vec(n1, n0, cfg.alpha)
    low_neg = binomial_lower_bound_vec(n0, n1, cfg.alpha)
    cert_pos = (n1 > n0) & (low_pos > 0.5)
    cert_neg = (n0 > n1) & (low_neg > 0.5)
    undecided = ~(cert_pos | cert_neg)

    radii = [attribute_radius(float(p), cfg.sigma) if c else None for p, c in zip(low_pos, cert_pos)]
    records = tuple(
        OuterSampleRecord(
            stream_id=o,
            n1=int(n1[o]),
            n0=int(n0[o]),
            inner_lower_bound=float(low_pos[o]),
            inner_certified=bool(cert_pos[o]),
            decided=not undecided[o],
            attribute_radius=radii[o],
        )
        for o in range(cfg.n_outer)
    )

    n_pos = int(cert_pos.sum())
    outer = binomial_lower_bound(n_pos, cfg.n_outer - n_pos, cfg.alpha)
    reason = None
    if cfg.strict and undecided.any():
        first = int(np.flatnonzero(undecided)[0])
        reason = f"undecided inner vote at outer sample {first} (n1={int(n1[first])}, n0={int(n0[first])})"
    elif outer.lower <= 0.5:
        reason = f"outer fair-vote bound {outer.lower:.6f} <= 1/2 ({n_pos}/{cfg.n_outer} positive)"

    budgets = prediction = sel_bias = acc = None
    if reason is None:
        budgets = CertifiedBudgets(
            eps_A=structure_budget(float(outer.lower), cfg.beta, cfg.k_max),
            eps_X=joint_attribute_budget(r for r in radii if r is not None),
        )
        prediction, sel_bias = select_fair_output(cache.classes, bias, indicator & cert_pos[:, None])
        acc = float((prediction[test_idx] == labels.y[test_idx]).mean())
    else:
        logger.info("certification abstains: %s", reason)
    return CertificationReport(
        outcome=CERTIFIED if reason is None else ABSTAIN,
        budgets=budgets,
        selected_prediction=prediction,
        selected_bias=sel_bias,
        accuracy=acc,
        eta=eta,
        n_outer_positive=n_pos,
        outer_lower_bound=float(outer.lower),
        prop1_bound=prop1_bound(n_pos),
        records=records,
        config=cfg,
        conventions={**CONVENTIONS, "noise_domain_size": domain_size(g.n, len(vul))},
        test_set=tuple(int(i) for i in test_idx),
        abstain_reason=reason,
    )


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


def fcr_run(model, g: Graph, X, labels, split, cfg: SmoothingConfig, ratio: float = 0.9, count: int = 100, jobs: int = 1, eta: BiasThreshold | None = None, cache: PredictionCache | None = None) -> FcrResult:
    """Certify `count` sampled test sets and report the certified fraction.

    Test sets are drawn from the pool with the vulnerable nodes forced in
    (certification requires them present); one prediction cache serves all
    sets.
    """
    sets = sample_test_sets(split, ratio, count, seed=cfg.master_seed, include=split.vulnerable)
    if cache is None:
        cache = PredictionCache.build(model, g, X, split.vulnerable, cfg, jobs=jobs)
    reports = tuple(
        certify_and_predict(model, g, X, labels, split, ts, cfg, jobs=jobs, cache=cache, eta=eta) for ts in sets
    )
    n_certified = sum(1 for r in reports if r.outcome == CERTIFIED)
    fcr = n_certified / len(reports)
    logger.info("fraction of certified test sets: %.4f (%d/%d)", fcr, n_certified, count)
    return FcrResult(fcr=fcr, count=count, reports=reports)
