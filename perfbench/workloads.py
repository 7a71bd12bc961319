"""The benchmark's workloads: set-up, timed operation and output checks.

All three run on the `sbm-german` fixture (n=1000, d=27, fixture seed 0)
with the GCN backbone, the `sp` metric, eta = 1.25 x the vanilla model's
bias and the default smoothing (sigma 0.25, beta 0.9, n_inner 150,
alpha 0.3, strict), at jobs=1.  The workload seed plays the part of
`elegant --seed`: it picks the node split, the training initialisation,
every noise stream, the FCR test sets and the attacker's candidate pools.

certify-german  timed: certify_and_predict on the whole test pool with no
                cache (`elegant certify` after its set-up), n_outer=4.
fcr-german      set-up also builds one 20 x 150 PredictionCache; timed:
                fcr_run over 200 test sets on that cache.
attack-german   timed: one greedy structure flip over a 256-candidate pool,
                then one attribute step of L2 norm 1 on the flipped graph.

Run lengths (n_outer, count, budget_edges) are sized so one operation
takes 0.5 to 4 s on a 2-core machine and a run holds several of them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from elegant import attack, certify, data, estimate, fairness, gnn, pipeline, smoothing
from elegant.cli import DEFAULTS, load_world, resolve_eta, smoothing_config
from elegant.fairness import UndefinedMetricError

CERTIFY_N_OUTER = 4
FCR_N_OUTER = 20
FCR_COUNT = 200
FCR_RATIO = 0.9
ATTACK_BUDGET_EDGES = 1
ATTACK_BUDGET_L2 = 1.0
ATTACK_POOL = 256

# cache cells re-derived through the unbatched forward, per checked outer sample
CHECK_OUTERS = 2
CHECK_INNERS = 4
# FCR test sets whose vote counts are re-derived from the cache
CHECK_SETS = 2
# forward and forward_many sum in different orders; a class flip between
# them counts as a mismatch only when the reference logits are not tied
TIE_TOL = 1e-9


@dataclass
class World:
    seed: int
    g: object
    X: np.ndarray
    labels: object
    split: object
    vanilla: object
    noise: object = None
    eta: object = None
    scfg: object = None
    cache: object = None


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def guard(self, what: str, check) -> None:
        """Run one check; an exception counts as a failure."""
        try:
            ok = bool(check())
        except Exception as exc:  # a crashing check is a failed operation, not a crashed benchmark
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
        else:
            self.record(ok, what)


def _config(seed: int) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    cfg["seed"] = int(seed)
    cfg["jobs"] = 1
    return cfg


def _world(seed: int, noise_model: bool, n_outer: int | None) -> World:
    cfg = _config(seed)
    g, X, labels, split = load_world(cfg)
    tc = gnn.TrainConfig(seed=cfg["seed"], **cfg["train"])
    vanilla = gnn.train(g, X, labels, split, tc, backbone=cfg["backbone"])
    w = World(seed=seed, g=g, X=X, labels=labels, split=split, vanilla=vanilla)
    if noise_model:
        w.noise = gnn.train(g, X, labels, split, tc, backbone=cfg["backbone"], augment=True)
        w.eta = resolve_eta(cfg, vanilla, g, X, labels, split)
        w.scfg = replace(smoothing_config(cfg, w.eta), n_outer=n_outer)
    return w


# ---------------------------------------------------------------- checks


def _check_cache_cells(tally: Tally, w: World, cache) -> None:
    """Re-derive seeded cache cells through the unbatched reference path."""
    cfg = w.scfg
    vul = tuple(w.split.vulnerable)
    rng = np.random.default_rng([w.seed, 1])
    outers = rng.choice(cfg.n_outer, size=min(CHECK_OUTERS, cfg.n_outer), replace=False)
    for o in (int(v) for v in outers):
        mask = smoothing.sample_structure_mask(cfg, w.g, vul, stream_id=o)
        ops = w.noise.build_ops(smoothing.apply_structure_mask(w.g, mask))
        for i in (int(v) for v in rng.choice(cfg.n_inner, size=min(CHECK_INNERS, cfg.n_inner), replace=False)):

            def cell(o=o, i=i, ops=ops):
                noise = smoothing.sample_attribute_noise(cfg, vul, w.X.shape[1], o * cfg.n_inner + i)
                logits = w.noise.forward(ops, smoothing.apply_attribute_noise(w.X, noise))
                top = np.sort(logits, axis=1)
                tied = top[:, -1] - top[:, -2] <= TIE_TOL
                differ = (logits.argmax(axis=1) != cache.classes[o, i]) & ~tied
                return not differ.any()

            tally.guard(f"cache cell ({o}, {i}) matches the unbatched forward", cell)


def _votes_from_cache(w: World, cache, test_set) -> list:
    """Inner fair-vote count n1 per outer sample, via fairness.bias_value."""
    cfg = w.scfg
    nodes = sorted(int(i) for i in test_set)
    n1 = []
    for o in range(cfg.n_outer):
        count = 0
        for i in range(cfg.n_inner):
            try:
                count += fairness.bias_value(cache.classes[o, i], w.labels, nodes, cfg.metric) < w.eta.eta
            except UndefinedMetricError:
                pass  # the pipeline forces the indicator to 0 when undefined
        n1.append(int(count))
    return n1


def certificate_from_votes(n1s, cfg) -> tuple:
    """(outcome, eps_A, eps_X) from inner vote counts, via the scalar public bounds."""
    radii = []
    undecided = False
    for n1 in n1s:
        n0 = cfg.n_inner - n1
        pos = estimate.binomial_lower_bound(n1, n0, cfg.alpha).lower
        neg = estimate.binomial_lower_bound(n0, n1, cfg.alpha).lower
        if n1 > n0 and pos > 0.5:
            radii.append(certify.attribute_radius(pos, cfg.sigma))
        elif not (n0 > n1 and neg > 0.5):
            undecided = True
    n_pos = len(radii)
    outer = estimate.binomial_lower_bound(n_pos, cfg.n_outer - n_pos, cfg.alpha).lower
    if (cfg.strict and undecided) or outer <= 0.5:
        return pipeline.ABSTAIN, None, None
    return pipeline.CERTIFIED, certify.structure_budget(outer, cfg.beta, cfg.k_max), min(radii)


def _report_matches(report, expected) -> bool:
    outcome, eps_a, eps_x = expected
    if report.outcome != outcome:
        return False
    if outcome == pipeline.ABSTAIN:
        return report.budgets is None
    return report.budgets.eps_A == eps_a and math.isclose(report.budgets.eps_X, eps_x, rel_tol=1e-12)


def _check_report(tally: Tally, w: World, cache, report, what: str, with_votes: bool) -> None:
    """Vote counts against the cache (optional), then the certificate against the counts."""
    if with_votes:
        tally.guard(
            f"{what}: inner vote counts match the cache",
            lambda: [r.n1 for r in report.records] == _votes_from_cache(w, cache, report.test_set),
        )
    tally.guard(
        f"{what}: certificate matches its vote counts",
        lambda: _report_matches(report, certificate_from_votes([r.n1 for r in report.records], w.scfg)),
    )


# ---------------------------------------------------------------- certify-german


def certify_setup(seed: int) -> World:
    return _world(seed, noise_model=True, n_outer=CERTIFY_N_OUTER)


def certify_run(w: World):
    return pipeline.certify_and_predict(w.noise, w.g, w.X, w.labels, w.split, w.split.test_pool, w.scfg, jobs=1, eta=w.eta)


def _report_fingerprint(report):
    """Every certificate field, the chosen prediction and the vote counts."""
    prediction = None if report.selected_prediction is None else report.selected_prediction.tobytes()
    return report.to_json_dict(), report.test_set, prediction, tuple(r.n1 for r in report.records)


def certify_work(w: World, report) -> int:
    return w.scfg.n_outer * w.scfg.n_inner


def certify_quality(w: World, report) -> dict:
    if report.budgets is None:
        return {"eps_A": None, "eps_X": None}
    return {"eps_A": report.budgets.eps_A, "eps_X": report.budgets.eps_X}


def certify_check(tally: Tally, w: World, report) -> None:
    # the timed call builds its cache internally; rebuild the same one to inspect it
    cache = pipeline.PredictionCache.build(w.noise, w.g, w.X, w.split.vulnerable, w.scfg, jobs=1)
    _check_cache_cells(tally, w, cache)
    _check_report(tally, w, cache, report, "certify", with_votes=True)


# ---------------------------------------------------------------- fcr-german


def fcr_setup(seed: int) -> World:
    w = _world(seed, noise_model=True, n_outer=FCR_N_OUTER)
    w.cache = pipeline.PredictionCache.build(w.noise, w.g, w.X, w.split.vulnerable, w.scfg, jobs=1)
    return w


def fcr_run(w: World):
    return pipeline.fcr_run(
        w.noise, w.g, w.X, w.labels, w.split, w.scfg, ratio=FCR_RATIO, count=FCR_COUNT, jobs=1, eta=w.eta, cache=w.cache
    )


def fcr_fingerprint(result):
    return result.fcr, tuple(_report_fingerprint(r) for r in result.reports)


def fcr_work(w: World, result) -> int:
    return result.count


def fcr_quality(w: World, result) -> dict:
    return {"fcr": result.fcr}


def fcr_check(tally: Tally, w: World, result) -> None:
    _check_cache_cells(tally, w, w.cache)
    n_cert = sum(1 for r in result.reports if r.outcome == pipeline.CERTIFIED)
    tally.record(result.count == len(result.reports) and result.fcr == n_cert / result.count, "fcr equals the certified share")
    voted = set(np.random.default_rng([w.seed, 2]).choice(len(result.reports), size=CHECK_SETS, replace=False).tolist())
    for j, report in enumerate(result.reports):
        _check_report(tally, w, w.cache, report, f"fcr set {j}", with_votes=j in voted)


# ---------------------------------------------------------------- attack-german


def attack_setup(seed: int) -> World:
    return _world(seed, noise_model=False, n_outer=None)


def attack_run(w: World):
    vul = w.split.vulnerable
    g_adv = attack.structure_attack_greedy(
        w.vanilla, w.g, w.X, w.labels, vul, ATTACK_BUDGET_EDGES, "sp", nodes=w.split.test_pool, pool_size=ATTACK_POOL, seed=w.seed
    )
    X_adv = attack.attribute_attack(w.vanilla, g_adv, w.X, w.labels, vul, ATTACK_BUDGET_L2, "sp", nodes=w.split.test_pool)
    return g_adv, X_adv


def attack_fingerprint(result):
    g_adv, X_adv = result
    return tuple(sorted(g_adv.edges)), X_adv.tobytes()


def attack_work(w: World, result) -> int:
    """Candidate flips scored: min(pool, open pairs) per greedy step."""
    open_pairs = smoothing.domain_size(w.g.n, len(w.split.vulnerable))
    return sum(min(ATTACK_POOL, open_pairs - step) for step in range(ATTACK_BUDGET_EDGES))


def attack_quality(w: World, result) -> dict:
    return {}


def attack_check(tally: Tally, w: World, result) -> None:
    g_adv, X_adv = result
    vul = set(w.split.vulnerable)
    flips = w.g.edges.symmetric_difference(g_adv.edges)
    tally.record(len(flips) == ATTACK_BUDGET_EDGES, "greedy attack flips exactly budget_edges pairs")
    tally.record(all(u in vul or v in vul for u, v in flips), "every flipped pair touches a vulnerable node")
    delta = X_adv - w.X
    rows = np.flatnonzero(np.abs(delta).sum(axis=1))
    tally.record(set(rows.tolist()) <= vul, "attribute attack changes vulnerable rows only")
    tally.record(math.isclose(float(np.linalg.norm(delta)), ATTACK_BUDGET_L2, rel_tol=1e-9), "attribute change has the L2 budget")


@dataclass(frozen=True)
class Workload:
    name: str
    work_name: str
    setup: object
    run: object
    fingerprint: object
    work: object
    quality: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-german", "draws_per_s", certify_setup, certify_run, _report_fingerprint, certify_work, certify_quality, certify_check),
        Workload("fcr-german", "sets_per_s", fcr_setup, fcr_run, fcr_fingerprint, fcr_work, fcr_quality, fcr_check),
        Workload("attack-german", "candidates_per_s", attack_setup, attack_run, attack_fingerprint, attack_work, attack_quality, attack_check),
    )
}


# ---------------------------------------------------------------- traced layers


def _forward_many_gflop(sp, args, kwargs, out) -> None:
    model, ops, X, rows, deltas = args
    B, r, d = deltas.shape
    n, h, C, nnz = X.shape[0], model.h, model.C, ops.nnz
    flop = (
        2 * n * d * h  # X W1
        + 2 * nnz * h  # A_hat (X W1)
        + 2 * B * r * d * h  # deltas W1
        + 2 * B * n * r * h  # column scatter of the shifts
        + 3 * B * n * h  # shift, bias, relu
        + 2 * B * n * h * C  # h W2
        + 2 * B * nnz * C  # A_hat per draw
        + B * n * C  # output bias
    )
    sp.counts["gflop"] = flop / 1e9


def _mask_flips(sp, args, kwargs, out) -> None:
    sp.counts["flips"] = len(out.pairs)


def _cache_bytes(sp, args, kwargs, out) -> None:
    sp.counts["cache_bytes"] = out.classes.nbytes


def _report_votes(sp, args, kwargs, out) -> None:
    sp.counts["outer"] = len(out.records)
    sp.counts["decided"] = sum(1 for r in out.records if r.decided)
    sp.counts["positive"] = out.n_outer_positive


TRACED_FUNCTIONS = {
    "smoothing.eligible_pairs": (smoothing.eligible_pairs, None),
    "smoothing.sample_structure_mask": (smoothing.sample_structure_mask, _mask_flips),
    "smoothing.apply_structure_mask": (smoothing.apply_structure_mask, None),
    "smoothing.sample_attribute_noise": (smoothing.sample_attribute_noise, None),
    "gnn.train": (gnn.train, None),
    "data.sample_test_sets": (data.sample_test_sets, None),
    "pipeline.certify_and_predict": (pipeline.certify_and_predict, _report_votes),
    "pipeline.fcr_run": (pipeline.fcr_run, None),
    "pipeline.select_fair_output": (pipeline.select_fair_output, None),
    "estimate.binomial_lower_bound": (estimate.binomial_lower_bound, None),
    "estimate.binomial_lower_bound_vec": (estimate.binomial_lower_bound_vec, None),
    "certify.structure_budget": (certify.structure_budget, None),
    "certify.attribute_radius": (certify.attribute_radius, None),
    "fairness.bias_value": (fairness.bias_value, None),
    "attack.structure_attack_greedy": (attack.structure_attack_greedy, None),
    "attack.attribute_attack": (attack.attribute_attack, None),
}

TRACED_METHODS = {
    "data.Graph": (data.Graph, "__init__", None),
    "data.Graph.edge_array": (data.Graph, "edge_array", None),
    "gnn.build_ops": (gnn.GcnModel, "build_ops", None),
    "gnn.forward": (gnn.GcnModel, "forward", None),
    "gnn.forward_many": (gnn.GcnModel, "forward_many", _forward_many_gflop),
    "gnn.loss_grads": (gnn.GcnModel, "loss_grads", None),
    "pipeline.PredictionCache.build": (pipeline.PredictionCache, "build", _cache_bytes),
}

LAYERS = tuple(TRACED_FUNCTIONS) + tuple(TRACED_METHODS)
# layers that run in set-up; their figures add the one traced set-up
SETUP_LAYERS = ("gnn.train", "gnn.loss_grads", "pipeline.PredictionCache.build")
