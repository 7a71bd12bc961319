"""Bias attacks on the vulnerable nodes and the evaluation harness.

The attackers here are deliberately simple stand-ins (labelled
"substitute" in every output) for stronger published fairness attacks:
an analytic gradient ascent on a soft bias surrogate for the attribute
side, and greedy pair flips for the structure side.  They operate under
exactly the certified threat model: attribute changes touch only
vulnerable rows with a hard L2 cap, structure changes flip only
vulnerable-incident pairs with a hard edge-count cap.
"""

from __future__ import annotations

import logging

import numpy as np

from .data import Graph
from .fairness import group_gaps, metric_groups, prediction_metrics
from .gnn import _softmax, predict_classes
from .pipeline import CERTIFIED, certify_and_predict
from .smoothing import DOMAIN_ATTACK, eligible_pairs, substream, vulnerable_ids

logger = logging.getLogger(__name__)

ATTACK_LABEL = "substitute"
DEFAULT_GRID = ((1, 0.1), (2, 1.0), (4, 10.0), (8, 100.0))
GREEDY_POOL_SIZE = 256


def attribute_attack(model, g: Graph, X, labels, vulnerable, budget_l2: float, metric: str = "sp", nodes=None):
    """Gradient ascent on a soft bias surrogate, one projected step.

    The surrogate is the signed difference of group-mean class-1 softmax
    probabilities (groups restricted to label-1 nodes for the equal
    opportunity metric).  Its input gradient is taken on the vulnerable
    rows only; the top percent-scale entries by magnitude are kept and
    rescaled to exactly budget_l2.  A zero gradient leaves X unchanged.
    Raises ValueError for a model with other than two classes.
    """
    if budget_l2 < 0:
        raise ValueError(f"budget_l2 must be nonnegative, got {budget_l2}")
    vul = vulnerable_ids(vulnerable, g.n)
    if budget_l2 == 0:
        return np.array(X, copy=True)
    idx = np.arange(g.n) if nodes is None else np.asarray(sorted(nodes), dtype=np.int64)
    g0, g1 = metric_groups(idx, labels, metric)

    ops = model.build_ops(g)
    logits = model.forward(ops, X)
    if logits.shape[1] != 2:
        raise ValueError(f"attribute_attack's surrogate gradient needs 2 classes, the model has {logits.shape[1]}")
    p = _softmax(logits)
    sign = 1.0 if p[g0, 1].mean() - p[g1, 1].mean() >= 0 else -1.0
    # d surrogate / d logits: softmax jacobian row by row, two-class case
    dlogit = np.zeros_like(logits)
    coef = p[:, 0] * p[:, 1]  # d p1 / d z1 = p1 (1 - p1)
    dlogit[g0, 1] = sign * coef[g0] / g0.size
    dlogit[g0, 0] = -sign * coef[g0] / g0.size
    dlogit[g1, 1] = -sign * coef[g1] / g1.size
    dlogit[g1, 0] = sign * coef[g1] / g1.size
    grad = model.input_grad(ops, X, dlogit)[vul]  # (|vul|, d)

    q = max(1, round(0.01 * vul.size * X.shape[1]))
    flat = np.abs(grad).ravel()
    if not np.any(flat > 0):
        logger.warning("attribute attack found a zero surrogate gradient; returning X unchanged")
        return np.array(X, copy=True)
    top = np.argsort(flat)[::-1][:q]
    delta = np.zeros_like(flat)
    delta[top] = grad.ravel()[top]
    delta = delta.reshape(grad.shape)
    delta *= budget_l2 / np.linalg.norm(delta)
    out = np.array(X, copy=True)
    out[vul] += delta
    return out


def structure_attack_greedy(model, g: Graph, X, labels, vulnerable, budget_edges: int, metric: str = "sp", nodes=None, pool_size: int = GREEDY_POOL_SIZE, seed: int = 0) -> Graph:
    """Greedy pair flips: per step, commit the candidate that maximizes bias.

    Each step scores a random pool of pool_size candidate pairs by the hard
    bias of the model after flipping that single pair, then commits the
    first candidate of maximal bias: model.forward_flips gives all of their
    classes on the metric's groups (formed once per run) from one clean
    pass, and one fairness.group_gaps call (one class1_hits gather, one
    rate_gaps call) prices the whole pool.  Committed flips persist across
    steps; exactly budget_edges pairs end up flipped.  Raises
    UndefinedMetricError when the metric is undefined on the evaluated
    nodes, whatever is flipped.
    """
    return g.flip(_greedy_pairs(model, g, X, labels, vulnerable, budget_edges, metric, nodes, pool_size, seed))


def _greedy_pairs(model, g: Graph, X, labels, vulnerable, budget_edges, metric, nodes, pool_size, seed) -> np.ndarray:
    """structure_attack_greedy's committed pairs, (budget_edges, 2) in commit order.

    Neither the candidate draws nor the open pairs depend on the budget, so
    under one seed a budget's pairs are the first that many of any larger
    budget's.
    """
    if budget_edges < 0:
        raise ValueError(f"budget_edges must be nonnegative, got {budget_edges}")
    if pool_size < 1:
        raise ValueError(f"pool_size must be positive, got {pool_size}")
    pairs = eligible_pairs(g.n, vulnerable)
    if budget_edges > pairs.shape[0]:
        raise ValueError(f"budget {budget_edges} exceeds the {pairs.shape[0]} eligible pairs")
    eval_nodes = np.arange(g.n) if nodes is None else np.asarray(sorted(nodes), dtype=np.int64)
    # the groups do not depend on the flips: formed once, and an empty one is an error before any scoring
    g0, g1 = metric_groups(eval_nodes, labels, metric)
    # the candidates are scored on the groups' nodes alone, and priced by their positions there
    nodes = np.concatenate((g0, g1))
    at0, at1 = np.arange(g0.size), np.arange(g0.size, nodes.size)
    current = g
    committed = []
    open_mask = np.ones(pairs.shape[0], dtype=bool)  # pairs not yet committed
    rng = substream(seed, DOMAIN_ATTACK, 1)
    scored = np.empty((min(pool_size, pairs.shape[0]), nodes.size), dtype=np.uint8)  # each candidate's classes there
    for step in range(budget_edges):
        open_pos = np.flatnonzero(open_mask)
        if open_pos.size > pool_size:
            candidates = open_pos[rng.choice(open_pos.size, size=pool_size, replace=False)]
        else:
            candidates = open_pos
        classes = model.forward_flips(current, X, pairs[candidates], out=scored[: candidates.size], rows=nodes)
        gaps = group_gaps(classes, at0, at1)
        top = int(np.argmax(gaps))  # the first maximum, as a strict > scan keeps
        best = candidates[top]
        open_mask[best] = False
        committed.append(best)
        current = current.flip(pairs[best : best + 1])
        logger.debug("greedy flip %d: %s, bias %.4f", step, tuple(pairs[best].tolist()), gaps[top])
    return pairs[np.array(committed, dtype=np.int64)]


def evaluate_under_attack(model, smoothed_model, g: Graph, X, labels, split, grid, cfg, eta, jobs: int = 1):
    """Attack both the undefended and the smoothed model over a budget grid.

    Perturbations are crafted against the undefended backbone (a transfer
    setting: the attacker holds a substitute, not the smoothed machinery)
    and applied to both victims.  Structure flips happen first, then the
    attribute step on the flipped graph.  Returns (rows, meta) where rows
    are CSV-ready dicts and meta records the clean certificate used for the
    within_certified column.  The greedy attack runs once, at the grid's
    largest edge budget; each cell flips that run's first budget_edges
    pairs, which is the greedy run at its own budget.
    """
    pool = np.asarray(split.test_pool, dtype=np.int64)
    vul = split.vulnerable
    clean = certify_and_predict(smoothed_model, g, X, labels, split, split.test_pool, cfg, jobs=jobs, eta=eta)
    clean_eps_a = clean.budgets.eps_A if clean.outcome == CERTIFIED else None
    clean_eps_x = clean.budgets.eps_X if clean.outcome == CERTIFIED else None
    greedy = _greedy_pairs(model, g, X, labels, vul, max((int(b) for b, _ in grid), default=0), cfg.metric, pool, GREEDY_POOL_SIZE, cfg.master_seed)
    rows = []
    for budget_edges, budget_l2 in grid:
        g_adv = g.flip(greedy[: int(budget_edges)])
        X_adv = attribute_attack(model, g_adv, X, labels, vul, float(budget_l2), cfg.metric, nodes=pool)
        logger.info("%s attack at budgets (%d flips, %.3g L2)", ATTACK_LABEL, int(budget_edges), float(budget_l2))

        undefended = prediction_metrics(predict_classes(model, g_adv, X_adv), labels, pool)
        report = certify_and_predict(smoothed_model, g_adv, X_adv, labels, split, split.test_pool, cfg, jobs=jobs, eta=eta)
        within = (
            "-"
            if clean_eps_a is None
            else str(bool(budget_edges <= clean_eps_a and budget_l2 < clean_eps_x)).lower()
        )
        if report.outcome == CERTIFIED:
            smoothed = prediction_metrics(report.selected_prediction, labels, pool)
        else:
            smoothed = dict.fromkeys(undefended, "NA")
        for name, metrics, outcome, within_cell in (
            (model.backbone, undefended, "-", "-"),
            (f"smoothed-{smoothed_model.backbone}", smoothed, report.outcome, within),
        ):
            rows.append(
                {
                    "budget_edges": int(budget_edges),
                    "budget_l2": float(budget_l2),
                    "model": name,
                    **metrics,
                    "outcome": outcome,
                    "within_certified": within_cell,
                }
            )
    meta = {
        "attacker": ATTACK_LABEL,
        "attacker_detail": {
            "structure": "greedy bias-maximizing pair flips over sampled candidate pools",
            "attribute": "one projected gradient step on a soft group-rate surrogate",
        },
        "clean_outcome": clean.outcome,
        "clean_eps_A": clean_eps_a,
        "clean_eps_X": clean_eps_x,
        "eta": float(clean.eta.eta),
        "metric": cfg.metric,
    }
    return rows, meta
