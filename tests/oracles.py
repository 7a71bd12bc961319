"""Independent reference implementations used by the test suite.

Only the propagation operators' oracles import scipy, and only three
oracles import the package: the greedy attack's, which replays the
library's own candidate pools, the per-set certificate's, which chains
the library's scalar public functions one draw and one outer sample at a
time, and training's, which runs the backbone's own passes in the plain
loop, every product computed afresh.  Normal quantiles come from bisection on an erf-based CDF,
incomplete-beta values from Simpson integration, the Neyman-Pearson optimum
from exact rational enumeration, the region probabilities from a sum over
every flip count, gradients from central differences, single-flip logits
from one full operator rebuild per flip, operator rows from scipy's sparse
products on a scipy adjacency (flipped rows from one block-diagonal graph
of the flipped graphs), and group rate gaps from one gather and bool mean
per group.  Slow and simple on purpose.
"""

import math
from fractions import Fraction


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def norm_quantile(p, iters=200):
    """Phi^{-1} by bisection; accurate to ~1e-15 on sane inputs."""
    lo, hi = -12.0, 12.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def betainc(a, b, x, panels=20_000):
    """Regularized incomplete beta I_x(a, b) by Simpson on the density."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lognorm = _log_beta(a, b)

    def dens(t):
        if t <= 0.0:
            return 0.0 if a > 1 else math.exp(-lognorm) * (1.0 - t) ** (b - 1)
        if t >= 1.0:
            return 0.0 if b > 1 else math.exp(-lognorm) * t ** (a - 1)
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - lognorm)

    h = x / panels
    s = dens(0.0) + dens(x)
    s += 4.0 * math.fsum(dens((2 * i + 1) * h) for i in range(panels // 2))
    s += 2.0 * math.fsum(dens(2 * i * h) for i in range(1, panels // 2))
    return s * h / 3.0


def beta_quantile(a, b, q, iters=80, panels=20_000):
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if betainc(a, b, mid, panels=panels) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def np_bound_exact(p_lower, k, beta):
    """Neyman-Pearson optimum over all 2^k patterns, exact rationals.

    No binomial coefficients: each pattern carries its own probability pair
    and the greedy runs over the patterns sorted by likelihood ratio.
    """
    pl = Fraction(p_lower)
    b = Fraction(beta)
    states = []
    for bits in range(2**k):
        flipped = bin(bits).count("1")
        pc = b ** (k - flipped) * (1 - b) ** flipped
        pp = b**flipped * (1 - b) ** (k - flipped)
        states.append((pc / pp, pc, pp))
    states.sort(key=lambda t: t[0], reverse=True)
    remaining = pl
    total = Fraction(0)
    for _, pc, pp in states:
        if remaining <= 0:
            break
        take = pc if pc <= remaining else remaining
        total += take * pp / pc
        remaining -= take
    return total if total < 1 else Fraction(1)


def region_probs_full(d_total, k, beta):
    """Region probabilities recomputed over the full noise dimension.

    Groups all noise outcomes on d_total pairs by total flip count j and by
    the ratio index m of the k perturbed pairs, then sums exact outcome
    probabilities.  The d_total - k untouched pairs must marginalize out,
    so the result agrees with certify.region_table(k, beta) entry by entry.

    Returns (ratio_index, prob_clean, prob_perturbed) ordered by decreasing
    index.
    """
    index = []
    clean = []
    pert = []
    for m in range(k, -k - 1, -2):
        f_p = (k - m) // 2  # flips the noise applies to the perturbed pairs
        ways_p = math.comb(k, f_p)
        terms_c = []
        terms_p = []
        for j in range(f_p, d_total - k + f_p + 1):
            f_u = j - f_p
            count = ways_p * math.comb(d_total - k, f_u)
            terms_c.append(count * beta ** (d_total - j) * (1.0 - beta) ** j)
            # reaching the same outcome from the perturbed base flips the
            # complementary k - f_p pairs instead
            j_alt = (k - f_p) + f_u
            terms_p.append(count * beta ** (d_total - j_alt) * (1.0 - beta) ** j_alt)
        index.append(m)
        clean.append(math.fsum(terms_c))
        pert.append(math.fsum(terms_p))
    return tuple(index), tuple(clean), tuple(pert)


def finite_difference_loss_grads(model, ops, X, y, train_idx, step=1e-5):
    """Central-difference gradients of the training loss in every parameter
    and every input entry.  Slow and dumb on purpose."""
    import numpy as np

    def loss_at(m, Xv):
        return m.loss_grads(ops, Xv, y, train_idx)[0]

    grads = {}
    for name, value in model.params().items():
        g = np.zeros_like(value)
        flat = value.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step  # params() hands back the live array
            hi = loss_at(model, X)
            flat[i] = orig - step
            lo = loss_at(model, X)
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * step)
        grads[name] = g
    gX = np.zeros_like(X)
    flat = X.reshape(-1)
    gf = gX.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_at(model, X)
        flat[i] = orig - step
        lo = loss_at(model, X)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return grads, gX


def finite_difference_input_grad(model, ops, X, G, step=1e-5):
    """Central differences of sum(G * model.forward(ops, X)) in every entry of X."""
    import numpy as np

    gX = np.zeros_like(X)
    flat = X.reshape(-1)
    gf = gX.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(np.sum(G * model.forward(ops, X)))
        flat[i] = orig - step
        lo = float(np.sum(G * model.forward(ops, X)))
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return gX


def eligible_pairs_oracle(n, vulnerable):
    """Sorted (u, v) tuples, u < v, with at least one vulnerable endpoint.

    Double loop over vulnerable nodes and all nodes; a set absorbs the
    vulnerable-vulnerable pairs the loop meets twice.
    """
    pairs = set()
    for v in set(vulnerable):
        for u in range(n):
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def flip_oracle(edges, pairs):
    """Edge set after toggling pairs: frozenset symmetric difference of tuples."""
    return frozenset(edges).symmetric_difference(frozenset(pairs))


def forward_many_oracle(model, ops, X, rows, deltas):
    """Logits (B, n, C) of a reference backbone for B perturbations X[rows] += deltas[b].

    The batched algebra in one unchunked pass: every (B, n, h) intermediate
    is materialized at once, in freshly allocated arrays.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=np.int64)
    cols = ops[:, rows].toarray()

    def shifted(z, W):
        return z + np.einsum("nr,brk->bnk", cols, deltas @ W, optimize=True)

    def propagate(Y):
        B, n, k = Y.shape
        return (ops @ Y.transpose(1, 0, 2).reshape(n, B * k)).reshape(n, B, k).transpose(1, 0, 2)

    if model.backbone == "gcn":
        z1 = shifted(ops @ (X @ model.W1) + model.b1, model.W1)
        h = np.maximum(z1, 0.0)
        return propagate(h @ model.W2) + model.b2
    z1 = shifted(X @ model.Ws1 + (ops @ X) @ model.Wn1 + model.b1, model.Wn1)
    z1[:, rows] += deltas @ model.Ws1
    h = np.maximum(z1, 0.0)
    return h @ model.Ws2 + propagate(h @ model.Wn2) + model.b2


def flip_logits_oracle(model, g, X, pairs):
    """Logits (B, n, C) of the B graphs g.flip(pairs[b:b + 1]): one full build_ops and forward per flip."""
    import numpy as np

    return np.stack([model.forward(model.build_ops(g.flip(pairs[b : b + 1])), X) for b in range(len(pairs))])


def train_oracle(g, X, labels, split, cfg, backbone="gcn", augment=False):
    """gnn.train's weights by its plain loop: every pass runs the backbone's
    _pre afresh, an augmented epoch builds its operator with build_ops on
    g.flip(...), and the cross entropy takes the softmax of every row before
    reading the training rows."""
    import numpy as np

    from elegant.gnn import BACKBONES, MOMENTUM
    from elegant.smoothing import DOMAIN_TRAIN, eligible_pairs, substream, vulnerable_ids

    rng = substream(cfg.seed, DOMAIN_TRAIN, 0)
    model = BACKBONES[backbone].init(rng, d=X.shape[1], hidden=cfg.hidden)
    y = labels.y
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.validation, dtype=np.int64)
    clean_ops = model.build_ops(g)
    vul = vulnerable_ids(split.vulnerable, g.n) if (augment and split.vulnerable) else None
    pairs = None if vul is None else eligible_pairs(g.n, vul)

    def val_accuracy(m):
        logits = m.forward(clean_ops, X)
        return float((logits[val_idx].argmax(axis=1) == y[val_idx]).mean())

    def loss_grads(m, ops, Xe):
        h, mask, own, P = m._pass(ops, Xe, cfg.dropout, rng)
        logits = m._logits(own, P)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        loss = -np.mean(np.log(p[train_idx, y[train_idx]] + 1e-12))
        dlogits = np.zeros_like(p)
        dlogits[train_idx] = p[train_idx]
        dlogits[train_idx, y[train_idx]] -= 1.0
        dlogits /= train_idx.size
        return loss, m._backward(ops, Xe, m._pre(ops, Xe), h, mask, dlogits)[0]

    best = {k: v.copy() for k, v in model.params().items()}
    best_acc = val_accuracy(model) if val_idx.size else -1.0
    velocity = {k: np.zeros_like(v) for k, v in model.params().items()}
    for _ in range(cfg.epochs):
        ops, Xe = clean_ops, X
        if pairs is not None:
            flip = rng.random(pairs.shape[0]) < cfg.train_noise_flip_prob
            if flip.any():
                ops = model.build_ops(g.flip(pairs[flip]))
            Xe = np.array(X, copy=True)
            Xe[vul] += cfg.train_noise_std * rng.standard_normal((vul.size, X.shape[1]))
        loss, grads = loss_grads(model, ops, Xe)
        new = {}
        for name, value in model.params().items():
            step = grads[name] + cfg.weight_decay * value if name.startswith("W") else grads[name]
            velocity[name] = MOMENTUM * velocity[name] - cfg.lr * step
            new[name] = value + velocity[name]
        model = model.replace(new)
        if val_idx.size:
            acc = val_accuracy(model)
            if acc > best_acc:
                best_acc = acc
                best = {k: v.copy() for k, v in model.params().items()}
    return model.replace(best) if val_idx.size else model


def structure_attack_greedy_oracle(model, g, X, labels, vulnerable, budget_edges, metric="sp", nodes=None, pool_size=256, seed=0):
    """The greedy structure attack as one loop over candidates: flip the pair,
    rebuild the operator, run forward and score the hard bias, keeping the
    first strict maximum; a candidate with an undefined metric is skipped."""
    import numpy as np

    from elegant.fairness import UndefinedMetricError, bias_value
    from elegant.gnn import predict_classes
    from elegant.smoothing import DOMAIN_ATTACK, eligible_pairs, substream

    pairs = eligible_pairs(g.n, vulnerable)
    eval_nodes = np.arange(g.n) if nodes is None else np.asarray(sorted(nodes), dtype=np.int64)
    current = g
    open_mask = np.ones(pairs.shape[0], dtype=bool)
    rng = substream(seed, DOMAIN_ATTACK, 1)
    for step in range(budget_edges):
        open_pos = np.flatnonzero(open_mask)
        if open_pos.size == 0:
            break
        if open_pos.size > pool_size:
            candidates = open_pos[rng.choice(open_pos.size, size=pool_size, replace=False)]
        else:
            candidates = open_pos
        best = None
        best_bias = -1.0
        for ci in candidates:
            trial = current.flip(pairs[ci : ci + 1])
            try:
                b = bias_value(predict_classes(model, trial, X), labels, eval_nodes, metric)
            except UndefinedMetricError:
                continue
            if b > best_bias:
                best_bias = b
                best = ci
        if best is None:
            break
        open_mask[best] = False
        current = current.flip(pairs[best : best + 1])
    return current


def select_fair_output_oracle(classes, bias, indicator, inner_certified):
    """Per-record selection: each inner-certified outer sample offers its first
    smallest-bias indicator-fair draw, and the smallest (bias, stream id) key wins.

    Returns (class list of the winning draw, its bias), or None when no
    outer sample offers a draw.
    """
    n_inner = len(bias[0])
    best = None
    for o, certified in enumerate(inner_certified):
        fair = [i for i in range(n_inner) if indicator[o][i]]
        if not certified or not fair:
            continue
        i_star = min(fair, key=lambda i: bias[o][i])  # min keeps the first of equal keys
        key = (float(bias[o][i_star]), o * n_inner + i_star)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    o, i = divmod(best[1], n_inner)
    return [int(c) for c in classes[o][i]], best[0]


def positive_rate_gap_oracle(classes, groups):
    """|class-1 rate on g0 - class-1 rate on g1| for one pair: a gather and a bool mean per group."""
    g0, g1 = groups
    return abs((classes[..., g0] == 1).mean(-1) - (classes[..., g1] == 1).mean(-1))


def certify_set_oracle(classes, labels, test_set, cfg, eta):
    """One test set's certificate from scalar calls, draw by draw and outer sample by outer sample.

    classes is the (n_outer, n_inner, n) cache and eta the threshold value.
    bias_value gives each draw's bias (an undefined metric makes every
    indicator 0), binomial_lower_bound each outer sample's two inner bounds
    and the outer bound, attribute_radius each certified sample's radius;
    structure_budget, min over the radii, select_fair_output_oracle and a
    bool mean finish a certified set.  Returns (fields, records bytes,
    selected prediction bytes or None), where fields are the certificate's
    entries of CertificationReport.to_json_dict.
    """
    import numpy as np

    from elegant.certify import attribute_radius, structure_budget
    from elegant.estimate import binomial_lower_bound
    from elegant.fairness import UndefinedMetricError, bias_value

    nodes = sorted(test_set)
    n_outer, n_inner, _ = classes.shape
    try:
        bias = [[bias_value(classes[o, i], labels, nodes, cfg.metric) for i in range(n_inner)] for o in range(n_outer)]
    except UndefinedMetricError:
        bias = [[float("nan")] * n_inner for _ in range(n_outer)]
    indicator = [[b < eta for b in row] for row in bias]
    rows, radii, undecided = [], [], []
    for o, fair in enumerate(indicator):
        n1 = sum(fair)
        n0 = n_inner - n1
        low = binomial_lower_bound(n1, n0, alpha=cfg.alpha).lower
        certified = n1 > n0 and low > 0.5
        decided = certified or (n0 > n1 and binomial_lower_bound(n0, n1, alpha=cfg.alpha).lower > 0.5)
        radius = attribute_radius(low, cfg.sigma) if certified else float("nan")
        if certified:
            radii.append(radius)
        if not decided:
            undecided.append((o, n1, n0))
        rows.append((n1, low, certified, decided, radius))
    records = np.array(rows, dtype=[("n1", "<i8"), ("inner_lower_bound", "<f8"), ("inner_certified", "?"), ("decided", "?"), ("attribute_radius", "<f8")])
    n_pos = len(radii)
    outer = binomial_lower_bound(n_pos, n_outer - n_pos, alpha=cfg.alpha).lower
    fields = {"n_outer_positive": n_pos, "prop1_bound": 0.5**n_pos}
    reason = None
    if cfg.strict and undecided:
        o, n1, n0 = undecided[0]
        reason = f"undecided inner vote at outer sample {o} (n1={n1}, n0={n0})"
    elif outer <= 0.5:
        reason = f"outer fair-vote bound {outer:.6f} <= 1/2 ({n_pos}/{n_outer} positive)"
    if reason is not None:
        fields.update(outcome="ABSTAIN", eps_A=None, eps_X=None, bias=None, accuracy=None, abstain_reason=reason)
        return fields, records.tobytes(), None
    prediction, selected_bias = select_fair_output_oracle(classes, bias, indicator, [r[2] for r in rows])
    prediction = np.array(prediction, dtype=np.uint8)
    fields.update(
        outcome="CERTIFIED",
        eps_A=structure_budget(outer, cfg.beta, cfg.k_max),
        eps_X=min(radii),
        bias=selected_bias,
        accuracy=float(np.mean([prediction[v] == labels.y[v] for v in nodes])),
        abstain_reason=None,
    )
    return fields, records.tobytes(), prediction.tobytes()


def adjacency_oracle(edges, n, self_loops):
    """scipy CSR 0/1 adjacency of the (m, 2) edge array on n nodes, both directions, plus the identity with self_loops, and its row sums."""
    import numpy as np
    from scipy import sparse

    loops = np.arange(n if self_loops else 0)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    a = sparse.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    return a, np.asarray(a.sum(axis=1)).ravel()


def _diag(x):
    """diag(x) as CSR, keeping the zeros of x (a zero only ever scales an empty adjacency row)."""
    import numpy as np
    from scipy import sparse

    i = np.arange(x.size + 1)
    return sparse.csr_matrix((x, i[:-1], i), shape=(x.size, x.size))


def normalized_rows_oracle(a, deg, rows=slice(None)):
    """Rows of D^{-1/2} A D^{-1/2} for the adjacency a and its row sums deg, by scipy's products, each row's columns ascending."""
    import numpy as np

    d = 1.0 / np.sqrt(deg)
    return _diag(d[rows]) @ a[rows] @ _diag(d)


def mean_rows_oracle(a, deg, rows=slice(None)):
    """Rows of D^{-1} A, zero where deg is 0, by scipy's product, which leaves each row's columns descending."""
    import numpy as np

    inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    return _diag(inv[rows]) @ a[rows]


OPERATOR_ORACLES = {"gcn": normalized_rows_oracle, "sage": mean_rows_oracle}


def stacked_flips_oracle(a, deg, u, v):
    """(a, deg) for the B graphs with the pair (u[b], v[b]) toggled, as one block-diagonal graph on B*n nodes.

    Block b, nodes b*n to b*n + n - 1, is graph b, its whole adjacency
    toggled with scipy's own sparse arithmetic.
    """
    import numpy as np
    from scipy import sparse

    n = a.shape[0]
    blocks = []
    for ub, vb in zip(u.tolist(), v.tolist()):
        toggle = sparse.csr_matrix((np.ones(2), ([ub, vb], [vb, ub])), shape=(n, n))
        flipped = (a + toggle).tocsr()
        flipped.data %= 2
        flipped.eliminate_zeros()
        blocks.append(flipped)
    stacked = sparse.block_diag(blocks, format="csr")
    stacked.sort_indices()
    return stacked, np.asarray(stacked.sum(axis=1)).ravel()


def flip_patch_oracle(backbone, edges, n, u, v):
    """(R, patch): the operator rows of the B flipped graphs that a flip changes or reads, block row b*n + r, over columns b*n + j.

    gcn rebuilds u, v and their neighbours in the flipped graph (its self
    loops put u, v among them); sage rebuilds u and v alone.
    """
    import numpy as np

    a, deg = adjacency_oracle(edges, n, backbone == "gcn")
    stacked, stacked_deg = stacked_flips_oracle(a, deg, u, v)
    base = np.arange(u.size) * n
    if backbone == "gcn":
        R = np.unique(stacked[np.concatenate([base + u, base + v])].indices)
    else:
        R = np.column_stack([base + u, base + v]).ravel()
    return R, OPERATOR_ORACLES[backbone](stacked, stacked_deg, R)
