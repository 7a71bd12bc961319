"""
Attacking inside and outside the certified budget
=================================================

The certificate promises that no perturbation within (eps_A, eps_X) can
push the selected output's bias past eta.  This script hands a substitute
attacker the undefended model, lets it craft perturbations at two budget
levels, and applies them to both victims.
"""

import os

from elegant.attack import evaluate_under_attack
from elegant.data import load_dataset, make_splits, normalize_attributes
from elegant.fairness import BiasThreshold, bias_value
from elegant.fixtures import bundled_fixture_dir
from elegant.gnn import TrainConfig, predict_classes, train
from elegant.smoothing import SmoothingConfig

root = bundled_fixture_dir("sbm200")
g, X, labels = load_dataset(
    os.path.join(root, "edges.txt"),
    os.path.join(root, "features.csv"),
    os.path.join(root, "labels.csv"),
)
X = normalize_attributes(X)
split = make_splits(g, seed=0)

tc = TrainConfig(seed=0)
vanilla = train(g, X, labels, split, tc)
smoothed_base = train(g, X, labels, split, tc, augment=True)

# Attack evaluations conventionally use a looser threshold than
# certification, 1.5x the vanilla bias instead of 1.25x.
cls = predict_classes(vanilla, g, X)
eta = BiasThreshold.relative(1.5, bias_value(cls, labels, split.test_pool, "sp"))
cfg = SmoothingConfig(n_outer=60, n_inner=40, master_seed=0)

# One cell inside the typical certificate (1 flip, 0.1 L2) and one far
# outside it (8 flips, 3.0 L2).
grid = ((1, 0.1), (8, 3.0))
rows, meta = evaluate_under_attack(vanilla, smoothed_base, g, X, labels, split, grid, cfg, eta=eta)

print(f"clean certificate: {meta['clean_outcome']}, "
      f"eps_A = {meta['clean_eps_A']}, eps_X = {meta['clean_eps_X']:.3f}, eta = {meta['eta']:.3f}")
print(f"attacker: {meta['attacker']} ({meta['attacker_detail']['structure']})\n")

header = f"{'flips':>5} {'L2':>5}  {'model':<14} {'acc':>6} {'gap':>6}  {'outcome':<9} {'in budget':<9}"
print(header)
print("-" * len(header))
for r in rows:
    acc = r["accuracy"] if isinstance(r["accuracy"], str) else f"{r['accuracy']:.3f}"
    gap = r["delta_sp"] if isinstance(r["delta_sp"], str) else f"{r['delta_sp']:.3f}"
    print(f"{r['budget_edges']:>5} {r['budget_l2']:>5}  {r['model']:<14} {acc:>6} {gap:>6}"
          f"  {r['outcome']:<9} {r['within_certified']:<9}")

# Inside the budget the smoothed row must stay below eta whenever it
# reports CERTIFIED; outside it anything can happen, including a loud
# ABSTAIN, which is the honest answer when the votes blur.
