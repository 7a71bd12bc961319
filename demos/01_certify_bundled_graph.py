"""
Certify a node classifier on the bundled graph
==============================================

End-to-end walk through the library API: load the packaged 200-node
attributed graph, train the two backbones, smooth the noise-augmented one,
and read the certificate off the report.
"""

from elegant.data import load_dataset, make_splits, normalize_attributes
from elegant.fairness import BiasThreshold, accuracy, bias_value
from elegant.fixtures import bundled_fixture_dir
from elegant.gnn import TrainConfig, predict_classes, train
from elegant.pipeline import certify_and_predict
from elegant.smoothing import SmoothingConfig
import os

# The dataset ships as three plain text files: an edge list, a CSV of node
# attributes, and a CSV with one class label and one sensitive attribute
# per node.  Any data in that shape works here.
root = bundled_fixture_dir("sbm200")
g, X, labels = load_dataset(
    os.path.join(root, "edges.txt"),
    os.path.join(root, "features.csv"),
    os.path.join(root, "labels.csv"),
)
X = normalize_attributes(X)
print(f"graph: {g.n} nodes, {g.n_edges} edges, {X.shape[1]} attributes")

# Splits are drawn from the seed alone, so every run of this script sees
# the same world.  The vulnerable nodes are the ones the adversary may
# touch; certification protects exactly them.
split = make_splits(g, seed=0)
print(f"splits: {len(split.train)} train / {len(split.validation)} val / {len(split.test_pool)} pool")
print(f"vulnerable nodes: {split.vulnerable}")

tc = TrainConfig(seed=0)
vanilla = train(g, X, labels, split, tc)
smoothed_base = train(g, X, labels, split, tc, augment=True)

# The bias threshold eta is relative by convention: a multiple of the bias
# the undefended model shows on the clean test pool.
cls = predict_classes(vanilla, g, X)
vanilla_bias = bias_value(cls, labels, split.test_pool, "sp")
eta = BiasThreshold.relative(1.25, vanilla_bias)
print(f"\nvanilla parity gap {vanilla_bias:.3f}  ->  eta = {eta.eta:.3f}")

# Smoothing parameters.  The outer layer flips vulnerable-incident pairs
# with probability 1 - beta, the inner layer adds Gaussian noise to the
# vulnerable attribute rows.  Counts are reduced here to keep the demo
# quick; the defaults are n_outer=200, n_inner=150.
cfg = SmoothingConfig(n_outer=60, n_inner=40, master_seed=0)
report = certify_and_predict(smoothed_base, g, X, labels, split, split.test_pool, cfg, eta=eta)

print(f"\noutcome: {report.outcome}")
if report.outcome == "CERTIFIED":
    print(f"certified structure budget  eps_A = {report.budgets.eps_A} pair flips")
    print(f"certified attribute budget  eps_X = {report.budgets.eps_X:.3f} in L2")
    print(f"selected output bias {report.selected_bias:.3f} < eta {eta.eta:.3f}")
    # the report already holds the selected output's accuracy on the test set
    print(f"accuracy on the pool: certified {report.accuracy:.3f} vs vanilla "
          f"{accuracy(cls, labels.y, split.test_pool):.3f}")
else:
    print(f"abstained: {report.abstain_reason}")
