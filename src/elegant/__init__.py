"""Certified fairness defense for graph node classifiers.

The package wraps any node classifier over an attributed graph with a dual
randomized-smoothing construction: Gaussian noise on the attribute rows of a
designated vulnerable node set, and symmetric Bernoulli edge flips on the
node pairs incident to it.  The smoothed classifier outputs a prediction
whose group-fairness bias stays below a threshold eta for every structural
perturbation of at most eps_A edge flips combined with every attribute
perturbation of L2 norm at most eps_X.

Modules
-------
data        graph / attribute / label containers, file loaders, splits
fixtures    deterministic synthetic datasets for tests and demos
gnn         numpy GCN and GraphSAGE-mean backbones with analytic gradients
fairness    group bias metrics (statistical parity, equal opportunity)
smoothing   noise samplers and counter-based substreams
estimate    normal quantiles and one-sided binomial lower confidence bounds
certify     certification mathematics: radii, region tables, budget search
pipeline    end-to-end certification of sampled test sets
attack      structure / attribute attacks and the evaluation harness
cli         command line entry points
"""

from .certify import (
    CertifiedBudgets,
    RegionTable,
    attribute_radius,
    joint_attribute_budget,
    positive_prob_lower_bound,
    region_table,
    structure_budget,
)
from .data import Graph, NodeLabels, SplitSpec, load_dataset, make_splits, normalize_attributes, sample_test_sets
from .estimate import ProbabilityBound, binomial_lower_bound, std_normal_quantile
from .fairness import BiasThreshold, accuracy, delta_eo, delta_sp
from .pipeline import CertificationReport, certify_and_predict, fcr_run, prop1_bound, select_fair_output
from .smoothing import SmoothingConfig, sample_attribute_noise, sample_structure_mask

__version__ = "0.1.0"

__all__ = [
    "BiasThreshold",
    "CertificationReport",
    "CertifiedBudgets",
    "Graph",
    "NodeLabels",
    "ProbabilityBound",
    "RegionTable",
    "SmoothingConfig",
    "SplitSpec",
    "accuracy",
    "attribute_radius",
    "binomial_lower_bound",
    "certify_and_predict",
    "delta_eo",
    "delta_sp",
    "fcr_run",
    "joint_attribute_budget",
    "load_dataset",
    "make_splits",
    "normalize_attributes",
    "positive_prob_lower_bound",
    "prop1_bound",
    "region_table",
    "sample_attribute_noise",
    "sample_structure_mask",
    "sample_test_sets",
    "select_fair_output",
    "std_normal_quantile",
    "structure_budget",
]
