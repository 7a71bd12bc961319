"""Certified fairness defense for graph node classifiers.

The package wraps any node classifier over an attributed graph with a dual
randomized-smoothing construction: Gaussian noise on the attribute rows of a
designated vulnerable node set, and symmetric Bernoulli edge flips on the
node pairs incident to it.  The smoothed classifier outputs a prediction
whose group-fairness bias stays below a threshold eta for every structural
perturbation of at most eps_A edge flips combined with every attribute
perturbation of L2 norm below eps_X.

Modules
-------
data        graph / attribute / label containers, file loaders, splits
fixtures    deterministic synthetic datasets for tests and demos
gnn         numpy GCN and GraphSAGE-mean backbones with analytic gradients
fairness    group bias metrics (statistical parity, equal opportunity) and their one rate kernel
smoothing   noise samplers and counter-based substreams
estimate    one-sided binomial lower confidence bounds
certify     certification mathematics: radii, region tables, budget search
pipeline    end-to-end certification of sampled test sets
attack      structure / attribute attacks and the evaluation harness
cli         command line entry points
"""

from .certify import (
    CertifiedBudgets,
    RegionTable,
    attribute_radius,
    positive_prob_lower_bound,
    region_table,
    structure_budget,
)
from .data import Graph, NodeLabels, SplitSpec, load_dataset, make_splits, normalize_attributes, sample_test_sets
from .estimate import ProbabilityBound, binomial_lower_bound
from .fairness import BiasThreshold, accuracy, bias_value
from .pipeline import CertificationReport, certify_and_predict, certify_sets, fcr_run, prop1_bound, select_fair_output
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
    "bias_value",
    "binomial_lower_bound",
    "certify_and_predict",
    "certify_sets",
    "fcr_run",
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
    "structure_budget",
]
