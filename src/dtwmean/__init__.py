"""Restricted-complexity means, medians and clusterings under the p-DTW distance.

The package computes, for a set of point sequences in Euclidean space, short
"mean" sequences minimizing summed powers of p-DTW distances:

* :func:`dtw` / :func:`cost` / :func:`sections` -- the distance layer,
* :func:`simplify` -- vertex-restricted minimum-error simplification,
* :func:`mean_c` / :func:`mean_c_d` -- randomized and deterministic
  constant-factor mean approximation,
* :func:`med_appr` -- the (1 + eps) median scheme for Euclidean data,
* :func:`k_clustering` -- clustering, with ``generator="cand1"`` (vertex
  sampling) or ``generator="cand2"`` (simplified sampled sequences),
* :func:`exact_mean` / :func:`exact_clustering` -- desk-scale exact oracles,
* :func:`dba` -- the classical averaging baseline (no guarantee).
"""

from .clustering import (
    CenterSet,
    ClusteringParams,
    clustering_cost,
    k_clustering,
)
from .core import (
    Dataset,
    DtwResult,
    PointSequence,
    Section,
    Warping,
    cost,
    dtw,
    enumerate_warpings,
    optimal_sections,
    sections,
    warping_count,
    weak_triangle_check,
)
from .dataio import load_dataset, save_dataset
from .dba import DbaResult, dba, default_dba_init
from .errors import CapacityError, DomainError, DtwMeanError
from .meanapprox import MeanResult, mean_c, mean_c_d
from .oracle import OracleResult, exact_clustering, exact_mean
from .ranges import ball_ranges, epsilon_net
from .refine import BallUnion, grid_cover, med_appr
from .simplify import SimplificationResult, simplify
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "BallUnion",
    "CapacityError",
    "CenterSet",
    "ClusteringParams",
    "Dataset",
    "DbaResult",
    "DomainError",
    "DtwMeanError",
    "DtwResult",
    "MeanResult",
    "OracleResult",
    "PointSequence",
    "Section",
    "SimplificationResult",
    "Warping",
    "ball_ranges",
    "clustering_cost",
    "cost",
    "dba",
    "default_dba_init",
    "dtw",
    "enumerate_warpings",
    "epsilon_net",
    "exact_clustering",
    "exact_mean",
    "generate_synthetic",
    "grid_cover",
    "k_clustering",
    "load_dataset",
    "mean_c",
    "mean_c_d",
    "med_appr",
    "optimal_sections",
    "save_dataset",
    "sections",
    "simplify",
    "warping_count",
]
