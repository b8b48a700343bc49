"""Distribution-preserving k-anonymization of tabular microdata.

Transforms quasi-identifiers to satisfy k-anonymity while keeping their
empirical joint distribution, and evaluates reidentification risk and
covariate-shift regression utility of the result.
"""

__version__ = "0.1.0"

from .dataset import (
    Column,
    DataTable,
    EmpiricalJoint,
    Standardizer,
    TableSchema,
    build_empirical_joint,
    conditional_cdf,
    inverse_conditional_cdf,
    load_table,
    standardize,
)
from .dither import substream
from .kmember import (
    ClusterModel,
    distortion,
    greedy_k_member,
    total_distortion,
    validate_k_anonymous,
)
from .pipeline import (
    AnonymizedTable,
    anonymize,
    prepare,
    resample_within_clusters,
    transform,
)
from .reid import ReidReport, match_min_distance, reid_trials
from .rosenblatt import forward_gaussian, inverse_empirical
from .shiftlearn import (
    RegressionModel,
    ShiftWeights,
    TransferSpec,
    build_design,
    histogram_intersection,
    logistic_weights,
    nonparametric_weights,
    r_squared,
    relative_bias,
    transfer_weights,
    weighted_least_squares,
)
from .synth import synthetic_table

__all__ = [
    "AnonymizedTable",
    "ClusterModel",
    "Column",
    "DataTable",
    "EmpiricalJoint",
    "RegressionModel",
    "ReidReport",
    "ShiftWeights",
    "Standardizer",
    "TableSchema",
    "TransferSpec",
    "anonymize",
    "build_design",
    "build_empirical_joint",
    "conditional_cdf",
    "distortion",
    "forward_gaussian",
    "greedy_k_member",
    "histogram_intersection",
    "inverse_conditional_cdf",
    "inverse_empirical",
    "load_table",
    "logistic_weights",
    "match_min_distance",
    "nonparametric_weights",
    "prepare",
    "r_squared",
    "reid_trials",
    "relative_bias",
    "resample_within_clusters",
    "standardize",
    "substream",
    "synthetic_table",
    "total_distortion",
    "transfer_weights",
    "transform",
    "validate_k_anonymous",
    "weighted_least_squares",
]
