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
    load_table,
    standardize,
)
from .kmember import (
    ClusterModel,
    greedy_k_member,
    total_distortion,
    validate_k_anonymous,
)
from .pipeline import (
    AnonymizedTable,
    anonymize,
    prepare,
    transform,
)
from .reid import ReidReport, match_min_distance, reid_trials
from .rosenblatt import forward_gaussian, inverse_empirical_indices
from .shiftlearn import (
    RegressionModel,
    TransferSpec,
    build_design,
    histogram_intersection,
    logistic_weights,
    nonparametric_weights,
    predict,
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
    "Standardizer",
    "TableSchema",
    "TransferSpec",
    "anonymize",
    "build_design",
    "build_empirical_joint",
    "forward_gaussian",
    "greedy_k_member",
    "histogram_intersection",
    "inverse_empirical_indices",
    "load_table",
    "logistic_weights",
    "match_min_distance",
    "nonparametric_weights",
    "predict",
    "prepare",
    "r_squared",
    "reid_trials",
    "relative_bias",
    "standardize",
    "synthetic_table",
    "total_distortion",
    "transfer_weights",
    "transform",
    "validate_k_anonymous",
    "weighted_least_squares",
]
