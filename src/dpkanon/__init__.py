"""Distribution-preserving k-anonymization of tabular microdata.

Transforms quasi-identifiers to satisfy k-anonymity while keeping their
empirical joint distribution, and evaluates reidentification risk and
covariate-shift regression utility of the result.

Each exported name is imported from its submodule on first access (PEP 562),
so `import dpkanon.cli` loads only the modules an `anonymize` run uses.
"""
import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    "Column": "dataset",
    "DataTable": "dataset",
    "EmpiricalJoint": "dataset",
    "Standardizer": "dataset",
    "TableSchema": "dataset",
    "build_empirical_joint": "dataset",
    "load_table": "dataset",
    "standardize": "dataset",
    "ClusterModel": "kmember",
    "greedy_k_member": "kmember",
    "total_distortion": "kmember",
    "validate_k_anonymous": "kmember",
    "AnonymizedTable": "pipeline",
    "anonymize": "pipeline",
    "prepare": "pipeline",
    "transform": "pipeline",
    "ReidReport": "reid",
    "match_min_distance": "reid",
    "reid_trials": "reid",
    "forward_gaussian": "rosenblatt",
    "inverse_empirical_indices": "rosenblatt",
    "RegressionModel": "shiftlearn",
    "TransferSpec": "shiftlearn",
    "build_design": "shiftlearn",
    "histogram_intersection": "shiftlearn",
    "logistic_weights": "shiftlearn",
    "nonparametric_weights": "shiftlearn",
    "predict": "shiftlearn",
    "r_squared": "shiftlearn",
    "relative_bias": "shiftlearn",
    "transfer_weights": "shiftlearn",
    "weighted_least_squares": "shiftlearn",
    "synthetic_table": "synth",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
