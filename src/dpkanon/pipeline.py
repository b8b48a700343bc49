"""End-to-end anonymization pipeline: standardize, cluster, dither/transform,
destandardize, rejoin the response.

Only the quasi-identifiers are anonymized; the response participates in the
clustering distance but is passed through untouched.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import (
    DataTable,
    EmpiricalJoint,
    Standardizer,
    build_empirical_joint,
    standardize,
)
from .dither import check_alpha, sample_gaussian_batch, substream
from .errors import DomainError
from .kmember import ClusterModel, greedy_k_member
from .rosenblatt import forward_gaussian, inverse_empirical_indices

METHODS = ("centroid", "resample", "permute", "cell_dither", "gaussian")

# Methods released by another method's draw. cell_dither's dither -> forward
# -> inverse chain lands back in the cell it drew, and it draws cell v with
# probability n_l(v)/n_l: resample's law, so it is released by resample's
# draw and its output equals resample's byte for byte.
RELEASED_BY = {"cell_dither": "resample"}

# substream channels
_CH_DITHER = 0
_CH_RESAMPLE = 2


@dataclass(frozen=True)
class AnonymizedTable:
    qi_hat: np.ndarray
    response: np.ndarray
    columns: tuple
    record_ids: tuple
    method: str
    k: int
    seed: int
    alpha: float
    w: float


@dataclass(frozen=True)
class PipelineState:
    """Clustering-stage artifacts, reusable across dither trials."""

    table: DataTable
    standardizer: Standardizer
    model: ClusterModel
    joint: EmpiricalJoint
    orig_values: tuple  # per dimension, an original value for each joint value index
    k: int
    w: float
    seed: int


def prepare(table: DataTable, k: int, w: float = 1.0, seed: int = 0) -> PipelineState:
    std_table, std = standardize(table)
    model = greedy_k_member(std_table, k, w=w, seed=seed)
    joint = build_empirical_joint(std_table.qi)
    # Standardizing and rounding are monotone, so the sorted original values
    # of a dimension fall in one block per joint value index. Each block's
    # first value (np.unique's pick among 0.0 and -0.0) aligns with joint.values.
    idx = joint.keys[joint.inverse]
    sizes = [np.bincount(col) for col in idx.T]
    orig_values = tuple(np.sort(col)[np.cumsum(m) - m] for col, m in zip(table.qi.T, sizes))
    return PipelineState(table, std, model, joint, orig_values, k, w, seed)


def resample_within_clusters(model: ClusterModel, rng: np.random.Generator,
                             with_replacement: bool) -> np.ndarray:
    """Per-record source indices: independent uniform member draws (with
    replacement) or a uniformly random permutation of each cluster's members
    (without)."""
    out = np.empty(model.n, dtype=int)
    for idx in model.members:
        if with_replacement:
            out[idx] = rng.choice(idx, size=len(idx), replace=True)
        else:
            out[idx] = rng.permutation(idx)
    return out


def _indices_to_original(state: PipelineState, idx: np.ndarray) -> np.ndarray:
    return np.column_stack([v[idx[:, j]] for j, v in enumerate(state.orig_values)])


def transform(state: PipelineState, method: str, alpha: float = 1.0 / 3.0,
              trial: int = 0) -> AnonymizedTable:
    """Apply one anonymization method on a prepared state.

    `trial` keys the method's random stream, so repeated trials on a fixed
    clustering draw fresh randomness deterministically. Each call draws from
    one stream per (seed, channel, trial), in record order. `alpha`, the
    Gaussian dither's loading, must be positive and finite for every method,
    since every release records it.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")
    check_alpha(alpha)
    seed = state.seed
    drawn = RELEASED_BY.get(method, method)

    if drawn == "centroid":
        qi_std = state.model.centroids[state.model.assignment]
        qi_hat = state.standardizer.revert_qi(qi_std)
    elif drawn in ("resample", "permute"):
        rng = substream(seed, _CH_RESAMPLE, trial)
        src = resample_within_clusters(state.model, rng,
                                       with_replacement=(drawn == "resample"))
        qi_hat = state.table.qi[src].copy()
    else:  # gaussian: dither, forward Rosenblatt transform, inverse empirical CDF
        rng = substream(seed, _CH_DITHER, trial)
        xt = sample_gaussian_batch(state.model, alpha, np.arange(state.table.n), rng)
        u = forward_gaussian(xt, state.model, alpha)
        qi_hat = _indices_to_original(state, inverse_empirical_indices(u, state.joint))

    return AnonymizedTable(
        qi_hat=qi_hat,
        response=state.table.response.copy(),
        columns=state.table.columns,
        record_ids=state.table.record_ids,
        method=method,
        k=state.k,
        seed=seed,
        alpha=alpha,
        w=state.w,
    )


def anonymize(table: DataTable, k: int, method: str, w: float = 1.0,
              alpha: float = 1.0 / 3.0, seed: int = 0) -> AnonymizedTable:
    """Full pipeline: standardize, cluster, transform, destandardize, rejoin."""
    state = prepare(table, k, w=w, seed=seed)
    return transform(state, method, alpha=alpha)


def write_anonymized_csv(anon: AnonymizedTable, path, response_name: str = "response"):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id"] + [c.name for c in anon.columns] + [response_name])
        # csv writes a Python float as its repr
        qi = np.asarray(anon.qi_hat, dtype=float).tolist()
        ys = np.asarray(anon.response, dtype=float).tolist()
        writer.writerows([rid, *row, y] for rid, row, y in zip(anon.record_ids, qi, ys))


def write_sidecar(anon: AnonymizedTable, path):
    meta = {
        "method": anon.method,
        "k": anon.k,
        "seed": anon.seed,
        "alpha": anon.alpha,
        "w": anon.w,
        "n": int(len(anon.response)),
        "d": int(anon.qi_hat.shape[1]),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
