"""End-to-end anonymization pipeline: standardize, cluster, dither/transform,
destandardize, rejoin the response.

Only the quasi-identifiers are anonymized; the response participates in the
clustering distance but is passed through untouched.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

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
    """Clustering-stage artifacts, reusable across dither trials. The
    empirical joint and its original values, which only `gaussian` reads,
    are built on first use."""

    table: DataTable
    standardizer: Standardizer
    model: ClusterModel
    k: int
    w: float
    seed: int

    @cached_property
    def joint(self) -> EmpiricalJoint:
        # standardize's own call, so the same bits
        return build_empirical_joint(self.standardizer.apply_qi(self.table.qi))

    @cached_property
    def orig_values(self) -> tuple:
        """Per dimension, an original value for each joint value index.
        Standardizing and rounding are monotone, so the sorted original
        values of a dimension fall in one block per joint value index. Each
        block's first value (np.unique's pick among 0.0 and -0.0) aligns
        with joint.values."""
        joint = self.joint
        idx = joint.keys[joint.inverse]
        sizes = [np.bincount(col) for col in idx.T]
        return tuple(np.sort(col)[np.cumsum(m) - m] for col, m in zip(self.table.qi.T, sizes))


def prepare(table: DataTable, k: int, w: float = 1.0, seed: int = 0) -> PipelineState:
    std_table, std = standardize(table)
    model = greedy_k_member(std_table, k, w=w, seed=seed)
    return PipelineState(table, std, model, k, w, seed)


def resample_within_clusters(model: ClusterModel, rng: np.random.Generator,
                             with_replacement: bool) -> np.ndarray:
    """Per-record source indices: independent uniform member draws (with
    replacement) or a uniformly random permutation of each cluster's members
    (without), in one draw for all clusters. The draw with replacement
    consumes the stream as one rng.choice per cluster, in cluster order."""
    order, starts, sizes = model.segments
    if with_replacement:
        pos = np.repeat(starts, sizes) + rng.integers(0, np.repeat(sizes, sizes))
    else:
        pos = np.lexsort((rng.permutation(len(order)), model.assignment[order]))
    out = np.empty(model.n, dtype=int)
    out[order] = order[pos]
    return out


def _indices_to_original(state: PipelineState, idx: np.ndarray) -> np.ndarray:
    return np.column_stack([v[idx[:, j]] for j, v in enumerate(state.orig_values)])


def _centroids_in_original_units(state: PipelineState) -> np.ndarray:
    """Each cluster's centroid in original units, clipped to its members'
    range: the standardize round trip may round a mean of equal values off
    them, and a cluster whose members share a code releases that code."""
    order, starts, _ = state.model.segments
    rows = state.table.qi[order]
    return np.clip(state.standardizer.revert_qi(state.model.centroids),
                   np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts))


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
        qi_hat = _centroids_in_original_units(state)[state.model.assignment]
    elif drawn in ("resample", "permute"):
        rng = substream(seed, _CH_RESAMPLE, trial)
        src = resample_within_clusters(state.model, rng,
                                       with_replacement=(drawn == "resample"))
        qi_hat = state.table.qi[src].copy()
    else:  # gaussian: dither, forward Rosenblatt transform, inverse empirical CDF
        # on first use, so the other methods never load the forward map
        from .rosenblatt import gaussian_release_indices

        rng = substream(seed, _CH_DITHER, trial)
        xt = sample_gaussian_batch(state.model, alpha, np.arange(state.table.n), rng)
        qi_hat = _indices_to_original(
            state, gaussian_release_indices(xt, state.model, alpha, state.joint))

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
    """The release as csv.writer writes it. When every id is an int (the row
    ordinals load_table gives without an id column) no data cell needs
    quoting, and each data row is one ",".join of its cells' texts; other
    ids go through csv.writer.writerows."""
    cols = [_float_reprs(col) for col in np.asarray(anon.qi_hat, dtype=float).T]
    cols.append(_float_reprs(np.asarray(anon.response, dtype=float)))
    ids = anon.record_ids
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id"] + [c.name for c in anon.columns] + [response_name])
        if all(type(rid) is int for rid in ids):
            lines = list(map(",".join, zip(map(str, ids), *cols)))
            lines.append("")  # so the last row ends in "\r\n" too
            fh.write("\r\n".join(lines))
        else:
            writer.writerows(zip(ids, *cols))


def _float_reprs(col: np.ndarray) -> list:
    """Each value's repr, which is how csv writes a Python float. Each
    distinct bit pattern (so -0.0 apart from 0.0) is formatted once, in one
    repr of the list of them."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    reprs = repr(bits.view(float).tolist())[1:-1].split(", ")
    return np.array(reprs, dtype=object)[inverse].tolist()


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
