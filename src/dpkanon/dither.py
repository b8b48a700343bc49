"""Per-cluster cell counts of the quasi-identifiers, and Gaussian dither
from per-cluster moments.

The Gaussian sampler draws the dither of many records at once from a single
stream, in record order. The pipeline derives one stream per (seed, channel,
trial) from the master seed, so a trial's output depends on the seed and the
record order only.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import EmpiricalJoint, round_sig
from .errors import DegenerateError, DomainError, PartitionError
from .kmember import ClusterModel

# Smallest conditional variance a loaded cluster covariance may have.
_PD_TOL = 1e-10


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministic child stream of the master seed, keyed by integers."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class CellPartition:
    """Cell counts of the quasi-identifier tuples, per cluster and in total.

    A cell is a tuple of per-dimension value indices into the joint's
    sorted distinct values; cluster_cell_counts maps (cluster, cell) to
    n_l(cell) and cell_counts maps cell to n(cell).
    """

    cluster_cell_counts: dict
    cell_counts: dict


def build_cell_partition(joint: EmpiricalJoint, model: ClusterModel) -> CellPartition:
    """Tally each cluster's records per cell of the joint.  Verifies that
    every clustered value is observed in the joint and the bookkeeping
    identity sum_l n_l(cell) = n(cell)."""
    rows = round_sig(np.concatenate(model.values))
    ells = np.repeat(np.arange(model.c), model.sizes)
    idx = np.empty(rows.shape, dtype=int)
    for j, v in enumerate(joint.values):
        idx[:, j] = np.minimum(np.searchsorted(v, rows[:, j]), len(v) - 1)
        off = np.flatnonzero(v[idx[:, j]] != rows[:, j])
        if len(off):
            raise PartitionError(
                f"cluster {ells[off[0]]}, dimension {j}: value {rows[off[0], j]!r} "
                "is not an observed value of the joint; model and joint "
                "were built from different data")
    cells = list(map(tuple, idx.tolist()))
    cluster_cell_counts = Counter(zip(ells.tolist(), cells))

    totals = dict(Counter(cells))
    if totals != joint.counts:
        cell = next(t for t in sorted(set(totals) | set(joint.counts))
                    if totals.get(t, 0) != joint.counts.get(t, 0))
        raise PartitionError(
            f"cell {cell} holds {totals.get(cell, 0)} records across clusters "
            f"but {joint.counts.get(cell, 0)} in the joint; model and joint "
            "were built from different data")

    return CellPartition(dict(cluster_cell_counts), totals)


def _loaded_cholesky(model: ClusterModel, alpha: float) -> np.ndarray:
    """Cholesky factors L_l of Sigma_l + alpha I for all clusters at once,
    column by column. The squared diagonal entry L_l[j, j] is the
    conditional variance of dimension j given the dimensions before it,
    which must exceed _PD_TOL."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    d = model.centroids.shape[1]
    lam = model.covariances + alpha * np.eye(d)
    L = np.zeros_like(lam)
    for j in range(d):
        s2 = lam[:, j, j] - np.einsum("ck,ck->c", L[:, j, :j], L[:, j, :j])
        bad = np.flatnonzero(~(s2 > _PD_TOL))
        if len(bad):
            ell = int(bad[0])
            raise DegenerateError(
                f"conditional variance {s2[ell]:.3g} not positive in cluster "
                f"{ell}, dimension {j}; the loaded covariance is singular, "
                "so alpha must be larger")
        L[:, j, j] = np.sqrt(s2)
        L[:, j + 1:, j] = (
            lam[:, j + 1:, j] - np.einsum("cik,ck->ci", L[:, j + 1:, :j], L[:, j, :j])
        ) / L[:, j, j, None]
    return L


def sample_gaussian_batch(model: ClusterModel, alpha: float, records,
                          rng: np.random.Generator) -> np.ndarray:
    """Gaussian dither N(centroid_l, Sigma_l + alpha I) for many records with
    a single stream.

    Draw order is fixed by the given record order, so the result is
    deterministic for a given generator state.
    """
    records = np.asarray(records, dtype=int)
    L = _loaded_cholesky(model, alpha)
    ells = model.assignment[records]
    z = rng.standard_normal((len(records), model.centroids.shape[1]))
    out = model.centroids[ells] + np.einsum("njk,nk->nj", L[ells], z)
    return out
