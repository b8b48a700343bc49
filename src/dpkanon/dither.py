"""Continuous dither generation: piecewise-uniform intra-cluster dither over
rectangular cells, and Gaussian dither from per-cluster moments.

Both samplers draw the dither of many records at once from a single stream,
in record order. The pipeline derives one stream per (seed, channel, trial)
from the master seed, so a trial's output depends on the seed and the
record order only.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .dataset import EmpiricalJoint, round_sig, searchsorted_segments, segment_cumfrac
from .errors import DegenerateError, DomainError, PartitionError
from .kmember import ClusterModel

# Smallest conditional variance a loaded cluster covariance may have.
_PD_TOL = 1e-10


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministic child stream of the master seed, keyed by integers."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


class CellPartition:
    """Rectangular tiling of quasi-identifier space: per-dimension interval
    boundaries plus per-cluster cell counts.

    Unbounded edge intervals get a symmetric truncation around the cell's
    value (half the median interior interval width) for sampling, which also
    defines the within-cell CDF used by the forward transform.
    """

    def __init__(self, values, boundaries, cluster_cell_counts, cell_counts,
                 cluster_sizes, groups=None):
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.boundaries = [np.asarray(b, dtype=float) for b in boundaries]
        self.cluster_cell_counts = dict(cluster_cell_counts)
        self.cell_counts = dict(cell_counts)
        self.cluster_sizes = np.asarray(cluster_sizes, dtype=int)
        self.groups = None if groups is None else tuple(tuple(g) for g in groups)
        self.d = len(self.boundaries)
        self._build_supports()
        self._build_cluster_cells()

    @property
    def merged(self) -> bool:
        return self.groups is not None

    def n_cells(self, j: int) -> int:
        return len(self.boundaries[j]) - 1

    def _cell_value_span(self, j: int, i: int):
        """Smallest and largest observed values contained in cell i of dim j."""
        if self.merged and j == 0:
            g = self.groups[i]
            return self.values[0][g[0]], self.values[0][g[-1]]
        v = self.values[j][i]
        return v, v

    def _build_supports(self):
        self.delta = []
        self.lo = []
        self.hi = []
        for j in range(self.d):
            b = self.boundaries[j]
            interior = b[1:-1]
            if len(interior) >= 2:
                widths = np.diff(interior)
            elif len(self.values[j]) >= 2:
                widths = np.diff(self.values[j])
            else:
                widths = np.array([1.0])
            delta = float(np.median(widths)) / 2.0
            lo = np.empty(self.n_cells(j))
            hi = np.empty(self.n_cells(j))
            for i in range(self.n_cells(j)):
                vmin, vmax = self._cell_value_span(j, i)
                left, right = b[i], b[i + 1]
                lo[i] = left if np.isfinite(left) else vmin - delta
                hi[i] = right if np.isfinite(right) else vmax + delta
                if not np.isfinite(left):
                    hi[i] = min(hi[i], vmin + delta) if np.isfinite(right) else hi[i]
                if not np.isfinite(right) and np.isfinite(left):
                    lo[i] = max(lo[i], vmax - delta)
            self.delta.append(delta)
            self.lo.append(lo)
            self.hi.append(hi)

    def _build_cluster_cells(self):
        # Cluster ell owns rows starts[ell]:starts[ell] + lengths[ell] of
        # cell_keys (its cells, sorted), with their cumulative probabilities
        # n_l(cell)/n_l, ending at exactly 1, in cell_cum.
        items = sorted(self.cluster_cell_counts.items())
        ells = np.array([ell for (ell, _), _ in items], dtype=np.intp)
        self.cell_keys = np.array([cell for (_, cell), _ in items],
                                  dtype=np.intp).reshape(-1, self.d)
        self.cell_cum, self.cell_starts, self.cell_lengths = segment_cumfrac(
            [cnt for _, cnt in items], ells, len(self.cluster_sizes))

    def locate(self, j: int, x):
        """Index of the cell (b(i), b(i+1)] containing x in dimension j;
        elementwise for an array x."""
        return np.searchsorted(self.boundaries[j][1:-1], x, side="left")


def build_cell_partition(joint: EmpiricalJoint, model: ClusterModel) -> CellPartition:
    """Midpoint boundaries between consecutive distinct values, with cell
    counts tallied per cluster.  Verifies the bookkeeping identity
    sum_l n_l(cell) = n(cell)."""
    boundaries = []
    for v in joint.values:
        mids = (v[:-1] + v[1:]) / 2.0
        boundaries.append(np.concatenate(([-np.inf], mids, [np.inf])))

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

    return CellPartition(
        joint.values,
        boundaries,
        cluster_cell_counts,
        dict(joint.counts),
        model.sizes,
    )


def sample_intra_cluster(model: ClusterModel, partition: CellPartition, records,
                         rng: np.random.Generator) -> np.ndarray:
    """Piecewise-uniform dither for many records with a single stream.

    For each record, in the given order, pick a cell with probability
    n_l(cell)/n_l for its cluster l; then draw every coordinate uniform on
    the cell's (possibly truncated) interval. Returns an (N, d) array.
    """
    records = np.asarray(records, dtype=int)
    ells = model.assignment[records]
    starts = partition.cell_starts[ells]
    lengths = partition.cell_lengths[ells]
    # 1 - random() lies in (0, 1], so the first cumulative probability at or
    # above it picks cell i with probability p_i.
    v = 1.0 - rng.random(len(records))
    pos = np.minimum(searchsorted_segments(partition.cell_cum, starts, lengths, v),
                     lengths - 1)
    cells = partition.cell_keys[starts + pos]
    lo = np.column_stack([partition.lo[j][cells[:, j]] for j in range(partition.d)])
    hi = np.column_stack([partition.hi[j][cells[:, j]] for j in range(partition.d)])
    return rng.uniform(lo, hi)


def merge_cells_1d(partition: CellPartition, model: ClusterModel) -> CellPartition:
    """Merge contiguous 1-d cells that belong in full to the same cluster."""
    if partition.d != 1:
        raise DomainError("cell merging is defined for d = 1 only")

    n1 = partition.n_cells(0)
    owner = np.full(n1, -1, dtype=int)  # owning cluster, -1 if split
    for i in range(n1):
        total = partition.cell_counts.get((i,), 0)
        for ell in range(len(partition.cluster_sizes)):
            if partition.cluster_cell_counts.get((ell, (i,)), 0) == total and total > 0:
                owner[i] = ell
                break

    groups: list[list[int]] = []
    for i in range(n1):
        if groups and owner[i] != -1 and owner[i] == owner[groups[-1][-1]]:
            groups[-1].append(i)
        else:
            groups.append([i])

    b = partition.boundaries[0]
    new_bounds = [b[0]] + [b[g[-1] + 1] for g in groups]
    new_cluster_counts: dict = {}
    new_counts: dict = {}
    for m, g in enumerate(groups):
        for i in g:
            new_counts[(m,)] = new_counts.get((m,), 0) + partition.cell_counts[(i,)]
            for ell in range(len(partition.cluster_sizes)):
                cnt = partition.cluster_cell_counts.get((ell, (i,)), 0)
                if cnt:
                    new_cluster_counts[(ell, (m,))] = (
                        new_cluster_counts.get((ell, (m,)), 0) + cnt
                    )

    return CellPartition(
        partition.values,
        [np.asarray(new_bounds)],
        new_cluster_counts,
        new_counts,
        partition.cluster_sizes,
        groups=groups,
    )


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
