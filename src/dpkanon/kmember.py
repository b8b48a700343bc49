"""Greedy k-member clustering with a weighted squared-Euclidean distortion.

Every cluster must contain at least k records; the cluster count is fixed to
floor(n/k) and leftover records are absorbed by the nearest centroid.

Metric: the records are the columns of one C-contiguous (d + 1, n) point
matrix Z = [x, sqrt(w) y], built once, and a centroid is a point of the same
space. A squared distance sums (Z[r] - c[r])^2 over the rows in row order,
one in-place add per row, so a record's distance has the same bits whether
it is scored alone or among thousands, on every numpy build. It equals
|x - cx|^2 + w (y - cy)^2 up to rounding.

Cost: each cluster gathers the records still unassigned into one matrix
and makes two scans over it, one to pick its seed and one to rank the
records by distance to that seed, which keeps the _POOL_PER_K * k nearest
other records as a candidate pool. The first addition is the rank scan's
argmin, since the centroid is still the seed; at k = 2 it is the only
addition, so no pool is built. Each later addition scores only the pool,
in place in buffers allocated once per call: one write of the running
centroid into a column, one subtract and one square into the
difference buffer, the row adds into its first row and one argmin. The
centroid and its drift from the seed are kept as Python floats; a taken
record's column is set to +inf. The pool's best record is taken when the
triangle inequality proves that no record outside the pool is as close to
the running centroid: its distance plus the centroid's drift from the seed
must stay below the distance of the nearest record left out of the pool.
Otherwise the addition falls back to a full scan. Both paths give the
assignment of a full scan per addition, lowest record index first on ties.
That is O(n^2 / k + n k) work instead of O(n^2).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DataTable, check_seed, segments
from .errors import DomainError, InfeasibleError

# candidate pool size per cluster, as a multiple of k
_POOL_PER_K = 4
# float64 squares below this lose their relative precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ClusterModel:
    """k-member assignment plus per-cluster summaries."""

    assignment: np.ndarray   # (n,) cluster index in 0..c-1
    centroids: np.ndarray    # (c, d) mean quasi-identifiers
    centroids_y: np.ndarray  # (c,) mean responses
    covariances: np.ndarray  # (c, d, d) population covariances of the members' rows
    k: int
    w: float

    @property
    def c(self) -> int:
        return len(self.centroids)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @cached_property
    def segments(self) -> tuple:
        """The clusters' (order, starts, sizes), from dataset.segments."""
        return segments(self.assignment, self.c)

    @property
    def sizes(self) -> np.ndarray:
        return self.segments[2]


def _summarize(table: DataTable, assignment: np.ndarray, c: int, k: int, w: float):
    """Means and population covariances of every cluster. The clusters of
    one size m are summarized together: their members' rows form one
    (clusters, m, d) array, reduced over its middle axis with the same
    numpy calls that reduce one cluster's (m, d) rows, so each cluster's
    means have the bits of a per-cluster loop; its covariances agree with
    that loop's to within rounding, since einsum may add a stack's
    products in another order. Sizes run from k to 2k - 1, so there are at
    most k groups."""
    order, starts, sizes = segments(assignment, c)
    centroids = np.empty((c, table.d))
    centroids_y = np.empty(c)
    covs = np.empty((c, table.d, table.d))
    for m in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == m)
        idx = order[starts[group, None] + np.arange(m)]
        rows = table.qi[idx]
        centroids[group] = rows.mean(axis=1)
        centroids_y[group] = table.response[idx].mean(axis=1)
        centered = rows - centroids[group, None, :]
        # population form; einsum, not a BLAS product, whose bits depend on
        # the BLAS build
        covs[group] = np.einsum("gmi,gmj->gij", centered, centered) / m
    return ClusterModel(
        assignment=assignment,
        centroids=centroids,
        centroids_y=centroids_y,
        covariances=covs,
        k=k,
        w=w,
    )


def _sq_dist(P: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distance of every column of the (d + 1, m) point matrix P to
    the (d + 1, 1) column c: sum over r of (P[r] - c[r])^2, added row by row
    in row order, so a column's value does not depend on how many columns
    are scored with it. With out, a float array shaped like P, the
    differences and sums are made in out: the distances are its first row,
    with the same bits."""
    D = np.subtract(P, c, out=out)
    D *= D
    d2 = D[0]
    for r in range(1, len(D)):
        d2 += D[r]
    return d2


def greedy_k_member(table: DataTable, k: int, w: float = 1.0, seed: int = 0) -> ClusterModel:
    """Greedy k-member clustering.

    Seeds the first cluster at a uniformly random record, grows each cluster
    by repeatedly adding the unassigned record closest to the running
    centroid, seeds each subsequent cluster at the unassigned record farthest
    from the previous centroid, then absorbs leftovers into the nearest
    centroid.  Ties break toward the lowest record index; deterministic for a
    given seed.
    """
    n = table.n
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k}")
    if k > n:
        raise InfeasibleError(f"infeasible k: k={k} exceeds n={n}")
    if not 0 < w < math.inf:
        raise DomainError(f"distortion weight w must be positive and finite, got {w}")
    check_seed(seed)

    X = table.qi
    y = table.response
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        i, j = np.argwhere(~np.isfinite(np.column_stack([X, y])))[0]
        raise DomainError(f"record {i}, column {j}: value is not finite")
    # the points, one column per record: every clustering distance is a
    # squared Euclidean distance between columns of Z and centroids
    Z = np.empty((table.d + 1, n))
    Z[:-1] = X.T
    with np.errstate(over="ignore", invalid="ignore"):
        Z[-1] = math.sqrt(w) * y
        # every distance below is at most the span's, with room for rounding;
        # an entry of Z that overflowed makes its row's span inf or nan
        span = 2.0 * np.ptp(Z, axis=1)
        reach = np.einsum("i,i", span, span)
    if not np.isfinite(reach):
        raise DomainError("value ranges too wide: squared distances overflow")
    c = n // k
    pool_size = _POOL_PER_K * k
    assignment = np.full(n, -1, dtype=int)
    rng = np.random.default_rng(seed)
    points = Z.T.tolist()
    # the pool's differences, and a column each scan's point is written into
    work = np.empty((table.d + 1, pool_size))
    col = np.empty((table.d + 1, 1))

    for ell in range(c):
        free = np.flatnonzero(assignment < 0)
        Zf = np.take(Z, free, axis=1)
        if ell == 0:
            s = int(rng.integers(len(free)))
        else:
            col[:, 0] = cz
            s = int(np.argmax(_sq_dist(Zf, col)))  # first max -> lowest index
        assignment[free[s]] = ell
        sz = Zf[:, s].tolist()
        # a taken column is set to +inf, which makes its distances +inf
        Zf[0, s] = math.inf

        col[:, 0] = sz
        d2 = _sq_dist(Zf, col)
        # the first addition: the centroid is still the seed
        j = int(d2.argmin())
        pool = []  # at k = 2 the first addition is the only one: no pool
        if k > 2:
            if len(free) > pool_size:
                part = np.argpartition(d2, pool_size)
                pool = np.sort(part[:pool_size])
                r2 = float(d2[part[pool_size]])  # nearest record left out of the pool
                r = math.sqrt(r2) if r2 >= _TINY else 0.0
            else:
                pool, r = np.arange(len(free)), math.inf
            Zp = np.take(Zf, pool, axis=1)
            D = work[:, :len(pool)]
            pool = pool.tolist()

        cz = sz
        for size in range(2, k + 1):
            if size > 2:
                col[:, 0] = cz
                d2 = _sq_dist(Zp, col, out=D)
                i = int(d2.argmin())
                # the 1e-9 slack outweighs the rounding of all three distances;
                # strict, so a row left out at the same distance falls back
                if (math.sqrt(d2[i]) + math.dist(cz, sz)) * (1.0 + 1e-9) < r:
                    j = pool[i]
                else:
                    j = int(_sq_dist(Zf, col).argmin())
            i = bisect.bisect_left(pool, j)  # j's pool column, if any
            if i < len(pool) and pool[i] == j:
                Zp[0, i] = math.inf
            Zf[0, j] = math.inf
            add = int(free[j])
            assignment[add] = ell
            cz = [a + (b - a) / size for a, b in zip(cz, points[add])]

    # leftovers: nearest centroid by the same distortion (clusters have k members)
    if (assignment < 0).any():
        order, _, _ = segments(assignment, c)
        cents = np.take(Z, order.reshape(c, k), axis=1).mean(axis=2)
        for i in np.flatnonzero(assignment < 0):
            assignment[i] = int(np.argmin(_sq_dist(cents, Z[:, i:i + 1])))

    return _summarize(table, assignment, c, k, w)


def validate_k_anonymous(model: ClusterModel):
    """Check the k-member constraints: every label in 0..c-1, every cluster
    >= k members and c <= floor(n/k).  Returns (ok, violations)."""
    violations = []
    outside = np.flatnonzero((model.assignment < 0) | (model.assignment >= model.c))
    if outside.size:
        violations.append(f"records {outside.tolist()} are in no cluster 0..{model.c - 1}")
    small = np.flatnonzero(model.sizes < model.k)
    if small.size:
        violations.append(f"clusters {small.tolist()} have {model.sizes[small].tolist()} "
                          f"members, fewer than k={model.k}")
    if model.c > model.n // model.k:
        violations.append(f"cluster count {model.c} exceeds floor(n/k)")
    return (not violations), violations


def total_distortion(model: ClusterModel, table: DataTable) -> float:
    """Sum of per-record distortions to the assigned cluster centroid."""
    cx = model.centroids[model.assignment]
    cy = model.centroids_y[model.assignment]
    diff = table.qi - cx
    return float(
        np.einsum("ij,ij->i", diff, diff).sum()
        + model.w * ((table.response - cy) ** 2).sum()
    )
