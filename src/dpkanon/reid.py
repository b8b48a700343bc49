"""Empirical reidentification risk: minimum-distance linkage of original
records against an anonymized release, repeated over dither trials.

Matching runs on standardized coordinates so scale differences between
quasi-identifiers do not dominate the distance. Identical rows are matched
once on both sides: the original table's distinct standardized rows are the
queries, prepared once per table (_queries), and the release's distinct
tuples are indexed once per release. The index is a numpy form of Bentley's
k-d tree (CACM 1975): median splits on the widest axis down to leaves of at
most _LEAF tuples, each node with the bounding box of its tuples. A query's
own leaf, found by the splits, bounds its nearest distance, and only the
leaves whose boxes lie within that bound plus the tie tolerance and a
rounding slack are scored, in blocks of about _BLOCK_CELLS (row, tuple)
cells, so no (n, m) array is built. _candidates proves that the tuples kept
hold each row's tie set. Only those pairs are scored in the expanded form
|x|^2 - 2 x.xh + |xh|^2 that a dense distance matrix uses; a record's ties
are every released record within _TIE_TOL of its row's minimum, and the
tie-breaks consume the random stream as one rng.choice over each record's
ties would.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import DataTable, group_rows, round_sig, segments, standardize
from .dither import substream
from .errors import DomainError, ShapeError
from .pipeline import AnonymizedTable, PipelineState, transform

_CH_MATCH = 1

# squared-distance tolerance for declaring a tie after standardization
_TIE_TOL = 1e-9

# A leaf of the tuple index holds at most _LEAF tuples, so a release with no
# more distinct tuples is one leaf. The search scores (row, tuple) cells in
# blocks of max(1, _BLOCK_CELLS // leaf size) rows or (row, leaf) pairs.
_LEAF = 64
_BLOCK_CELLS = 1 << 16


def _queries(original: DataTable) -> tuple:
    """The original table's side of a match: its standardizer, its distinct
    standardized rows, each record's row, and each row's squared norm."""
    std_table, std = standardize(original)
    rows, inverse = group_rows(std_table.qi)
    return std, rows, inverse, np.einsum("ij,ij->i", rows, rows)


def _index(points: np.ndarray) -> tuple:
    """A k-d tree over distinct points, as (boxes, axes, cuts, leaves).

    Level l of the tree has 2**l nodes, node i holding the points
    order[(i m) >> l:((i + 1) m) >> l] of one permutation `order`, so a
    node's two children hold the halves of its points sorted along the axis
    where its box is widest. boxes[l] is the (lo, hi) pair of those boxes;
    axes[l] and cuts[l] are each node's split axis and the least coordinate
    of its right half on it. The leaves are the nodes of the first level
    whose nodes hold at most _LEAF points; leaves[i] lists leaf i's points,
    padded with the index m."""
    m = len(points)
    depth = 0
    while ((m - 1) >> depth) + 1 > _LEAF:
        depth += 1
    # each point's rank along each axis, so that one sort of distinct
    # integers orders every node's points along its own axis
    rank = np.argsort(np.argsort(points, axis=0), axis=0)
    order = np.arange(m)
    boxes, axes, cuts = [], [], []
    for level in range(depth + 1):
        bounds = (np.arange((1 << level) + 1) * m) >> level
        ordered = points[order]
        lo = np.minimum.reduceat(ordered, bounds[:-1])
        hi = np.maximum.reduceat(ordered, bounds[:-1])
        boxes.append((lo, hi))
        if level == depth:
            break
        axis = np.argmax(hi - lo, axis=1)
        node = np.repeat(np.arange(1 << level), np.diff(bounds))
        order = order[np.argsort(node * m + rank[order, axis[node]])]
        axes.append(axis)
        mid = (np.arange(1, 2 << level, 2) * m) >> (level + 1)
        cuts.append(points[order[mid], axis])
    leaf = np.repeat(np.arange(1 << depth), np.diff(bounds))
    leaves = np.full((1 << depth, np.diff(bounds).max()), m)
    leaves[leaf, np.arange(m) - bounds[leaf]] = order
    return boxes, axes, cuts, leaves


def _sq_dist(x: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """sum_j (coords[j] - x[:, j, None])**2 for (r, d) rows x and (d, r, s)
    coordinates, summed over j in order; coords is overwritten."""
    out = np.zeros(coords.shape[1:])
    for j, col in enumerate(coords):
        col -= x[:, j, None]
        col *= col
        out += col
    return out


def _candidates(rows: np.ndarray, row_sq: np.ndarray, tuples: np.ndarray,
                tuple_sq: np.ndarray) -> tuple:
    """(row, tuple) pairs, grouped by row as (row, cand, starts), that hold
    every row's tie set.

    Proof. Let u = eps/2, x a row and t a tuple, with a = row_sq[x],
    C = max(tuple_sq) and D(t) = |x - t|^2 exactly.
    - The scoring's expanded form E = (a - 2 x.t) + c computes three sums of
      d products (a, c = tuple_sq[t] and x.t, in any order, with or without
      FMA, each within d u / (1 - d u) of its terms' absolute sum) and
      rounds twice more, so |E - D| <= e = (d + 3) eps (a + C).
    - The search's direct form F = sum_j (x_j - t_j)^2 and box bound
      B = sum_j max(lo_j - x_j, x_j - hi_j, 0)^2 add d nonnegative terms,
      each within 3 u of its exact value, so each is within a factor
      1 +- g, g = (d + 2) u, of its exact value: F of D(t), and B of the
      exact box bound, which is at most D(t) for every t in the box.
    - Let F0 be the least F over x's own leaf (any leaf would do), at t0,
      and Emin the least E. Then -e <= Emin <= E(t0) <= F0 (1 + 2 g) + e.
    - A tuple t of x's tie set has E(t) <= fl(Emin + _TIE_TOL), so
      D(t) <= E(t) + e <= F0 + _TIE_TOL + 2 g F0 + 2 e + u (|Emin| + _TIE_TOL),
      and its F, and the B of every box that holds it, are at most
      (1 + g) D(t). As D(t) and F0 are at most about 2 (a + C), they exceed
      F0 + _TIE_TOL by less than (5 d + 13) eps (a + C) + u _TIE_TOL.
    - The threshold F0 + _TIE_TOL + 16 (d + 2) eps (a + C + _TIE_TOL) is
      computed with a loss below 2 eps (a + C) + eps _TIE_TOL, so it still
      exceeds that: every box that holds a tied tuple passes the box test,
      and every tied tuple passes the F test.
    - Every tuple outside x's own leaf lies beyond one of the split planes
      on x's way down, and x's squared distance to a plane is a box bound
      of one term. So if each of those exceeds the threshold, x's own leaf
      holds its whole tie set, and no other box is tested.
    Extra pairs change nothing: the scoring takes its minimum and its ties
    over the pairs it gets, and those hold the whole tie set, the minimum
    with it.
    """
    boxes, axes, cuts, leaves = _index(tuples)
    d = tuples.shape[1]
    # each leaf's coordinates by axis; the pad lies at +inf, so its F is +inf
    coords = np.vstack([tuples, np.full((1, d), np.inf)]).T[:, leaves]
    slack = 16 * (d + 2) * np.finfo(float).eps * (row_sq + tuple_sq.max() + _TIE_TOL)
    step = max(1, _BLOCK_CELLS // leaves.shape[1])
    found_rows, found = [], []
    for begin in range(0, len(rows), step):
        q = np.arange(begin, min(begin + step, len(rows)))
        x = rows[q]
        # each row's own leaf, by the splits, bounds its least distance;
        # plane is its least squared distance to a split plane on the way
        home = np.zeros(len(q), dtype=np.intp)
        plane = np.full(len(q), np.inf)
        for axis, cut in zip(axes, cuts):
            gap = x[np.arange(len(q)), axis[home]] - cut[home]
            np.minimum(plane, gap * gap, out=plane)
            home = 2 * home + (gap >= 0)
        f = _sq_dist(x, coords[:, home])
        thr = f.min(axis=1) + _TIE_TOL + slack[q]
        i, s = np.nonzero(f <= thr[:, None])
        found_rows.append(q[i])
        found.append(leaves[home[i], s])
        # the other leaves whose boxes lie within a row's threshold, for the
        # rows whose threshold reaches past a split plane
        i = np.flatnonzero(plane <= thr)
        node = np.zeros(len(i), dtype=np.intp)
        for lo, hi in boxes[1:]:
            i = np.repeat(i, 2)
            node = np.repeat(2 * node, 2)
            node[1::2] += 1
            y = x[i]
            gap = np.maximum(lo[node] - y, y - hi[node])
            np.maximum(gap, 0.0, out=gap)
            near = np.einsum("ij,ij->i", gap, gap) <= thr[i]
            i, node = i[near], node[near]
        other = node != home[i]
        i, node = i[other], node[other]
        for b in range(0, len(i), step):
            ib, nb = i[b:b + step], node[b:b + step]
            f = _sq_dist(x[ib], coords[:, nb])
            j, s = np.nonzero(f <= thr[ib, None])
            found_rows.append(q[ib[j]])
            found.append(leaves[nb[j], s])
    found_rows = np.concatenate(found_rows)
    order, starts, _ = segments(found_rows, len(rows))
    return found_rows[order], np.concatenate(found)[order], starts


def match_min_distance(original: DataTable, anon: AnonymizedTable,
                       rng: np.random.Generator) -> np.ndarray:
    """For each original record, the index of one minimum-Euclidean-distance
    anonymized record, ties broken uniformly at random.

    A record's tie set is every anonymized record whose squared distance,
    in the expanded form |x|^2 - 2 x.xh + |xh|^2, lies within _TIE_TOL of
    the smallest. Among its t records (t > 1), the pick is the r-th in
    index order, with r = rng.integers(0, t) drawn for the records in
    order; this consumes the stream as rng.choice(ties) per record does.
    """
    shape = np.shape(anon.qi_hat)
    if len(shape) != 2 or shape[1] != original.d:
        raise ShapeError(f"release has quasi-identifier shape {shape}; the table "
                         f"has {original.d} columns")
    return _match(_queries(original), anon, rng)


def _match(queries: tuple, anon: AnonymizedTable, rng: np.random.Generator) -> np.ndarray:
    """match_min_distance on the original table's prepared side."""
    std, rows, inverse, row_sq = queries
    # distinct released tuples, each with its records in ascending order
    tuples, inv = group_rows(std.apply_qi(anon.qi_hat))
    members, first, sizes = segments(inv, len(tuples))
    c = np.einsum("ij,ij->i", tuples, tuples)
    row, cand, starts = _candidates(rows, row_sq, tuples, c)

    # the expanded form on the candidate pairs only; a stacked matmul sums
    # each product as a BLAS dot does, which rounds as the dense matrix
    # product does but for rare last bits
    xc = np.matmul(rows[row][:, None, :], tuples[cand][:, :, None])[:, 0, 0]
    d2 = row_sq[row] - 2.0 * xc + c[cand]
    tied = d2 <= np.minimum.reduceat(d2, starts)[row] + _TIE_TOL
    counts = np.add.reduceat(np.where(tied, sizes[cand], 0), starts)
    several = np.add.reduceat(tied.astype(np.intp), starts) > 1

    # the draws, for the records in order; a record ties as its row does
    r = np.zeros(len(inverse), dtype=np.intp)
    tally = counts[inverse]
    multi = tally > 1
    r[multi] = rng.integers(0, tally[multi])
    sev = several[inverse]
    # one tied tuple: its r-th member
    pairs = np.flatnonzero(tied)
    single = cand[pairs[np.searchsorted(row[pairs], np.arange(len(rows)))]]
    out = members[first[single[inverse]] + np.where(sev, 0, r)]
    # several tied tuples: the r-th of their members' sorted union, the
    # unions laid out row after row
    pairs = pairs[several[row[pairs]]]
    t = cand[pairs]
    span = sizes[t]
    offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    union = members[np.repeat(first[t], span) + offset]
    union = union[np.lexsort((union, np.repeat(row[pairs], span)))]
    ends = np.cumsum(np.where(several, counts, 0))
    out[sev] = union[(ends - counts)[inverse[sev]] + r[sev]]
    return out


@dataclass(frozen=True)
class ReidReport:
    """Per-equivalence-class and overall reidentification frequencies.

    The per-class statistics are computed from the per-record frequencies
    on first read."""

    qi: np.ndarray             # original quasi-identifiers, one row per record
    frequency: np.ndarray      # per-record reidentification frequency
    average: float             # record-weighted mean frequency
    trials: int
    k: int

    @cached_property
    def _classes(self):
        # classes in sorted key order, each keyed by its first record's tuple
        # and averaged over its records in record order; the classes of one
        # size m are one (classes, m) block, so each mean has a 1-d mean's bits
        rows, inv = group_rows(round_sig(self.qi))
        order, starts, sizes = segments(inv, len(rows))
        keys = tuple(map(tuple, rows.tolist()))
        ordered = self.frequency[order]
        freq = np.empty(len(rows))
        for m in np.unique(sizes).tolist():
            group = np.flatnonzero(sizes == m)
            freq[group] = ordered[starts[group, None] + np.arange(m)].mean(axis=1)
        p0 = 1.0 / self.k
        band = 3.0 * np.sqrt(p0 * (1 - p0) / (self.trials * sizes))
        return keys, sizes, freq, band

    @property
    def class_keys(self) -> tuple:
        """Distinct original quasi-identifier tuples."""
        return self._classes[0]

    @property
    def class_sizes(self) -> np.ndarray:
        return self._classes[1]

    @property
    def class_freq(self) -> np.ndarray:
        """Mean per-record frequency within each class."""
        return self._classes[2]

    @property
    def class_band(self) -> np.ndarray:
        """3-sigma binomial band at the nominal 1/k level."""
        return self._classes[3]


def reid_trials(state: PipelineState, method: str, T: int,
                alpha: float = 1.0 / 3.0,
                first: AnonymizedTable | None = None) -> ReidReport:
    """Re-run the dither and matching stages T times on the state's
    clustering and report reidentification frequencies of its table. The
    state's k sets the nominal level and its seed keys the match streams.

    `first`, if given, is the caller's release of trial 0, i.e.
    transform(state, method, alpha), and is matched instead of drawn again."""
    if T < 1:
        raise DomainError(f"trial count must be at least 1, got {T}")
    original = state.table
    n = original.n
    queries = _queries(original)
    successes = np.zeros(n)
    for t in range(T):
        if t == 0 and first is not None:
            anon = first
        else:
            anon = transform(state, method, alpha=alpha, trial=t)
        rng = substream(state.seed, _CH_MATCH, t)
        matched = _match(queries, anon, rng)
        successes += matched == np.arange(n)
    freq = successes / T
    return ReidReport(
        qi=original.qi,
        frequency=freq,
        average=float(freq.mean()),
        trials=T,
        k=state.k,
    )
