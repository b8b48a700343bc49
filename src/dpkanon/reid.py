"""Empirical reidentification risk: minimum-distance linkage of original
records against an anonymized release, repeated over dither trials.

Matching runs on standardized coordinates so scale differences between
quasi-identifiers do not dominate the distance. Identical released tuples
are matched once: a KD-tree over the distinct tuples finds each record's
two nearest tuples, a ball query gathers the few tuples near the nearest
for the records whose second tuple is that near too, and only those pairs
are scored, so no (n, m) distance matrix is built. A record's ties are every
released record within _TIE_TOL of its minimum squared distance, with
distances computed in the same expanded form as a dense matrix, and the
tie-breaks consume the random stream as one rng.choice over each record's
ties would.
"""
from __future__ import annotations

import itertools
import json
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
    from scipy.spatial import cKDTree

    shape = np.shape(anon.qi_hat)
    if len(shape) != 2 or shape[1] != original.d:
        raise ShapeError(f"release has quasi-identifier shape {shape}; the table "
                         f"has {original.d} columns")
    _, std = standardize(original)
    X = std.apply_qi(original.qi)
    Xh = std.apply_qi(anon.qi_hat)
    n, d = X.shape
    # distinct released tuples, each with its records in ascending order
    tuples, inv = group_rows(Xh)
    members, first, sizes = segments(inv, len(tuples))
    a = np.einsum("ij,ij->i", X, X)
    c = np.einsum("ij,ij->i", tuples, tuples)

    # Candidates: every tuple within the squared nearest distance plus
    # _TIE_TOL plus slack. The slack bounds the rounding of the expanded
    # form and of the tree's distances, both below (d + 2) eps (|x|^2 +
    # |xh|^2) per distance, so the candidates hold the expanded form's
    # minimum and its whole tie set.
    tree = cKDTree(tuples)
    dist, near = tree.query(X, k=2)
    slack = 8 * (d + 2) * np.finfo(float).eps * (a + c.max())
    radius = np.sqrt(dist[:, 0]**2 + _TIE_TOL + slack)
    # A record whose second-nearest tuple lies clearly outside its ball (a
    # 1e-9 relative margin covers the tree's own rounding; a one-tuple
    # release has it at inf) has its nearest tuple as its only candidate.
    # Only the others need a ball query.
    ball = dist[:, 1] <= radius * (1 + 1e-9)
    balls = tree.query_ball_point(X[ball], radius[ball], return_sorted=True)
    lengths = np.ones(n, dtype=np.intp)
    lengths[ball] = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    cand = np.repeat(near[:, 0], lengths)
    cand[np.repeat(ball, lengths)] = np.fromiter(itertools.chain.from_iterable(balls),
                                                 dtype=np.intp, count=int(lengths[ball].sum()))
    row = np.repeat(np.arange(n), lengths)
    starts = np.cumsum(lengths) - lengths

    # the expanded form on the candidate pairs only; a stacked matmul sums
    # each product as a BLAS dot does, which rounds as the dense matrix
    # product does but for rare last bits
    xc = np.matmul(X[row][:, None, :], tuples[cand][:, :, None])[:, 0, 0]
    d2 = a[row] - 2.0 * xc + c[cand]
    tied = d2 <= np.minimum.reduceat(d2, starts)[row] + _TIE_TOL
    counts = np.add.reduceat(np.where(tied, sizes[cand], 0), starts)
    several = np.add.reduceat(tied.astype(np.intp), starts) > 1

    r = np.zeros(n, dtype=np.intp)
    multi = counts > 1
    r[multi] = rng.integers(0, counts[multi])
    # one tied tuple: its r-th member
    pairs = np.flatnonzero(tied)
    single = cand[pairs[np.searchsorted(row[pairs], np.arange(n))]]
    out = members[first[single] + np.where(several, 0, r)]
    # several tied tuples: the r-th of their members' sorted union
    pairs = pairs[several[row[pairs]]]
    t = cand[pairs]
    span = sizes[t]
    offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    union = members[np.repeat(first[t], span) + offset]
    union = union[np.lexsort((union, np.repeat(row[pairs], span)))]
    out[several] = union[np.cumsum(counts[several]) - counts[several] + r[several]]
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
    method: str

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "method": self.method,
                "trials": self.trials,
                "average": self.average,
                "classes": [
                    {
                        "key": list(key),
                        "size": int(s),
                        "frequency": float(f),
                        "band_3sigma": float(b),
                    }
                    for key, s, f, b in zip(
                        self.class_keys, self.class_sizes,
                        self.class_freq, self.class_band,
                    )
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv_rows(self):
        yield ("class", "size", "frequency", "band_3sigma")
        for key, s, f, b in zip(self.class_keys, self.class_sizes,
                                self.class_freq, self.class_band):
            yield (";".join(repr(v) for v in key), int(s), float(f), float(b))


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
    successes = np.zeros(n)
    for t in range(T):
        if t == 0 and first is not None:
            anon = first
        else:
            anon = transform(state, method, alpha=alpha, trial=t)
        rng = substream(state.seed, _CH_MATCH, t)
        matched = match_min_distance(original, anon, rng)
        successes += matched == np.arange(n)
    freq = successes / T
    return ReidReport(
        qi=original.qi,
        frequency=freq,
        average=float(freq.mean()),
        trials=T,
        k=state.k,
        method=method,
    )
