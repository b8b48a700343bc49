"""Empirical reidentification risk: minimum-distance linkage of original
records against an anonymized release, repeated over dither trials.

Matching runs on standardized coordinates so scale differences between
quasi-identifiers do not dominate the distance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import DataTable, round_sig, standardize
from .dither import substream
from .errors import DomainError
from .pipeline import AnonymizedTable, PipelineState, prepare, transform

_CH_MATCH = 1

# squared-distance tolerance for declaring a tie after standardization
_TIE_TOL = 1e-9


def match_min_distance(original: DataTable, anon: AnonymizedTable,
                       rng: np.random.Generator) -> np.ndarray:
    """For each original record, the index of one minimum-Euclidean-distance
    anonymized record, ties broken uniformly at random."""
    _, std = standardize(original)
    X = std.apply_qi(original.qi)
    Xh = std.apply_qi(anon.qi_hat)
    # (n, m) squared distances
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * X @ Xh.T
        + np.einsum("ij,ij->i", Xh, Xh)[None, :]
    )
    out = np.empty(len(X), dtype=int)
    for i in range(len(X)):
        row = d2[i]
        ties = np.flatnonzero(row <= row.min() + _TIE_TOL)
        out[i] = ties[0] if len(ties) == 1 else int(rng.choice(ties))
    return out


@dataclass(frozen=True)
class ReidReport:
    """Per-equivalence-class and overall reidentification frequencies."""

    class_keys: tuple          # distinct original quasi-identifier tuples
    class_sizes: np.ndarray
    class_freq: np.ndarray     # mean per-record frequency within each class
    class_band: np.ndarray     # 3-sigma binomial band at the nominal 1/k level
    average: float             # record-weighted mean frequency
    trials: int
    k: int
    method: str

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


def reid_trials(original: DataTable, k: int, method: str, T: int,
                seed: int = 0, w: float = 1.0, alpha: float = 1.0 / 3.0,
                state: PipelineState | None = None) -> ReidReport:
    """Re-run the dither and matching stages T times on a fixed clustering
    and report reidentification frequencies."""
    if T < 1:
        raise DomainError(f"trial count must be at least 1, got {T}")
    if state is None:
        state = prepare(original, k, w=w, seed=seed)
    n = original.n
    successes = np.zeros(n)
    for t in range(T):
        anon = transform(state, method, alpha=alpha, trial=t)
        rng = substream(seed, _CH_MATCH, t)
        matched = match_min_distance(original, anon, rng)
        successes += matched == np.arange(n)
    freq = successes / T

    # classes in sorted key order, each keyed by its first record's tuple
    # and averaged over its records in record order
    keys = round_sig(original.qi)
    _, inv, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")
    starts = np.cumsum(sizes) - sizes
    classes = [tuple(r) for r in keys[order[starts]].tolist()]
    cfreq = np.array([f.mean() for f in np.split(freq[order], starts[1:])])
    p0 = 1.0 / k
    band = 3.0 * np.sqrt(p0 * (1 - p0) / (T * sizes))
    return ReidReport(
        class_keys=tuple(classes),
        class_sizes=sizes,
        class_freq=cfreq,
        class_band=band,
        average=float(freq.mean()),
        trials=T,
        k=k,
        method=method,
    )
