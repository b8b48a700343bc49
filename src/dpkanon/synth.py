"""Synthetic population generator for experiments: discrete marginals with a
dependence knob, covariate shift by exponential tilting of the first
marginal, and a linear response with heteroscedastic noise.
"""
from __future__ import annotations

import numpy as np

from .dataset import DataTable, check_seed
from .errors import DomainError


def _tilted_pmf(levels: int, tilt: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(tilt * np.arange(levels))
        total = p.sum()
    if not np.isfinite(total):
        raise DomainError(
            f"tilt {tilt!r} overflows the tilted PMF over {levels} levels")
    return p / total


def synthetic_table(n: int, levels, dep: float = 0.0, tilt: float = 0.0,
                    noise: float = 1.0, seed: int = 0) -> DataTable:
    """Draw n records with ordinal quasi-identifiers and a cost-like response.

    levels: per-dimension level counts (values are 0..L-1).
    dep: probability a coordinate reuses the shared latent uniform, inducing
    positive dependence between dimensions.
    tilt: exponential tilt applied to the first marginal (covariate shift).
    """
    levels = [int(L) for L in levels]
    if n < 1 or not levels or any(L < 1 for L in levels):
        raise DomainError("need n >= 1 and at least one dimension with >= 1 level")
    if not 0.0 <= dep <= 1.0:
        raise DomainError("dependence knob must lie in [0, 1]")
    check_seed(seed)
    d = len(levels)
    rng = np.random.default_rng(seed)

    pmfs = [_tilted_pmf(L, tilt if j == 0 else 0.0) for j, L in enumerate(levels)]
    cdfs = [np.cumsum(p) for p in pmfs]

    shared = rng.random(n)
    qi = np.empty((n, d))
    for j in range(d):
        fresh = rng.random(n)
        use_shared = rng.random(n) < dep
        u = np.where(use_shared, shared, fresh)
        qi[:, j] = np.searchsorted(cdfs[j], u, side="right")

    eps = rng.standard_normal(n)
    y = qi.sum(axis=1) + noise * (1.0 + 0.5 * qi[:, 0]) * eps + 10.0

    columns = tuple(f"x{j}" for j in range(d))
    return DataTable(qi, y, columns, tuple(range(n)))
