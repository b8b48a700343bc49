"""Gaussian dither from per-cluster moments, and the seeded random streams
the transforms draw from.

The Gaussian sampler draws the dither of many records at once from a single
stream, in record order. The pipeline derives one stream per (seed, channel,
trial) from the master seed, so a trial's output depends on the seed and the
record order only.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateError, DomainError
from .kmember import ClusterModel

# Smallest conditional variance a loaded cluster covariance may have.
_PD_TOL = 1e-10


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministic child stream of the master seed, keyed by integers."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def check_alpha(alpha: float) -> None:
    """Reject a dither loading that is not positive and finite."""
    if not 0 < alpha < np.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")


def _loaded_cholesky(model: ClusterModel, alpha: float) -> np.ndarray:
    """Cholesky factors L_l of Sigma_l + alpha I for all clusters at once,
    column by column. The squared diagonal entry L_l[j, j] is the
    conditional variance of dimension j given the dimensions before it,
    which must exceed _PD_TOL."""
    check_alpha(alpha)
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
