"""Rosenblatt transformation for the Gaussian dither: the forward map sends
dither samples to uniform coordinates through the conditional CDFs of the
Gaussian mixture; the inverse maps uniforms onto the empirical distribution
through the conditional inverse-CDF chain.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .dataset import _U_TOL, EmpiricalJoint, searchsorted_segments
from .dither import _loaded_cholesky
from .errors import DomainError, ShapeError
from .kmember import ClusterModel

# A block of the Gaussian forward map takes max(_MIN_BLOCK, _BLOCK_CELLS // c)
# records, so its (block, c) temporaries stay near _BLOCK_CELLS cells however
# many clusters there are, and each thread's work array is bounded whatever n
# is.
_MIN_BLOCK = 32
_BLOCK_CELLS = 12800


def _first(mask) -> tuple:
    """(row, dimension) of the first True entry of a 2-d mask."""
    r, j = np.argwhere(mask)[0]
    return int(r), int(j)


def _samples(xt, d: int) -> np.ndarray:
    x = np.asarray(xt, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"expected an (N, {d}) array, got shape {x.shape}")
    return x


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def forward_gaussian(xt, model: ClusterModel, alpha: float):
    """Mixture-CDF forward transform for Gaussian dither.

    u_j averages the per-cluster conditional Gaussian CDFs under cluster
    posteriors updated by Bayes' rule. Per cluster, the standardized
    conditional residuals of x are z = L^-1 (x - centroid), with L the
    Cholesky factor of the loaded covariance, solved one dimension at a
    time. Posteriors are carried in log space and normalized after a max
    shift, so far-from-centroid points do not underflow.

    Records are processed in blocks of max(_MIN_BLOCK, _BLOCK_CELLS // c)
    rows, over all c clusters at once. Blocks are independent, and the block
    kernel spends its time in numpy calls that release the GIL (ndtr, exp
    and einsum), so the blocks run on every CPU the process may use: with
    `share` such CPUs, the calling thread takes every share-th block and
    share - 1 helper threads take the rest. Every sum over the clusters is an
    einsum or a numpy reduction along one row, never a BLAS product, so a
    record's u depends neither on the block it falls in nor on the thread
    count nor on the BLAS build.

    Maps an (N, d) array of dither samples to an (N, d) array of uniforms.
    """
    from scipy.special import ndtr

    d = model.centroids.shape[1]
    X = _samples(xt, d)
    bad = ~np.isfinite(X)
    if bad.any():
        r, j = _first(bad)
        raise DomainError(f"non-finite dither coordinate at row {r}, dimension {j}")
    L = _loaded_cholesky(model, alpha)
    diag = np.diagonal(L, axis1=1, axis2=2)  # (c, d) conditional sds
    log_diag = np.log(diag)
    centroids = model.centroids
    sizes = model.sizes.astype(float)
    prior = sizes / sizes.sum()
    log_prior = np.log(prior)

    u = np.empty(X.shape)
    rows = max(_MIN_BLOCK, _BLOCK_CELLS // len(prior))

    def block(b: int, work: np.ndarray) -> None:
        xb = X[b:b + rows]
        # (block, c) slices of the thread's work array: the standardized
        # residuals of each dimension, a temporary product, the CDF terms and
        # the log posteriors
        z = work[:d, :len(xb)]
        tmp, phi, logpost = work[d:, :len(xb)]
        logpost[:] = log_prior
        for j in range(d):
            zj = z[j]
            np.subtract(xb[:, None, j], centroids[:, j], out=zj)
            for k in range(j):
                zj -= np.multiply(z[k], L[:, j, k], out=tmp)
            zj /= diag[:, j]
            ndtr(zj, out=phi)
            if j == 0:
                u[b:b + rows, 0] = np.einsum("nc,c->n", phi, prior)
            else:
                w = np.exp(np.subtract(logpost, logpost.max(axis=1, keepdims=True),
                                       out=tmp), out=tmp)
                u[b:b + rows, j] = np.einsum("nc,nc->n", w, phi) / w.sum(axis=1)
            if j + 1 < d:
                np.multiply(zj, 0.5, out=tmp)
                tmp *= zj
                logpost -= tmp
                logpost -= log_diag[:, j]

    def run(blocks, work: np.ndarray) -> None:
        for b in blocks:
            block(b, work)

    starts = range(0, len(X), rows)
    share = max(1, min(len(starts), _usable_cpus()))
    # The calling thread allocates every thread's work array, so the
    # helpers' temporaries do not stay resident in per-thread malloc arenas
    # after they exit. A pool with nothing submitted starts no thread.
    works = [np.empty((d + 3, rows, len(prior))) for _ in range(share)]
    with ThreadPoolExecutor(max_workers=max(1, share - 1)) as pool:
        helpers = [pool.submit(run, starts[i::share], works[i]) for i in range(1, share)]
        run(starts[0::share], works[0])
        for f in helpers:
            f.result()

    np.clip(u, np.finfo(float).tiny, 1.0, out=u)
    return u


def inverse_empirical_indices(u, joint: EmpiricalJoint) -> np.ndarray:
    """Sequential inverse conditional CDFs for an (N, d) array of uniforms;
    returns the (N, d) value indices into joint.values.

    Step j looks up the conditional CDF table of the row's length-j prefix
    in joint.flat_trie and takes the first entry whose cumulative fraction
    reaches u_j - _U_TOL, or the last entry if none does; that entry's
    index is the row's value index in dimension j. Exact zeros in u count
    as the smallest positive float.
    """
    u = _samples(u, joint.d)
    bad = ~((u >= 0) & (u <= 1))
    if bad.any():
        r, j = _first(bad)
        raise DomainError(
            f"uniform coordinate {u[r, j]!r} at row {r}, dimension {j} "
            "must lie in [0, 1]"
        )
    u = np.maximum(u, np.finfo(float).tiny)  # clamp exact zeros
    out = np.empty(u.shape, dtype=np.intp)
    node = np.zeros(len(u), dtype=np.intp)
    for j, (idx, cumfrac, starts, lengths) in enumerate(joint.flat_trie):
        s, n_next = starts[node], lengths[node]
        pos = searchsorted_segments(cumfrac, s, n_next, u[:, j] - _U_TOL)
        node = s + np.minimum(pos, n_next - 1)
        out[:, j] = idx[node]
    return out
