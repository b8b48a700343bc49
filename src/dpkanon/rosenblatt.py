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
    """xt as a float array of N rows and the leading 1 to d of d columns."""
    x = np.asarray(xt, dtype=float)
    if x.ndim != 2 or not 1 <= x.shape[1] <= d:
        raise ShapeError(f"expected an (N, {d}) array or its leading columns, "
                         f"got shape {x.shape}")
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

    Maps an (N, J) array of the leading J <= d columns of dither samples to
    the (N, J) array of their uniforms, with the centroids' and the Cholesky
    factors' leading J columns. The factors are computed column by column,
    so their leading J x J block is the factor of the covariances' leading
    block, and the J columns are the full map's first J bit for bit.
    """
    from scipy.special import ndtr

    X = _samples(xt, model.centroids.shape[1])
    d = X.shape[1]  # the leading columns mapped
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
        # residuals of each dimension, a temporary product and the log
        # posteriors. The CDF terms of dimension j go in the last residual
        # plane: no earlier dimension reads it, and the last dimension's
        # residuals are read only by its own CDF.
        z = work[:d, :len(xb)]
        tmp, logpost = work[d:, :len(xb)]
        phi = z[d - 1]
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
    works = [np.empty((d + 2, rows, len(prior))) for _ in range(share)]
    with ThreadPoolExecutor(max_workers=max(1, share - 1)) as pool:
        helpers = [pool.submit(run, starts[i::share], works[i]) for i in range(1, share)]
        run(starts[0::share], works[0])
        for f in helpers:
            f.result()

    np.clip(u, np.finfo(float).tiny, 1.0, out=u)
    return u


def inverse_empirical_indices(u, joint: EmpiricalJoint) -> np.ndarray:
    """Sequential inverse conditional CDFs for an (N, J) array of the
    leading J <= d uniform coordinates; returns the (N, d) value indices
    into joint.values.

    Step j looks up the conditional CDF table of the row's length-j prefix
    in joint.flat_trie and takes the first entry whose cumulative fraction
    reaches u_j - _U_TOL, or the last entry if none does; that entry's
    index is the row's value index in dimension j. Exact zeros in u count
    as the smallest positive float.

    A prefix whose table has one entry leads to it whatever u_j is, so steps
    j >= J follow such prefixes without u. A row whose step j >= J meets a
    table of more entries needs u_j: its indices in dimension j and after
    are -1.
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
    out = np.empty((len(u), joint.d), dtype=np.intp)
    node = np.zeros(len(u), dtype=np.intp)
    unread = np.zeros(len(u), dtype=bool)  # rows that need a u_j not given
    for j, (idx, cumfrac, starts, lengths) in enumerate(joint.flat_trie):
        s, n_next = starts[node], lengths[node]
        if j < u.shape[1]:
            pos = searchsorted_segments(cumfrac, s, n_next, u[:, j] - _U_TOL)
            node = s + np.minimum(pos, n_next - 1)
            out[:, j] = idx[node]
        else:
            unread |= n_next > 1
            node = s
            out[:, j] = np.where(unread, -1, idx[node])
    return out


def _mapped_width(joint: EmpiricalJoint) -> int:
    """The leading width J in 1..d that minimizes J + d * share_J, the
    forward map's columns per record when every record maps J and the rows
    the walk flags map all d again. share_J is the share of records whose
    key passes a prefix with more than one entry at a level >= J: the chance
    that a walk drawn from the joint needs a u_j beyond the first J. Ties go
    to the wider J."""
    d = joint.d
    # the keys are distinct and sorted, so key g is entry g of the last level
    node = np.arange(len(joint.keys))
    deep = np.zeros(len(node), dtype=bool)
    best, best_cost = d, float(d)
    for j in range(d - 1, 0, -1):
        lengths = joint.flat_trie[j][3]
        node = np.repeat(np.arange(len(lengths)), lengths)[node]  # its length-j prefix
        deep |= lengths[node] > 1
        cost = j + d * joint.counts[deep].sum() / joint.total
        if cost < best_cost:
            best, best_cost = j, cost
    return best


def gaussian_release_indices(xt, model: ClusterModel, alpha: float,
                             joint: EmpiricalJoint) -> np.ndarray:
    """inverse_empirical_indices(forward_gaussian(xt, model, alpha), joint)
    for an (N, d) array of dither samples, mapping only the columns the walk
    reads.

    Every row is mapped on its leading _mapped_width(joint) columns and
    walked; the rows that walk flags are mapped on all d columns and walked
    again. A row's u depends on no other row and its leading columns equal
    the full map's, so the indices are the full path's bit for bit. On
    continuous data the prefixes part after a column or two, and the map's
    last columns are skipped for nearly every row.
    """
    idx = inverse_empirical_indices(
        forward_gaussian(xt[:, :_mapped_width(joint)], model, alpha), joint)
    redo = np.flatnonzero(idx[:, -1] < 0)
    if len(redo):
        idx[redo] = inverse_empirical_indices(forward_gaussian(xt[redo], model, alpha), joint)
    return idx
