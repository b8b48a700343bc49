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
# records (twice the cells when no column calls _phi), so its (block, c)
# temporaries stay near _BLOCK_CELLS cells however many clusters there are,
# and each thread's work array is bounded whatever n is.
_MIN_BLOCK = 32
_BLOCK_CELLS = 12800
# _map runs one thread for every _THREAD_BLOCKS blocks, up to one per
# usable CPU; see forward_gaussian.
_THREAD_BLOCKS = 4

# Page's tanh form of the normal CDF (Applied Statistics 26, 1977), the
# cheap pass's Phi~(z) = (1 + tanh(z (_PAGE_A + _PAGE_B z^2))) / 2, with z
# clipped to [-_PAGE_CLIP, _PAGE_CLIP] so that z^2 cannot overflow; and
# eps_Phi, more than twice the bound on |Phi~ - Phi| proven in _cheap_delta.
_PAGE_A = 0.7988
_PAGE_B = 0.7988 * 0.04417
_PAGE_CLIP = 9.0
_PAGE_ERR = 3e-4

# float32's unit roundoff 2^-24, plus eps for the exact pass's own rounding
# (_single_margin); the most numpy's float32 tanh may differ from tanh (in
# units of u) and exp from exp (relative, in units of u), above what
# test_float32_function_error measures under every CPU dispatch (_single_margin
# bounds what errors beyond these the margin absorbs); and the size, 2^40,
# past which a constant or sample keeps the cheap pass in float64
_U = 2.0**-24 + np.finfo(float).eps
_TANH32_ERR = 3.0
_EXP32_ERR = 5.0
_SINGLE_RANGE = 2.0**40

# _phi's fit, proven within _PHI_ERR of the normal CDF: for 0 <= t <= _PHI_CUT,
# Phi(-t) = exp(-t^2 / 2) P(t) / Q(t), with P of degree 7 and the monic Q of
# degree 8, their coefficients from the constant term up (Q's leading 1 left
# out). Past _PHI_CUT, Phi(-t) < Phi(-8.3) < eps / 4.
_PHI_P = (14611.819395643257, 16394.848731410864, 9282.31653727212, 3233.799485318576,
          737.0699060030632, 109.01317600591729, 9.675970992166684, 0.3989410065811848)
_PHI_Q = (29223.638791286514, 56106.78766486895, 48719.55331294465, 25059.147936494235,
          8377.962096722407, 1871.7496795427933, 274.2594834279589, 24.253901912554937)
_PHI_CUT = 8.3
_PHI_ERR = 3 * np.finfo(float).eps

# The first coordinate's interpolant (_root_interpolant): eps_0, the most
# it may differ from the mixture CDF, and a bound on the third derivative
# of the normal density, whose peak is 0.55059.
_ROOT_ERR = 1e-6
_PHI3_MAX = 0.551


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


def _dither(xt, d: int) -> np.ndarray:
    """xt as _samples gives it, with every coordinate finite."""
    X = _samples(xt, d)
    bad = ~np.isfinite(X)
    if bad.any():
        r, j = _first(bad)
        raise DomainError(f"non-finite dither coordinate at row {r}, dimension {j}")
    return X


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _mixture(model: ClusterModel, alpha: float) -> tuple:
    """The forward map's constants, built once per release: the centroids,
    the loaded Cholesky factors L, their diagonals (the conditional sds) and
    the diagonals' logs, the cluster priors and the priors' logs."""
    L = _loaded_cholesky(model, alpha)
    diag = np.diagonal(L, axis1=1, axis2=2)  # (c, d) conditional sds
    sizes = model.sizes.astype(float)
    prior = sizes / sizes.sum()
    return model.centroids, L, diag, np.log(diag), prior, np.log(prior)


def forward_gaussian(xt, model: ClusterModel, alpha: float):
    """Mixture-CDF forward transform for Gaussian dither.

    u_j averages the per-cluster conditional Gaussian CDFs under cluster
    posteriors updated by Bayes' rule. Per cluster, the standardized
    conditional residuals of x are z = L^-1 (x - centroid), with L the
    Cholesky factor of the loaded covariance, solved one dimension at a
    time. Posteriors are carried in log space and normalized after a max
    shift, so far-from-centroid points do not underflow.

    Records are processed in blocks of max(_MIN_BLOCK, _BLOCK_CELLS // c)
    rows, over all c clusters at once (twice the cells when no column calls
    _phi, as in the cheap pass of gaussian_release_indices). Blocks are
    independent, and the block kernel spends most of its time in numpy calls
    that release the GIL, so the blocks may run on several threads: the
    calling thread takes every share-th block and share - 1 helper threads
    take the rest. share is the number of usable CPUs, but at most one per
    _THREAD_BLOCKS blocks. At c = 400 on a 2-core VM, in alternating runs
    made while the second core was free, two threads took 0.68x of one on 8
    blocks of three exact columns (by scipy.special.ndtr, which _phi has
    since replaced at 1.08x its cost a cell) and 0.85x on 8 double blocks
    of the cheap pass, but tied or lost on 4 or fewer; while it was busy, they lost
    5-10% at every size. So small maps, such as the rows mapped again and
    the first coordinate's interpolant nodes, run on the calling thread.
    Doubling the cheap pass's blocks took its two threads from 0.88x to
    0.66x of one on 4000 rows, and one thread from 59 to 55 ms. Every sum
    over the clusters is an einsum or a numpy reduction along one row,
    never a BLAS product, so a record's u depends neither on the block it
    falls in nor on the thread count nor on the BLAS build.

    Maps an (N, J) array of the leading J <= d columns of dither samples to
    the (N, J) array of their uniforms, with the centroids' and the Cholesky
    factors' leading J columns. The factors are computed column by column,
    so their leading J x J block is the factor of the covariances' leading
    block, and the J columns are the full map's first J bit for bit.
    """
    X = _dither(xt, model.centroids.shape[1])
    return _map(X, _mixture(model, alpha))[0]


def _phi(z: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The normal CDF Phi of each entry of z, into out, within
    E_Phi = _PHI_ERR = 3 eps of Phi on all reals; NaN at NaN. out may be z;
    scratch holds two arrays of z's shape, which it overwrites.

    One rational branch, the form of W. J. Cody (Math. Comp. 23, 1969):
    with t = min(|z|, T), T = _PHI_CUT, y = exp(-t^2 / 2) P(t) / Q(t)
    stands for Phi(-t), and Phi(z) is 1 - y for z > 0 and y otherwise. On
    (32, 400) blocks it costs 1.08x what scipy.special.ndtr does, 19.2
    against 17.7 ns a cell on a shared 2-core VM (medians of 15 alternating
    runs of 300 calls).

    The bound. Let u = eps / 2.
    - The fit. P / Q was fitted to R(t) = Phi(-t) exp(t^2 / 2) on [0, T] in
      45-digit mpmath, weighted by exp(-t^2 / 2), so in Phi's own absolute
      terms, to 1e-19 at its 400 points. With the coefficients as rounded
      to floats, and exact arithmetic, exp(-t^2 / 2) |R - P / Q| peaks at
      0.061 eps at 20 001 points over [0, T] (120-bit mpmath, scratch), and
      it is smooth, so under 0.07 eps between them.
    - The rounding. t is exact. P's coefficients and t are nonnegative, so
      the computed P is sum_i a_i t^i (1 + theta_i) with
      |theta_i| <= k_i u / (1 - k_i u), k_i the roundings a_i t^i passes:
      2i + 1, and 14 for the leading term; Q's likewise, 15 for its t^8 and
      t^7 terms. The exponent rounds by t^2 u / 2, which moves exp by that
      much of itself; exp is taken to be within eps of itself, as in
      _root_interpolant's slopes; the divide and the product round by u
      each. So to first order |y - Phi(-t)| <= Phi(-t) rho(t) u plus the
      fit's error, with
      rho(t) = sum k_i a_i t^i / P + sum k_i b_i t^i / Q + t^2 / 2 + 4.
      rho is at most 61, so the second-order terms are below 1e-12 of it.
      On a grid of 2 000 001 points over [0, T], Phi(-t) rho(t) u peaks at
      1.522 eps near t = 0.13, and it moves by less than 1e-5 eps between
      points (test_phi_rounding_bound measures both again).
    - 1 - y, in [1/2, 1], rounds by u / 2.
    - Past T, 0 < Phi(-|z|) < Phi(-8.3) < 0.94 u / 2, so the y of t = T,
      within 1e-30 of Phi(-T), is within u / 2 of Phi(-|z|).
    So |_phi(z) - Phi(z)| < 1.522 eps + u / 2 + 0.07 eps < 1.9 eps. E_Phi
    leaves the rest as room for an exp up to 2 eps further off.

    Measured in scratch against 120-bit mpmath at 150 000 points over
    [-T - 1, T + 1], half a grid and half uniform draws: the largest error
    is 0.79 eps, against 0.82 eps for scipy.special.ndtr at the same points.
    test_phi_against_ndtr checks the bound against ndtr on a grid.
    """
    t, q = scratch
    upper = z > 0  # before out, which may be z, is written
    np.abs(z, out=t)
    np.minimum(t, _PHI_CUT, out=t)
    np.multiply(t, _PHI_P[-1], out=out)  # P(t) by Horner
    for a in _PHI_P[-2:0:-1]:
        out += a
        out *= t
    out += _PHI_P[0]
    np.add(t, _PHI_Q[-1], out=q)  # the monic Q(t) by Horner
    for b in _PHI_Q[-2::-1]:
        q *= t
        q += b
    out /= q
    np.multiply(t, -0.5, out=q)
    q *= t
    out *= np.exp(q, out=q)
    return np.subtract(1.0, out, out=out, where=upper)


def _cheap_delta(c: int) -> float:
    """delta, the most a u_j of _map's cheap pass over c clusters can differ
    from the u_j the exact pass computes.

    Both passes compute every residual z_c, weight w_c (the prior at the
    first column) and the weights' sum W with the same ops and bits. The
    exact pass takes u = sum_c w_c _phi(z_c) / W, the cheap one
    u~ = 1/2 + 1/2 sum_c w_c t_c / W with t_c = tanh(g(z_c)),
    g(z) = z (a + b z^2) for z clipped to [-9, 9]. Let U and U~ be the same
    averages taken exactly, with Phi and Phi~ = (1 + tanh g) / 2 in place
    of _phi(z) and (1 + t) / 2.

    |Phi~ - Phi| < 1.46e-4 on all reals. On a grid of 2 000 001 points over
    [-9, 9] (step h = 9e-6) the computed |Phi~ - ndtr| peaks at 1.4041e-4
    (test_page_cdf_grid_maximum measures it again), and the computed Phi~ is
    within 3 eps of the exact one, scipy.special.ndtr, the grid's oracle,
    within 2 eps of Phi. Both derivatives are nonnegative, so their
    difference is at most the larger:
    Phi' <= 0.4, and Phi~' = g' sech^2(g) / 2 is at most (a + 3b) / 2 < 0.46
    for |z| <= 1 and, as g' <= 3 |g| and sech^2(g) <= 4 exp(-2 |g|) there,
    at most 6 |g| exp(-2 |g|) <= 3 / e < 1.11 beyond. So |Phi~ - Phi| moves
    by less than 1.11 h / 2 < 5e-6 between grid points. Beyond 9, Phi is
    within Phi(-9) < 1.2e-19 of 0 or 1, and Phi~ of the clipped z within
    Phi~(-9) < 1e-27. So |U - U~| < 1.46e-4: a weighted average of such
    differences (at the first column, the priors sum to 1 within c eps / 2,
    which U~ takes as exact).

    The rounding. _phi's terms are nonnegative and within E_Phi = 3 eps of
    Phi's (_phi), which adds at most E_Phi to the average; the products
    round by eps / 2 of themselves, their sum in any order by
    (c - 1) eps / 2 of its total, at most W, the sum W by as much and the
    divide by eps / 2; so |u - U| <= E_Phi + c eps = (c + 3) eps. The tanh
    terms have both signs, but |w_c t_c| <= w_c: t_c is within 2 eps of
    tanh g (g rounds by 2 eps of itself, and |g| sech^2(g) < 1/2), and the
    rest rounds as above, so |u~ - U~| <= (c + 3) eps. The final clip to
    [tiny, 1] moves neither difference further. In all,
    |u - u~| < 1.46e-4 + 3 (c + 2) eps.

    delta = eps_Phi + 4 (c + 2) eps is more than twice that for any c below
    1e10. The spare half covers the rounding of u~ +- delta in the walk
    (eps), and leaves room for a further error of up to delta / 2, as the
    tests add to u~. On float32 planes the pass adds its own rounding to
    this, row by row (_single_margin).
    """
    return _PAGE_ERR + 4 * (c + 2) * np.finfo(float).eps


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u = _U."""
    return k * _U / (1 - k * _U)


def _single(mix: tuple, X: np.ndarray):
    """The constants of _map's float32 cheap pass over the leading columns
    of the samples X, and the terms of its per-row bound (_single_margin);
    None when they lie outside float32's safe range: a sample, centroid or
    factor entry past _SINGLE_RANGE = R in size, a conditional sd outside
    [1 / R, R], a residual that could pass R, or nu (a_j + b_j + 1) > 1e-3
    (_single_margin's terms). In the range, no cast or float32 op overflows
    (|z| <= R makes z^2 <= 2^80), and every rounding is within the bound.

    The float32 constants shift the log priors and each column's log sds by
    the midpoint of their range, which moves every posterior log of a row
    by one constant, so the weights keep their ratios; the terms are built
    in float64 from the float64 constants."""
    centroids, L, diag, log_diag, prior, log_prior = mix
    c, d = len(prior), X.shape[1]
    m, s = centroids[:, :d], diag[:, :d]
    size = np.abs(np.tril(L[:, :d, :d], -1))  # the factors' off-diagonal entries
    x_max = np.abs(X).max(axis=0, initial=0.0)
    if not (x_max.max(initial=0.0) <= _SINGLE_RANGE and np.abs(m).max() <= _SINGLE_RANGE
            and size.max() <= _SINGLE_RANGE
            and (s >= 1 / _SINGLE_RANGE).all() and (s <= _SINGLE_RANGE).all()):
        return None
    nu = _gamma(d + 4)
    rho = size / s[:, :, None]  # rho[c, j, k] = |L_cjk| / s_cj
    a, b, z_max = np.zeros((c, d)), np.zeros((c, d)), np.zeros(d)
    for j in range(d):
        r = rho[:, j, :j]
        a[:, j] = 2 * np.abs(m[:, j]) / s[:, j] + (1 + nu) * (r * a[:, :j]).sum(axis=1)
        b[:, j] = 2 * r.sum(axis=1) + (1 + nu) * (r * (b[:, :j] + 1)).sum(axis=1)
        z_max[j] = ((x_max[j] + np.abs(m[:, j]) + (size[:, j, :j] * z_max[:j]).sum(axis=1))
                    / s[:, j]).max()
        if z_max[j] > _SINGLE_RANGE or nu * (a[:, j].max() + b[:, j].max() + 1) > 1e-3:
            return None
    a, b = a.max(axis=0), b.max(axis=0)
    lp = log_prior - (log_prior.max() + log_prior.min()) / 2
    ld = log_diag[:, :d] - (log_diag[:, :d].max(axis=0) + log_diag[:, :d].min(axis=0)) / 2
    f32 = tuple(np.asarray(v, dtype=np.float32) for v in (m, L[:, :d, :d], s, ld, prior, lp))
    # v_cj = lp_c - sum_{k<j} ld_ck, the log weight of cluster c at level j
    # before the residuals, and lam_cj = |lp_c| + sum_{k<j} |ld_ck|
    before = np.zeros((2, c, d))
    np.cumsum([ld[:, :-1], np.abs(ld[:, :-1])], axis=2, out=before[:, :, 1:])
    v = lp[:, None] - before[0]
    lam = np.abs(lp)[:, None] + before[1]
    return f32, (c, nu, a, b, v.max(axis=0), np.ptp(v, axis=0), lam.max(axis=0))


def _single_margin(single: tuple, j: int, top: np.ndarray) -> np.ndarray:
    """The margin of the float32 cheap pass's u~_j at each row, whose
    largest float32 posterior log at level j is `top` (any values at j = 0):
    delta + 2 R for delta = _cheap_delta(c) and R the row's float32 term
    below; inf where that term's exp step is not small.

    The proof bounds |u~_j - u_j| by 1.46e-4 + (c + 3.5) eps + R, for u_j
    the exact pass's value, so the margin is more than twice that; its
    spare half covers the walk's rounding of u~ +- margin and the tests'
    jitter of up to margin / 2, as in _cheap_delta. All sums are exact
    arithmetic on the float64 constants of _mixture, u = _U (float32's unit
    roundoff 2^-24, plus eps for the exact pass, below) and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3-4: a recursive sum of k + 1 terms in any order
    moves each term by at most gamma_k of itself).

    Reference. z*, the exact residuals of the float64 samples and
    constants, l*_c = lp_c - sum_{k<j} (z*_ck^2 / 2 + ld_ck), the exact
    posterior logs, p*_c their normalized exponentials, and
    U* = sum_c p*_c Phi(z*_cj). The exact pass's u_j is within
    (c + 3) eps of the same average at its own float64 z and weights
    (_cheap_delta), and its rounding of z and of the logs is bounded by
    the terms below with eps / 2 in place of 2^-24, which taking
    u = 2^-24 + eps covers. The final 1/2 + u~ / 2 in float64 rounds by
    eps / 2.

    Residuals. Write rho_cjk = |L_cjk| / s_cj (s the conditional sds),
    mu_cj = |m_cj| / s_cj and Z_c = max_{k<j} |z*_ck|. The float32 residual
    of column j sums x_j, -m_cj and the products -z^_ck L_cjk, each rounded
    on entry (a cast, or a cast and a product), so it is within
    gamma_{j+3} (|x_j| + |m_cj| + sum_k |z^_ck L_cjk|) of that sum with the
    computed z^; the divide by the cast s moves z^ by gamma_2 of itself.
    With |x_j| / s_cj <= mu_cj + sum_k rho_cjk |z*_ck| + |z*_cj| (the exact
    residual's own equation), and nu = gamma_{d+4},
    |z^_cj - z*_cj| <= nu (a_cj + b_cj Z_c + |z*_cj|), by induction on j,
    with a_cj = 2 mu_cj + (1 + nu) sum_k rho_cjk a_ck and
    b_cj = 2 sum_k rho_cjk + (1 + nu) sum_k rho_cjk (b_ck + 1). a_j and b_j
    are their maxima over the clusters; _single keeps nu (a_j + b_j + 1)
    <= 1e-3, so products of two rounding terms stay below 1e-3 of the
    terms they ride on, and the factor 1.01 on R covers them. So does it
    cover underflow: a float32 cast or result below 2^-126 errs by up to
    2^-150, not by u of itself. In a residual that adds under
    2^-150 (j + 3 + sum_k |z^_ck|) / s_cj <= 2^-109 (1 + sum_k |z^_ck|) (a
    factor entry that tiny errs by 2^-150 times |z^_ck|), and with
    (1 + nu) b_j < 2500 bounding how far it spreads to the later columns,
    under 1e-29 (1 + sqrt(j Q_c)) in all; so under 1e-28 (1 + Q_c) in a log
    below, far inside 1e-2 of R, whose sums' term alone is over u.

    The weights' lemma. Let v_c = lp_c - sum_{k<j} ld_ck,
    Q_c = sum_{k<j} z*_ck^2, so that l*_c = v_c - Q_c / 2, V = max v_c and
    D* = log c + V - max_c l*_c >= 0. By Hoelder, for 0 <= eta <= 1/2,
    sum_c exp(v_c - (1/2 - eta) Q_c) <= (sum_c exp(l*_c))^(1 - 2 eta)
    (sum_c exp(v_c))^(2 eta), so E_p*[exp(eta Q)] <= exp(2 eta D*), and by
    Jensen E_p*[Q] <= 2 D* and E_p*[sqrt(Q)] <= sqrt(2 D*).

    The terms of R.
    - Sums: the float32 products w t and their sum err by gamma_c of
      sum w |t| <= W, the sum W by gamma_{c-1} of itself and the divide by
      u, so the ratio is within gamma_{2c+1} of sum w t / W, and half that
      moves u~: S = gamma_{2c+1} / 2.
    - Page's form: g = z (a + b z^2) takes five roundings on nonnegative
      terms, so it is within gamma_5 |g| of g with the float64 a and b,
      which moves tanh by |g| sech^2 <= 0.45 of that; numpy's float32 tanh
      is within _TANH32_ERR u of tanh (test_float32_function_error): so
      T = (_TANH32_ERR u + 0.45 gamma_5) / 2. Under p*, the cheap form at
      the clipped float32 z^ is within 1.46e-4 of Phi(z^) (_cheap_delta).
    - Residuals under p*: |Phi(z^) - Phi(z*)| <= 0.4 nu (a_j + b_j Z) plus
      at most 0.25 nu from the |z*_cj| term (|z| phi(z) < 0.25), so
      E_p* <= 0.4 nu (a_j + b_j sqrt(2 D*)) + 0.25 nu.
    - Weights. Each float32 weight is exp(l^_c - l^_max) with the
      subtraction rounding by u (l^_max - l^_c) <= u (spread_j + Q_c / 2)
      (spread_j = max v - min v), and exp by _EXP32_ERR u of itself (or,
      below 2^-126, by less than 2^-126, under c 2^-126 of u~ in all). The
      float32 logs are a recursive sum of lp, -ld_k and -z^_ck^2 / 2, 2j + 1
      terms each rounded once on entry, so within
      gamma_{2j+1} (lam_j + Q_c / 2) of the same sum with z^
      (lam_j = max_c |lp_c| + sum_{k<j} |ld_ck|), which is within
      sum_k |z^_ck - z*_ck| |z*_ck| <= nu (a~ sqrt(j Q_c) + (b~ sqrt(j) + 1) Q_c)
      of l*_c (a~, b~ the maxima of a_k, b_k over k < j). With
      sqrt(Q) <= (kappa + Q / kappa) / 2 for any kappa > 0, each log weight
      is off by r_c with |r_c| <= A + H Q_c, where
      A = gamma_{2j+1} lam_j + u spread_j + _EXP32_ERR u + B kappa / 2,
      H = gamma_{2j+1} / 2 + nu (b~ sqrt(j) + 1) + u / 2 + B / (2 kappa),
      B = nu a~ sqrt(j). By the lemma, E_p*[exp(|r|)] <= exp(omega),
      omega = A + 2 H D*. The float32 weights are p*_c exp(r_c) up to a
      common factor, so for f in [0, 1],
      |sum_c (p^_c - p*_c) f_c| <= sum_c p*_c |exp(r_c) - 1| / sum_c p*_c exp(r_c)
      <= exp(omega) (exp(omega) - 1), as Jensen bounds the denominator by
      exp(-omega) from below.
    - D* from the row's own logs. At the computed arg max c^, l*_c^ is
      within A + H Q_c^ of l^_max and Q_c^ <= 2 (V - l*_c^), so
      D* <= (D^ + A) / (1 - 2 H), with D^ = log c + V - l^_max. Rows with
      omega > 1e-3 get an infinite margin: the redo maps them exactly.
    At j = 0 the weights are the priors, rounded by u each and summed
    without a divide: omega = u, and Q = 0.

    So R = 1.01 (S + T + 0.4 nu (a_j + b_j sqrt(2 D*)) + 0.25 nu
    + exp(omega) (exp(omega) - 1)). kappa = sqrt(2 D_t), with
    D_t = log c + spread_j + j / 2 the D of a row that sits one sd from its
    own cluster's centroid, makes the split tight there. On the benchmark
    tables (c = 400, alpha = 1/3) R is 4e-5 to 5e-5 at most rows, against
    S = 2.4e-5.

    The measured constants. numpy states no bound for its float32 tanh and
    exp, so _TANH32_ERR and _EXP32_ERR sit above the errors
    test_float32_function_error measures on the running build (1.01 u and
    3.38 u, 1.71 u and 1.00 u at the baseline dispatch). Were tanh off by
    Delta_t u and exp by Delta_e u beyond them, R would grow by at most
    1.01 u (Delta_t / 2 + 1.01 Delta_e): T takes tanh's error at 1/2; exp's
    moves each |r_c|, so omega, by Delta_e u, and not D*'s bound, which
    takes A only as a bound on the logs' error; and
    exp(omega) (exp(omega) - 1) grows by at most 1.01 of omega's growth
    while omega < 2e-3. The margin exceeds twice the proven bound by
    8e-6 + (2 c + 1) eps, so it stays over twice the true bound while
    Delta_t / 2 + 1.01 Delta_e < 66, and exceeds the bound itself by more
    than 1.54e-4, so the walk's entries, and the released bytes, stay
    exact while Delta_t / 2 + 1.01 Delta_e < 2500.
    """
    c, nu, a, b, top_v, spread, lam = single[1]
    u = _U
    base = _gamma(2 * c + 1) / 2 + (_TANH32_ERR * u + 0.45 * _gamma(5)) / 2 + 0.25 * nu
    if j == 0:
        omega = np.full(len(top), u)
        reach = 0.4 * nu * a[0]
    else:
        spread_j, lam_j = spread[j], lam[j]
        kappa = np.sqrt(2 * (np.log(c) + spread_j + j / 2))
        big_b = nu * a[:j].max() * np.sqrt(j)
        g = _gamma(2 * j + 1)
        big_a = g * lam_j + u * spread_j + _EXP32_ERR * u + big_b * kappa / 2
        big_h = g / 2 + nu * (b[:j].max() * np.sqrt(j) + 1) + u / 2 + big_b / (2 * kappa)
        d_star = (np.log(c) + top_v[j] - top.astype(float) + big_a) / (1 - 2 * big_h)
        omega = big_a + 2 * big_h * d_star
        reach = 0.4 * nu * (a[j] + b[j] * np.sqrt(2 * np.maximum(d_star, 0)))
    small = np.minimum(omega, 1e-3)  # the rows past it get inf, and no overflow
    r = 1.01 * (base + reach + np.exp(small) * np.expm1(small))
    return np.where(omega <= 1e-3, _cheap_delta(c) + 2 * r, np.inf)


def _map(X: np.ndarray, mix: tuple, skip_first: bool = False, cheap=(), single=None) -> tuple:
    """forward_gaussian of checked samples X under the constants `mix` of
    _mixture, and each u_j's margin for _walk. With skip_first, the first
    column's CDF terms and their sum are not computed and u[:, 0] is NaN;
    its residuals and posterior update, which the later columns read, are,
    so those keep their bits. The columns in `cheap` are mapped by the cheap
    pass, Page's tanh form in place of _phi: on float64 planes within
    _cheap_delta(c) of the exact u_j, or, with `single` from _single(mix, X)
    and no column left to _phi, on float32 planes within each row's margin
    from _single_margin. The exact columns' margin is 0."""
    centroids, L, diag, log_diag, prior, log_prior = mix
    d = X.shape[1]  # the leading columns mapped
    skipped = int(skip_first)  # leading columns whose u is not computed
    u = np.empty(X.shape)
    u[:, :skipped] = np.nan
    if skipped == d:
        return u, np.zeros(X.shape)
    exact = any(j not in cheap for j in range(skipped, d))  # some column calls _phi
    assert single is None or not exact, "float32 planes need every column cheap"
    # a map with no exact column has short ops, so its blocks take twice the cells
    cells = _BLOCK_CELLS if exact else 2 * _BLOCK_CELLS
    rows = max(_MIN_BLOCK, cells // len(prior))
    if single is not None:
        centroids, L, diag, log_diag, prior, log_prior = single[0]
        top = np.empty(X.shape, dtype=np.float32)  # each level's largest posterior log
    dtype = centroids.dtype

    def block(b: int, work: np.ndarray) -> None:
        xb = X[b:b + rows].astype(dtype, copy=False)
        # (block, c) slices of the thread's work array: the standardized
        # residuals of each dimension, the log posteriors, a temporary
        # product and, when a column calls _phi, its second scratch plane.
        # The CDF terms of dimension j go in the last residual plane: no
        # earlier dimension reads it, and the last dimension's residuals are
        # read only by its own CDF.
        z = work[:d, :len(xb)]
        logpost, tmp = work[d:d + 2, :len(xb)]
        phi = z[d - 1]
        logpost[:] = log_prior
        for j in range(d):
            zj = z[j]
            np.subtract(xb[:, None, j], centroids[:, j], out=zj)
            for k in range(j):
                zj -= np.multiply(z[k], L[:, j, k], out=tmp)
            zj /= diag[:, j]
            if j >= skipped:
                if j in cheap:  # phi = tanh(g(clip(z))), into the free planes
                    np.minimum(zj, _PAGE_CLIP, out=phi)
                    np.maximum(phi, -_PAGE_CLIP, out=phi)
                    np.multiply(phi, phi, out=tmp)
                    tmp *= _PAGE_B
                    tmp += _PAGE_A
                    phi *= tmp
                    np.tanh(phi, out=phi)
                else:
                    _phi(zj, phi, work[d + 1:, :len(xb)])
                if j == 0:
                    uj = np.einsum("nc,c->n", phi, prior)
                else:
                    most = logpost.max(axis=1, keepdims=True)
                    if single is not None:
                        top[b:b + rows, j] = most[:, 0]
                    w = np.exp(np.subtract(logpost, most, out=tmp), out=tmp)
                    uj = np.einsum("nc,nc->n", w, phi) / w.sum(axis=1)
                if j in cheap:  # 1/2 + uj / 2 in float64
                    uj = np.multiply(uj, 0.5, out=u[b:b + rows, j])
                    uj += 0.5
                else:
                    u[b:b + rows, j] = uj
            if j + 1 < d:
                np.multiply(zj, 0.5, out=tmp)
                tmp *= zj
                logpost -= tmp
                logpost -= log_diag[:, j]

    def run(blocks, work: np.ndarray) -> None:
        for b in blocks:
            block(b, work)

    starts = range(0, len(X), rows)
    share = max(1, min(len(starts) // _THREAD_BLOCKS, _usable_cpus()))
    # The calling thread allocates every thread's work array, so the
    # helpers' temporaries do not stay resident in per-thread malloc arenas
    # after they exit. A pool with nothing submitted starts no thread.
    works = [np.empty((d + 2 + exact, min(rows, len(X)), len(prior)), dtype=dtype)
             for _ in range(share)]
    with ThreadPoolExecutor(max_workers=max(1, share - 1)) as pool:
        helpers = [pool.submit(run, starts[i::share], works[i]) for i in range(1, share)]
        run(starts[0::share], works[0])
        for f in helpers:
            f.result()
    del works  # before the margins' temporaries, which then reuse its memory

    mapped = u[:, skipped:]
    np.clip(mapped, np.finfo(float).tiny, 1.0, out=mapped)
    margin = np.zeros(X.shape)
    for j in cheap:
        margin[:, j] = (_cheap_delta(len(prior)) if single is None
                        else _single_margin(single, j, top[:, j]))
    return u, margin


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
    return _walk(np.maximum(u, np.finfo(float).tiny), joint)  # clamp exact zeros


def _walk(u: np.ndarray, joint: EmpiricalJoint, margin=0.0) -> np.ndarray:
    """inverse_empirical_indices of checked u with no exact zeros, where
    each u_j is known only to within margin_j of the u_j the walk reads.

    `margin` is an array of u's shape, or one value for all of it: 0 for
    the exact map, _cheap_delta(c) for the cheap pass of _map, and the
    margin _root_interpolant gives for its u~_0. The entry is
    non-decreasing in u_j, so a row whose entries for u_j - margin_j and
    u_j + margin_j agree has that entry; a row whose entries differ is
    flagged, -1 from that level on. They differ just when the lower entry
    is not its table's last and u_j + margin_j passes its edge, so one
    search serves both. An infinite margin flags exactly the rows whose
    table has more than one entry, so u_j need not be known there, only
    not NaN. The levels past u's columns take that rule without the search.
    At the root every row reads the one table, so np.searchsorted on it
    stands in for searchsorted_segments: 0.40 against 0.97 ms on 4000 rows
    of the 2450-entry release-continuous root (medians of 41 calls).
    """
    margin = np.broadcast_to(margin, u.shape)
    out = np.empty((len(u), joint.d), dtype=np.intp)
    node = np.zeros(len(u), dtype=np.intp)
    flagged = np.zeros(len(u), dtype=bool)  # rows the walk cannot place
    for j, (idx, cumfrac, starts, lengths) in enumerate(joint.flat_trie):
        s, n_next = starts[node], lengths[node]
        if j >= u.shape[1]:
            flagged |= n_next > 1
            node = s
        else:
            uj, mj = u[:, j], margin[:, j]
            low = uj - mj - _U_TOL
            if j == 0:  # every row at the root node
                pos = np.searchsorted(cumfrac[starts[0]:starts[0] + lengths[0]], low)
            else:
                pos = searchsorted_segments(cumfrac, s, n_next, low)
            node = s + np.minimum(pos, n_next - 1)
            flagged |= (pos < n_next - 1) & (cumfrac[node] < uj + mj - _U_TOL)
        out[:, j] = np.where(flagged, -1, idx[node])
    return out


def _root_interpolant(x0: np.ndarray, mix: tuple):
    """A cubic Hermite interpolant u~ of the first coordinate's mixture CDF
    at every first dither coordinate in x0, and each row's margin for _walk:
    delta = eps_0 + 12 (c + 2) eps on the rows it places, inf on the rest.
    None when its nodes would number half the rows or more, or x0 is empty.

    The bound. G(x) = sum_c prior_c Phi((x - m_c) / s_c), taken exactly
    with the float centroids m_c, sds s_c and priors of `mix`, is the CDF
    that _map computes at the first column. Its fourth derivative is
    sum_c prior_c phi3(z_c) / s_c^4, where phi3 = phi''' and
    |phi3(z)| = |z (z^2 - 3)| phi(z) peaks at z^2 = 3 - sqrt(6), at
    0.55059 < _PHI3_MAX = 0.551 (test_phi3_grid_maximum measures it again).
    On a cell [a, b] of width w, the cubic that matches G and G' at both
    ends is within max |G''''| w^4 / 384 of G. So a cell no wider than
    w_max, with w_max^4 = 384 eps_0 / (0.551 sum_c prior_c / s_c^4), keeps
    it within eps_0 = _ROOT_ERR. w_max is computed as
    s_min (384 eps_0 / (0.551 S))^(1/4), with s_min the least s_c and
    S = sum_c prior_c (s_min / s_c)^4, positive and at most about 1, so that
    no s_c^4 is formed and nothing overflows, whatever alpha is. 0.551 exceeds the peak by
    7e-4 of itself, which covers the rounding of S, of w_max and of a
    cell's width (a few eps each).

    The nodes. The lattice lo + i step, with lo the least x0 and
    step = w_max / 1.1, has a node at both ends of every lattice cell that
    holds a record and nowhere else, so a far outlier adds two nodes, not
    a run of empty cells. G at the nodes comes from _map, with its bits,
    and G' from one einsum. Each row is placed between the consecutive
    nodes around it. Rounding can leave a row past the last node, or widen
    a cell past w_max where |x0| is some 1e14 steps or more; such rows are
    not placed. A node costs about what a mapped row does, and its slope
    as much again, so the interpolant pays while 2 nodes < N.

    The margin. A placed row's u~ is within delta - eps of the u0 that
    _map computes for it, so the walk, whose entry is non-decreasing in u0
    while rounding is monotone, finds u0's entry wherever those of
    u~ - delta and u~ + delta agree. u0 = clip(s, tiny, 1), for s the float
    sum over the c clusters of fl(prior_c _phi(z_c)),
    z_c = fl(fl(x0 - m_c) / s_c). z_c is within eps |z_c| of the exact z,
    which moves Phi by less than max |z phi(z)| eps < 0.25 eps; _phi is
    within E_Phi = 3 eps of Phi (_phi); each product rounds by eps / 2 of
    itself, and a sum of c nonnegative terms in any order by
    (c - 1) eps / 2 of their total, at most about 1; clip is 1-Lipschitz,
    and it moves G by at most c eps / 2 + tiny, as the priors sum to 1
    within c eps / 2. So |u0 - G| < (c + 1) eps + E_Phi = (c + 4) eps
    <= delta_0 / 2, for delta_0 = 4 (c + 2) eps. The spare half is room for
    the tests, which move each u0 by up to delta_0 / 2: below, every u0, at
    a row or at a node, is within delta_0 of G. Then |u~ - u0| is at most the sum of
    - eps_0, the interpolant's bound with exact node data;
    - delta_0 from the node values, whose two weights are nonnegative and
      sum to 1;
    - 0.05 (c + 6) eps from the slopes. Each exp(-z^2 / 2) is within 2.2 eps
      (z rounds by eps |z|, z^2 and exp by an eps each), and the einsum's
      products, nonnegative sum and divides add (c + 4) eps / 2 of the
      total, so a slope is within (c + 6) eps sum_c prior_c / s_c. The
      slopes' weights sum to w f (1 - f) <= w / 4, and
      w sum_c prior_c / s_c <= w (sum_c prior_c / s_c^4)^(1/4) < 0.17 (a
      power mean);
    - 6 eps from the float f and the cubic's terms, each at most 1;
    - delta_0 from the row's own u0.
    That is eps_0 + 2 delta_0 + (0.05 c + 6.3) eps < delta - eps, with
    delta = eps_0 + 3 delta_0, for any c >= 1. The rows not placed get an
    infinite margin, and u~ = 1/2 in place of whatever the cubic gave
    there, which may be NaN.
    """
    centroids, _, diag, _, prior, _ = mix
    m, s = centroids[:, 0], diag[:, 0]
    s_min = s.min()
    spread = (prior * (s_min / s) ** 4).sum()
    wide = s_min * (384 * _ROOT_ERR / (_PHI3_MAX * spread)) ** 0.25
    step = wide / 1.1
    lo = x0.min(initial=np.inf)  # inf when x0 is empty: no lattice, and None
    cells = np.floor((x0 - lo) / step)
    lattice = np.unique(np.concatenate([cells, cells + 1]))
    if 2 * len(lattice) >= len(x0):
        return None
    nodes = lo + lattice * step
    g = _map(nodes[:, None], mix)[0][:, 0]
    z = np.subtract(nodes[:, None], m)  # in place from here on: one (nodes, c) array
    z /= s
    z *= z
    z *= -0.5
    slope = np.einsum("nc,c->n", np.exp(z, out=z), prior / s) / np.sqrt(2 * np.pi)
    k = np.minimum(np.searchsorted(nodes, x0, side="right") - 1, len(nodes) - 2)
    a, b = nodes[k], nodes[k + 1]
    w = b - a
    f = np.divide(x0 - a, w, out=np.zeros_like(x0), where=w > 0)
    u = (g[k] + f * f * (3 - 2 * f) * (g[k + 1] - g[k])
         + w * f * (1 - f) * ((1 - f) * slope[k] - f * slope[k + 1]))
    placed = (x0 <= b) & (w <= wide)
    delta = _ROOT_ERR + 12 * (len(m) + 2) * np.finfo(float).eps
    return np.where(placed, u, 0.5), np.where(placed, delta, np.inf)


def _table_sizes(joint: EmpiricalJoint) -> np.ndarray:
    """The (d, keys) entry counts of the table each key's walk reads at
    each level: the table of its length-j prefix."""
    # the keys are distinct and sorted, so key g is entry g of the last level
    node = np.arange(len(joint.keys))
    sizes = np.empty((joint.d, len(node)), dtype=np.intp)
    for j in range(joint.d - 1, -1, -1):
        lengths = joint.flat_trie[j][3]
        node = np.repeat(np.arange(len(lengths)), lengths)[node]  # its length-j prefix
        sizes[j] = lengths[node]
    return sizes


def _mapped_width(joint: EmpiricalJoint) -> int:
    """The leading width J in 1..d that minimizes J + d * share_J, the
    forward map's columns per record when every record maps J and the rows
    the walk flags map all d again. share_J is the share of records whose
    key passes a prefix with more than one entry at a level >= J: the chance
    that a walk drawn from the joint needs a u_j beyond the first J. Ties go
    to the wider J."""
    d = joint.d
    # deep[j]: the key passes a table of more than one entry at a level >= j
    deep = np.logical_or.accumulate(_table_sizes(joint)[::-1] > 1, axis=0)[::-1]
    best, best_cost = d, float(d)
    for j in range(d - 1, 0, -1):
        cost = j + d * joint.counts[deep[j]].sum() / joint.total
        if cost < best_cost:
            best, best_cost = j, cost
    return best


def _cheap_levels(joint: EmpiricalJoint, levels: range, delta: float) -> tuple:
    """The levels j in `levels` that the cheap pass maps: those where
    2 delta E_j d < 1/2, with E_j the mean edge count (entries - 1) of the
    level-j tables the records' keys walk.

    A row's u_j falls within delta of one of its table's E_j edges, and is
    mapped again on all d columns, with a chance of about 2 delta E_j. Each
    cheap level saves more than half a column's cost per row (Page's form
    costs 5.0 ns a cell on float64 planes and 2.3 ns on float32 ones,
    against _phi's 26 ns, on (64, 400) planes of a shared 2-core VM), so a
    level pays while its rows mapped again cost less than that. So a root table as large as the
    continuous one (2450 entries, 2 delta E_0 d about 4) would stay exact
    where the interpolant of _root_interpolant declines, while the small
    tables past the root are cheap.
    """
    edges = ((_table_sizes(joint)[levels] - 1) * joint.counts).sum(axis=1) / joint.total
    return tuple(j for j, e in zip(levels, edges) if 2 * delta * e * joint.d < 0.5)


def gaussian_release_indices(xt, model: ClusterModel, alpha: float,
                             joint: EmpiricalJoint) -> np.ndarray:
    """inverse_empirical_indices(forward_gaussian(xt, model, alpha), joint)
    for an (N, d) array of dither samples, mapping only what the walk reads.

    Every row is mapped on its leading _mapped_width(joint) columns and
    walked by one certified walk, in which each mapped u_j comes with its
    evaluator's margin (_walk):
    - the first coordinate's interpolant, when it needs fewer than N / 2
      nodes (_root_interpolant), gives u~_0 and its margin, and the map
      then skips the first column's CDF; otherwise the first column is
      mapped with the others;
    - the levels _cheap_levels picks, the small tables, are mapped by the
      cheap pass, with the margin _cheap_delta(c); when it picks every
      level the map computes a CDF at, and _single finds the samples and
      constants in float32's safe range, on float32 planes, with each
      row's margin from _single_margin;
    - the other levels are mapped exactly, with margin 0.
    The walk flags the rows whose u_j lies within its margin of an edge of
    their table, and those that need a column not mapped. They are mapped
    exactly on all d columns and walked again: one redo for every level.
    A row's u depends on no other row and its leading columns equal the
    full map's, so the indices are the full path's bit for bit. On
    continuous data the prefixes part after a column or two, and the map's
    last columns are skipped for nearly every row. The mixture's constants
    are built once for the interpolant's nodes, the main map and the redo.
    """
    d = model.centroids.shape[1]
    X = _dither(xt, d)
    if X.shape[1] != d:
        raise ShapeError(f"expected an (N, {d}) array of dither samples, got shape {X.shape}")
    width = _mapped_width(joint)
    mix = _mixture(model, alpha)
    delta = _cheap_delta(len(mix[0]))  # c = len(centroids)
    root = _root_interpolant(X[:, 0], mix)
    skip_first = root is not None
    levels = range(int(skip_first), width)
    cheap = _cheap_levels(joint, levels, delta)
    # float32 planes when no column of the main map calls _phi, in float32's safe range
    single = _single(mix, X[:, :width]) if cheap and len(cheap) == len(levels) else None
    u, margin = _map(X[:, :width], mix, skip_first, cheap, single)
    if skip_first:
        u[:, 0], margin[:, 0] = root
    idx = _walk(u, joint, margin)
    redo = np.flatnonzero(idx[:, -1] < 0)
    if len(redo):
        idx[redo] = _walk(_map(X[redo], mix)[0], joint)
    return idx
