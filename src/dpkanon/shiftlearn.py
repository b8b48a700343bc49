"""Covariate-shift and transfer weights, each an array of one finite,
nonnegative weight per source record; weighted linear regression under
dummy or numeric coding; and the utility metrics (relative bias, R²,
histogram intersection).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import EmpiricalJoint, group_rows, round_sig
from .errors import ConvergenceError, DegenerateError, DomainError, ShapeError


def _checked(w: np.ndarray) -> np.ndarray:
    """Per-record weights, once they are known to be finite and nonnegative."""
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    return w


def nonparametric_weights(source: EmpiricalJoint, target: EmpiricalJoint) -> np.ndarray:
    """Empirical density-ratio weights w(v) = q(v)/p(v) over the source
    support, per source record through source.inverse; target support points
    unseen in the source are unreachable and only produce a warning."""
    if source.d != target.d:
        raise ShapeError("source and target joints have different dimensions")
    p = source.pmf()
    q = target.pmf()
    missing = [v for v in q if v not in p]
    if missing:
        warnings.warn(
            f"{len(missing)} target support point(s) have zero source "
            "probability and cannot be reached by reweighting"
        )
    # p lists the source keys in key order
    point = np.fromiter((q.get(v, 0.0) / pv for v, pv in p.items()), dtype=float, count=len(p))
    return _checked(point[source.inverse])


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_weights(source_x, target_x, max_iter: int = 100,
                     tol: float = 1e-8) -> np.ndarray:
    """Density-ratio weights from a linear logistic discriminator fit by
    iteratively reweighted least squares on the pooled sample.

    w(x) = P(target|x)/P(source|x) * n_source/n_target, mean-one normalized
    over the source records.
    """
    Xs = np.atleast_2d(np.asarray(source_x, dtype=float))
    Xt = np.atleast_2d(np.asarray(target_x, dtype=float))
    if Xs.shape[1] != Xt.shape[1]:
        raise ShapeError("source and target feature dimensions differ")
    ns, nt = len(Xs), len(Xt)
    X = np.vstack([Xs, Xt])
    X = np.column_stack([np.ones(len(X)), X])
    lab = np.concatenate([np.zeros(ns), np.ones(nt)])

    beta = np.zeros(X.shape[1])
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iter):
        eta = X @ beta
        if np.max(np.abs(eta)) > 50:
            raise ConvergenceError(
                "logistic weight fit diverged (|log-odds| > 50); the pooled "
                "sample is likely perfectly separable"
            )
        mu = np.clip(_sigmoid(eta), 1e-12, 1 - 1e-12)
        ll = float(np.sum(lab * np.log(mu) + (1 - lab) * np.log(1 - mu)))
        if abs(ll - prev_ll) < tol:
            converged = True
            break
        prev_ll = ll
        wts = mu * (1 - mu)
        grad = X.T @ (lab - mu)
        hess = X.T @ (wts[:, None] * X) + 1e-10 * np.eye(X.shape[1])
        beta = beta + np.linalg.solve(hess, grad)
    if not converged:
        warnings.warn(f"logistic weight fit did not converge in {max_iter} iterations")

    eta_s = X[:ns] @ beta
    w = np.exp(eta_s) * (ns / nt)
    return _checked(w / w.mean())


@dataclass
class TransferSpec:
    """Multi-task setup: per-record task labels, pooled training rows, and
    per-task target covariate samples."""

    tasks: np.ndarray               # (n,) task labels
    x: np.ndarray                   # (n, d) training covariates
    y: np.ndarray                   # (n,) training responses
    targets: dict                   # task -> target covariate rows
    priors: dict | None = None      # task -> prior; default empirical n_t/n

    def __post_init__(self):
        self.tasks = np.asarray(self.tasks)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        if self.priors is None:
            n = len(self.tasks)
            self.priors = {t: np.sum(self.tasks == t) / n
                           for t in np.unique(self.tasks)}
        total = sum(self.priors.values())
        if not np.isclose(total, 1.0) or any(p <= 0 for p in self.priors.values()):
            raise DomainError("task priors must be positive and sum to 1")
        for t in np.unique(self.tasks).tolist():
            if t not in self.priors:
                raise DomainError(f"task {t!r} has records but no prior")


def _shares(groups: np.ndarray, size: int) -> np.ndarray:
    """Each of `size` groups' share of the entries of `groups` (0 if none)."""
    return np.bincount(groups, minlength=size) / max(len(groups), 1)


def transfer_weights(spec: TransferSpec, t) -> np.ndarray:
    """Plug-in transfer weights over the pooled training records:
    [p(x,y|t) / sum_t' p_t' p(x,y|t')] * [q(x|t)/p(x|t)].

    Each PMF is a table of group shares (np.bincount) over rows grouped
    after round_sig; the training and target x rows share one grouping. A
    record whose x no task-t record has gets weight 0."""
    task_list = list(spec.priors)
    if t not in task_list:
        raise DomainError(f"task {t!r} not present in the spec")
    if t not in spec.targets:
        raise DomainError(f"task {t!r} has no target covariates in the spec")
    n = len(spec.tasks)
    target = np.atleast_2d(np.asarray(spec.targets[t], dtype=float))
    if target.shape[1] != spec.x.shape[1]:
        raise ShapeError("target and training covariate dimensions differ")
    xy_keys, xy = group_rows(round_sig(np.column_stack([spec.x, spec.y])))
    x_keys, x = group_rows(round_sig(np.vstack([spec.x, target])))
    x, q = x[:n], _shares(x[n:], len(x_keys))

    mix = np.zeros(n)
    for tt in task_list:
        mask = spec.tasks == tt
        p_xy = _shares(xy[mask], len(xy_keys))[xy]
        mix = mix + spec.priors[tt] * p_xy
        if tt == t:
            p_t_xy, p_t_x = p_xy, _shares(x[mask], len(x_keys))[x]
    w = np.zeros(n)
    seen = p_t_x > 0
    w[seen] = (p_t_xy[seen] / mix[seen]) * (q[x[seen]] / p_t_x[seen])
    return _checked(w)


@dataclass
class DesignInfo:
    """Column layout of a regression design matrix."""

    coding: str                     # dummy | numeric
    levels: tuple = ()              # per-variable sorted level tuples (dummy)
    columns: tuple = ()             # (variable index, level or None) per column
    d: int = 0


@dataclass
class RegressionModel:
    coef: np.ndarray
    design: DesignInfo


def build_design(qi, coding: str, levels=None):
    """Design matrix with intercept.

    numeric: one raw-valued column per variable.  dummy: one indicator per
    level except the lowest of each variable; levels default to those
    observed in the data.
    """
    qi = np.atleast_2d(np.asarray(qi, dtype=float))
    d = qi.shape[1]
    if coding == "numeric":
        info = DesignInfo("numeric", columns=tuple((j, None) for j in range(d)), d=d)
        return np.column_stack([np.ones(len(qi)), qi]), info
    if coding != "dummy":
        raise DomainError(f"unknown coding {coding!r}")
    rounded = round_sig(qi)
    if levels is None:
        levels = tuple(tuple(np.unique(rounded[:, j])) for j in range(d))
    else:
        levels = tuple(tuple(lv) for lv in levels)
    columns = tuple((j, lv) for j in range(d) for lv in levels[j][1:])
    info = DesignInfo("dummy", levels=levels, columns=columns, d=d)
    return apply_design(info, qi), info


def apply_design(info: DesignInfo, qi) -> np.ndarray:
    """Encode (possibly new) rows against a fitted design layout.

    Unseen dummy levels fall to the reference level (all-zero indicators)
    with a warning.
    """
    qi = np.atleast_2d(np.asarray(qi, dtype=float))
    if qi.shape[1] != info.d:
        raise ShapeError(f"expected {info.d} variables, got {qi.shape[1]}")
    if info.coding == "numeric":
        return np.column_stack([np.ones(len(qi)), qi])
    rounded = round_sig(qi)
    unseen = 0
    for j in range(info.d):
        unseen += int(np.sum(~np.isin(rounded[:, j], info.levels[j])))
    if unseen:
        warnings.warn(
            f"{unseen} cell(s) hold levels unseen at fit time; they fall to "
            "the reference level"
        )
    cols = [np.ones(len(qi))]
    for j, lv in info.columns:
        cols.append((rounded[:, j] == lv).astype(float))
    return np.column_stack(cols)


def weighted_least_squares(design, y, weights, ridge: float = 1e-8,
                           info: DesignInfo | None = None) -> RegressionModel:
    """Ridge-stabilized weighted least squares: np.linalg.lstsq (LAPACK
    gelsd, an SVD-based solver) on the sqrt-weight scaled system with the
    ridge rows appended.  The intercept is not penalized.

    Weights are normalized to mean one internally so the fit is invariant to
    their overall scale.
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != X.shape[0] or y.shape[0] != X.shape[0]:
        raise ShapeError("design, response, and weights must align")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    wsum = w.sum()
    if wsum == 0:
        raise DegenerateError("all regression weights are zero")
    w = w * (len(w) / wsum)

    sqw = np.sqrt(w)
    Xw = X * sqw[:, None]
    yw = y * sqw
    if ridge > 0:
        pen = np.sqrt(ridge) * np.eye(X.shape[1])[1:]  # skip intercept
        Xw = np.vstack([Xw, pen])
        yw = np.concatenate([yw, np.zeros(X.shape[1] - 1)])
    coef, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    if info is None:
        info = DesignInfo("numeric", columns=tuple(), d=X.shape[1] - 1)
    return RegressionModel(coef, info)


def distinct_row_least_squares(rows, inverse, y, weights, ridge: float = 1e-8,
                               info: DesignInfo | None = None) -> RegressionModel:
    """weighted_least_squares over n records whose design rows repeat,
    solved on the G distinct rows.

    `rows` holds the (G, p) distinct design rows and `inverse` the row of
    each record. Row g carries the summed weight W_g of its records and
    their weight-averaged response ybar_g. With S = sum(w), the per-record
    objective is sum_i w_i (y_i - x_i b)^2 n / S + ridge |b[1:]|^2. Times
    G/n, less a term free of b, it is sum_g W_g (ybar_g - x_g b)^2 G / S +
    ridge (G/n) |b[1:]|^2, which weighted_least_squares minimizes on the
    distinct rows with ridge * G / n. Both fits have one minimizer; this one
    solves a (G, p) system instead of an (n, p) one. A row whose weights are
    all zero gets response 0, and its zero weight leaves it out of the fit.
    """
    inverse = np.asarray(inverse)
    w = np.asarray(weights, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.shape != inverse.shape or y.shape != inverse.shape:
        raise ShapeError("row indices, response, and weights must align")
    if np.any(w < 0):
        raise DomainError("weights must be nonnegative")
    g = len(rows)
    W = np.bincount(inverse, weights=w, minlength=g)
    wy = np.bincount(inverse, weights=w * y, minlength=g)
    ybar = np.divide(wy, W, out=np.zeros(g), where=W > 0)
    return weighted_least_squares(rows, ybar, W, ridge=ridge * g / len(w), info=info)


def predict(model: RegressionModel, qi) -> np.ndarray:
    return apply_design(model.design, qi) @ model.coef


def relative_bias(predicted, actual) -> float:
    """100 * (mean(predicted) - mean(actual)) / mean(actual)."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape:
        raise ShapeError("length mismatch")
    ma = actual.mean()
    if ma == 0:
        raise DomainError("actual mean is zero; relative bias undefined")
    return float(100.0 * (predicted.mean() - ma) / ma)


def r_squared(predicted, actual) -> float:
    """Coefficient of determination; may be negative."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0:
        raise DomainError("actual response has zero variance")
    ss_err = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ss_err / ss_tot


def histogram_intersection(p: dict, q: dict) -> float:
    """Sum over the union support of min(p(v), q(v)). A point in only one
    support adds 0, so the sum runs over the shared points; math.fsum rounds
    it once, whatever the order of the dicts."""
    return math.fsum(min(p[v], q[v]) for v in p.keys() & q.keys())
