import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpkanon.dataset import build_empirical_joint
from dpkanon.errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    ShapeError,
)
from dpkanon.shiftlearn import (
    apply_design,
    build_design,
    distinct_row_least_squares,
    histogram_intersection,
    logistic_weights,
    nonparametric_weights,
    r_squared,
    relative_bias,
    weighted_least_squares,
)
from dpkanon.synth import synthetic_table


class TestNonparametricWeights:
    def test_exact_ratio(self):
        src = build_empirical_joint(np.array([[0.0], [0.0], [1.0], [1.0]]))
        tgt = build_empirical_joint(np.array([[0.0], [1.0], [1.0], [1.0]]))
        w = nonparametric_weights(src, tgt)
        assert w == pytest.approx([0.5, 0.5, 1.5, 1.5])

    def test_reweighting_identity(self):
        # E_source[w(x) f(x)] = E_target[f(x)] exactly when target support
        # is contained in the source support
        rng = np.random.default_rng(0)
        src_rows = rng.integers(0, 3, size=(40, 2)).astype(float)
        tgt_rows = src_rows[rng.integers(0, 40, size=60)]
        src = build_empirical_joint(src_rows)
        tgt = build_empirical_joint(tgt_rows)
        w = nonparametric_weights(src, tgt)
        for _ in range(5):
            a, b = rng.normal(size=2)
            f = lambda rows: np.cos(a * rows[:, 0] + b * rows[:, 1])
            lhs = np.mean(w * f(src_rows))
            rhs = np.mean(f(tgt_rows))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_unreachable_target_warns(self):
        src = build_empirical_joint(np.array([[0.0], [1.0]]))
        tgt = build_empirical_joint(np.array([[0.0], [2.0]]))
        with pytest.warns(UserWarning, match="zero source"):
            nonparametric_weights(src, tgt)

    def test_dim_mismatch(self):
        src = build_empirical_joint(np.array([[0.0, 1.0]]))
        tgt = build_empirical_joint(np.array([[0.0]]))
        with pytest.raises(ShapeError):
            nonparametric_weights(src, tgt)


class TestLogisticWeights:
    def test_identical_populations_give_flat_weights(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        w = logistic_weights(x, x.copy())
        assert w.mean() == pytest.approx(1.0)
        assert np.std(w) < 0.2

    def test_upweights_target_heavy_region(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(400, 1))
        tgt = rng.normal(loc=1.0, size=(400, 1))
        w = logistic_weights(src, tgt)
        hi = src[:, 0] > 0.5
        assert w[hi].mean() > w[~hi].mean()

    def test_separable_raises(self):
        src = np.linspace(0, 1, 20)[:, None]
        tgt = np.linspace(2, 3, 20)[:, None]
        with pytest.raises(ConvergenceError):
            logistic_weights(src, tgt)

    def test_overflowing_fit_raises(self):
        # the squares of 1e300 overflow the Hessian, and the weights are NaN
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError, match="finite"):
                logistic_weights(np.array([[1e300], [0.0]]), np.array([[1.0], [2.0]]))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            logistic_weights(np.zeros((5, 2)), np.zeros((5, 3)))


class TestDesign:
    def test_numeric(self):
        qi = np.array([[1.0, 5.0], [2.0, 6.0]])
        X, info = build_design(qi, "numeric")
        assert np.array_equal(X, [[1, 1, 5], [1, 2, 6]])
        assert info.coding == "numeric"

    def test_dummy_drops_lowest_level(self):
        qi = np.array([[0.0], [1.0], [2.0], [1.0]])
        X, info = build_design(qi, "dummy")
        assert info.levels == ((0.0, 1.0, 2.0),)
        assert info.columns == ((0, 1.0), (0, 2.0))
        assert np.array_equal(X, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 0]])

    def test_unseen_level_falls_to_reference(self):
        qi = np.array([[0.0], [1.0]])
        _, info = build_design(qi, "dummy")
        with pytest.warns(UserWarning, match="unseen"):
            row = apply_design(info, np.array([[5.0]]))
        assert np.array_equal(row, [[1, 0]])

    def test_unknown_coding(self):
        with pytest.raises(DomainError):
            build_design(np.zeros((2, 1)), "helmert")

    def test_width_mismatch(self):
        _, info = build_design(np.zeros((2, 2)), "numeric")
        with pytest.raises(ShapeError):
            apply_design(info, np.zeros((2, 3)))


class TestWeightedLeastSquares:
    def test_recovers_exact_linear_fit(self):
        rng = np.random.default_rng(5)
        qi = rng.normal(size=(50, 2))
        y = 3.0 + 2.0 * qi[:, 0] - qi[:, 1]
        X, info = build_design(qi, "numeric")
        coef = weighted_least_squares(X, y, np.ones(50), ridge=0.0)
        assert np.allclose(coef, [3.0, 2.0, -1.0], atol=1e-10)
        assert np.allclose(apply_design(info, qi) @ coef, y, atol=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(6)
        qi = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        w = rng.uniform(0.1, 2.0, size=40)
        X, _ = build_design(qi, "numeric")
        a = weighted_least_squares(X, y, w)
        b = weighted_least_squares(X, y, 1000.0 * w)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_weights_tilt_fit(self):
        # two interleaved point clouds; upweighting one pulls the intercept
        x = np.array([[0.0]] * 10 + [[0.0]] * 10)
        y = np.array([0.0] * 10 + [10.0] * 10)
        X, _ = build_design(x, "numeric")
        w = np.array([1.0] * 10 + [9.0] * 10)
        coef = weighted_least_squares(X, y, w)
        assert coef[0] == pytest.approx(9.0, abs=1e-6)

    def test_zero_weights_rejected(self):
        X, _ = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(DegenerateError):
            weighted_least_squares(X, np.zeros(3), np.zeros(3))

    def test_negative_weights_rejected(self):
        X, _ = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(DomainError):
            weighted_least_squares(X, np.zeros(3), np.array([1.0, -1.0, 1.0]))

    def test_length_mismatch(self):
        X, _ = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(ShapeError):
            weighted_least_squares(X, np.zeros(3), np.ones(4))

    def test_dummy_saturated_fit(self):
        # one coefficient per level reproduces per-level means
        t = synthetic_table(60, [3], dep=0.0, seed=7)
        X, info = build_design(t.qi, "dummy")
        coef = weighted_least_squares(X, t.response, np.ones(t.n))
        for lv in (0.0, 1.0, 2.0):
            mask = t.qi[:, 0] == lv
            got = (apply_design(info, np.array([[lv]])) @ coef)[0]
            assert got == pytest.approx(t.response[mask].mean(), abs=1e-3)


@settings(max_examples=80, deadline=None)
@given(coding=st.sampled_from(["dummy", "numeric"]),
       levels=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-3, 7.5, 1e3]))
def test_distinct_row_fit_matches_per_record_fit(coding, levels, seed, scale):
    # every level combination repeated 1-5 times in shuffled order, some
    # combinations weighted zero, the distinct-row fit given rescaled weights
    rng = np.random.default_rng(seed)
    grid = np.array(list(itertools.product(*[range(L) for L in levels])), dtype=float)
    qi = np.repeat(grid, rng.integers(1, 6, size=len(grid)), axis=0)
    qi = qi[rng.permutation(len(qi))]
    rows, inverse = np.unique(qi, axis=0, return_inverse=True)
    row_w = np.where(rng.random(len(rows)) < 0.25, 0.0, rng.uniform(0.2, 3.0, len(rows)))
    w = row_w[inverse] * rng.uniform(0.5, 2.0, len(qi))
    y = rng.normal(size=len(qi)) + qi.sum(axis=1)
    X, _ = build_design(qi, coding)
    used = X[w > 0] * np.sqrt(w[w > 0])[:, None]
    assume(len(used) >= X.shape[1] and np.linalg.cond(used) < 1e6)

    want = weighted_least_squares(X, y, w)
    design, _ = build_design(rows, coding)
    got = distinct_row_least_squares(design, inverse, y, scale * w)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@settings(max_examples=150, deadline=None)
@given(coding=st.sampled_from(["dummy", "numeric"]),
       levels=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0),
       ridge=st.sampled_from([1e-8, 1e-10, 1e-2]))
def test_fit_solves_its_normal_equations(coding, levels, seed, share, ridge):
    # G distinct rows of a level grid, fewer than the p design columns (the
    # dual) or not (the primal), a fifth of them weighted zero and the rest
    # weighted from 1e-6 to 1e6; numeric rows scaled and jittered
    rng = np.random.default_rng(seed)
    grid = np.array(list(itertools.product(*[range(L) for L in levels])), dtype=float)
    if coding == "numeric":
        grid = grid * rng.choice([1.0, 1e-3, 7.5, 1e3]) + rng.choice([0, 0.1]) * rng.normal(
            size=grid.shape)
    rows = grid[rng.permutation(len(grid))[:1 + int(share * (len(grid) - 1))]]
    X, _ = build_design(rows, coding)
    w = np.where(rng.random(len(rows)) < 0.2, 0.0, 10.0 ** rng.uniform(-6, 6, len(rows)))
    assume(w.sum() > 0)
    y = rng.normal(size=len(rows)) + rows.sum(axis=1)
    # A and t as the fit forms them, and A's system with the ridge rows
    keep = w > 0
    sqw = np.sqrt((w * (len(w) / w.sum()))[keep])
    A, t = X[keep] * sqw[:, None], y[keep] * sqw
    p = X.shape[1]
    pen = np.r_[0.0, np.full(p - 1, ridge)]
    A_aug = np.vstack([A, np.sqrt(pen[1:])[:, None] * np.eye(p)[1:]])
    t_aug = np.r_[t, np.zeros(p - 1)]
    cond = np.linalg.cond(A_aug)
    try:
        b = weighted_least_squares(X, y, w, ridge)
    except DegenerateError:
        # Cholesky rejects only Gram matrices far past the compared range
        assert cond > 1e7
        return
    # the normal equations' residual, in np.longdouble's extra bits, is a
    # few rounding errors of the products that form it
    eps = np.finfo(float).eps
    Al, tl, bl = (v.astype(np.longdouble) for v in (A, t, b))
    resid = np.abs(Al.T @ (tl - Al @ bl) - pen * bl).max()
    norm_a = np.linalg.norm(A)
    assert resid <= 8 * eps * norm_a * (norm_a * np.linalg.norm(b) + np.linalg.norm(t))
    if cond < 1e8:
        # gelsd, an SVD solver, on the system with the ridge rows; both err
        # within the least squares perturbation bound
        want = np.linalg.lstsq(A_aug, t_aug, rcond=None)[0]
        r = np.linalg.norm(t_aug - A_aug @ want)
        bound = eps * cond * (np.linalg.norm(want) + cond * r / np.linalg.norm(A_aug, 2))
        assert np.linalg.norm(b - want) <= 64 * bound


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 2.0, 0.0]],   # G = p: the primal
    [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],                    # G < p: the dual, then the primal
])
def test_unliftable_gram_is_degenerate(rows):
    # with no ridge, a design with a zero column (and, on the dual side,
    # repeated rows) has Gram matrices that Cholesky rejects; that ends in
    # DegenerateError, which `experiment` turns into null fields, never in
    # numpy's LinAlgError
    X = np.array(rows)
    with pytest.raises(DegenerateError, match="not positive definite"):
        weighted_least_squares(X, np.arange(len(X), dtype=float), np.ones(len(X)), ridge=0.0)


def test_distinct_row_fit_checks_its_inputs():
    design, _ = build_design(np.array([[0.0], [1.0]]), "numeric")
    with pytest.raises(DomainError):
        distinct_row_least_squares(design, [0, 0, 1], np.zeros(3), [2.0, -1.0, 1.0])
    with pytest.raises(ShapeError):
        distinct_row_least_squares(design, [0, 1], np.zeros(3), np.ones(3))


class TestMetrics:
    def test_relative_bias(self):
        assert relative_bias([11.0, 11.0], [10.0, 10.0]) == pytest.approx(10.0)
        assert relative_bias([10.0], [10.0]) == 0.0
        with pytest.raises(DomainError):
            relative_bias([1.0, -1.0], [1.0, -1.0])
        with pytest.raises(ShapeError):
            relative_bias([1.0], [1.0, 2.0])

    def test_r_squared(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(y, y) == pytest.approx(1.0)
        assert r_squared(np.full(4, y.mean()), y) == pytest.approx(0.0)
        assert r_squared(-y, y) < 0
        with pytest.raises(DomainError):
            r_squared(y, np.ones(4))

    def test_histogram_intersection(self):
        p = {(0,): 0.5, (1,): 0.5}
        assert histogram_intersection(p, p) == pytest.approx(1.0)
        assert histogram_intersection(p, {(2,): 1.0}) == 0.0
        q = {(0,): 0.2, (1,): 0.8}
        assert histogram_intersection(p, q) == pytest.approx(0.7)

    def test_histogram_intersection_is_exactly_rounded_in_any_order(self):
        rng = np.random.default_rng(5)
        keys = [(float(i), float(i % 7)) for i in range(300)]
        p = dict(zip(keys, rng.dirichlet(np.ones(300)).tolist()))
        q = dict(zip(keys[100:] + [(-1.0, 0.0)], rng.dirichlet(np.ones(201)).tolist()))
        exact = sum(Fraction(min(p[v], q[v])) for v in keys[100:])
        want = histogram_intersection(p, q)
        assert want == float(exact)
        shuffled = [dict(reversed(p.items())), dict(reversed(q.items()))]
        for _ in range(3):
            for d in (p, q):
                items = list(d.items())
                shuffled.append(dict(items[i] for i in rng.permutation(len(items))))
        for a in (p, *shuffled[0::2]):
            for b in (q, *shuffled[1::2]):
                assert histogram_intersection(a, b) == want
                assert histogram_intersection(b, a) == want
