import itertools
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpkanon.dataset import build_empirical_joint, round_sig
from dpkanon.errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    ShapeError,
)
from dpkanon.shiftlearn import (
    TransferSpec,
    apply_design,
    build_design,
    distinct_row_least_squares,
    histogram_intersection,
    logistic_weights,
    nonparametric_weights,
    predict,
    r_squared,
    relative_bias,
    transfer_weights,
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


def reference_transfer_weights(spec: TransferSpec, t) -> np.ndarray:
    """The plug-in transfer weights with every PMF a dict of Counter tallies
    keyed by rounded value tuples, and one Python loop over the records. The
    mixture adds task by task from 0.0, as sum() of floats does before
    Python 3.12."""
    keys = lambda rows: [tuple(r) for r in round_sig(np.atleast_2d(np.asarray(rows, float)))]
    task_list = list(spec.priors)
    xy_keys = keys(np.column_stack([spec.x, spec.y]))
    x_keys = keys(spec.x)
    xy_pmf, x_pmf = {}, {}
    for tt in task_list:
        mask = spec.tasks == tt
        n_t = int(mask.sum())
        xy_pmf[tt] = {k: c / n_t
                      for k, c in Counter(k for k, m in zip(xy_keys, mask) if m).items()}
        x_pmf[tt] = {k: c / n_t
                     for k, c in Counter(k for k, m in zip(x_keys, mask) if m).items()}
    q_counter = Counter(keys(spec.targets[t]))
    q_total = sum(q_counter.values())
    q_pmf = {k: c / q_total for k, c in q_counter.items()}

    w = np.empty(len(spec.tasks))
    for i, (kxy, kx) in enumerate(zip(xy_keys, x_keys)):
        mix = 0.0
        for tt in task_list:
            mix += spec.priors[tt] * xy_pmf[tt].get(kxy, 0.0)
        p_t_x = x_pmf[t].get(kx, 0.0)
        if p_t_x == 0.0:
            w[i] = 0.0
        else:
            w[i] = (xy_pmf[t].get(kxy, 0.0) / mix) * (q_pmf.get(kx, 0.0) / p_t_x)
    return w


@st.composite
def transfer_specs(draw):
    # 1-4 distinct values, with signed zeros and pairs equal to 12
    # significant digits, so rows collide; targets may hold points that no
    # training row has, and user-given priors may name a task with no rows
    pool = draw(st.lists(st.sampled_from(
        [0.0, -0.0, 1.0, 1.0 + 1e-13, 2.5, -3.0, 1e-300, 7e5]), min_size=1, max_size=4))
    values = st.sampled_from(pool)
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 3))
    tasks = np.array(draw(st.lists(st.integers(0, n_tasks - 1), min_size=n, max_size=n)))
    x = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    targets = {}
    for tt in np.unique(tasks):
        m = draw(st.integers(0, 10))
        targets[tt] = np.array(draw(st.lists(values, min_size=m * d, max_size=m * d)),
                               dtype=float).reshape(m, d)
    priors = None
    if draw(st.booleans()):
        if draw(st.booleans()):
            targets[n_tasks] = targets[tasks[0]]
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(targets),
                            max_size=len(targets)))
        priors = {tt: p / sum(raw) for tt, p in zip(targets, raw)}
    return TransferSpec(tasks, x, y, targets, priors)


@settings(max_examples=400, deadline=None)
@given(spec=transfer_specs(), data=st.data())
def test_transfer_weights_equal_reference_bitwise(spec, data):
    t = data.draw(st.sampled_from(list(spec.priors)))
    got = transfer_weights(spec, t)
    want = reference_transfer_weights(spec, t)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTransferWeights:
    def test_single_task_matching_target_is_flat(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=(30, 2)).astype(float)
        y = rng.integers(0, 2, size=30).astype(float)
        spec = TransferSpec(np.zeros(30, dtype=int), x, y, targets={0: x})
        assert np.allclose(transfer_weights(spec, 0), 1.0)

    def test_two_tasks_nonnegative_and_task_selective(self):
        rng = np.random.default_rng(4)
        tasks = np.array([0] * 20 + [1] * 20)
        x = np.concatenate([rng.integers(0, 2, 20), rng.integers(1, 3, 20)])
        x = x.astype(float)[:, None]
        y = rng.integers(0, 2, 40).astype(float)
        spec = TransferSpec(tasks, x, y, targets={0: x[:20], 1: x[20:]})
        w = transfer_weights(spec, 0)
        assert np.all(w >= 0)
        assert np.all(w[np.ravel(x) == 2.0] == 0.0)

    def test_unknown_task(self):
        spec = TransferSpec(np.zeros(4, dtype=int), np.zeros((4, 1)),
                            np.zeros(4), targets={0: np.zeros((4, 1))})
        with pytest.raises(DomainError):
            transfer_weights(spec, 7)

    def test_task_without_target(self):
        spec = TransferSpec(np.array([0, 0, 1, 1]), np.zeros((4, 1)),
                            np.zeros(4), targets={0: np.zeros((4, 1))})
        with pytest.raises(DomainError, match="task 1 has no target"):
            transfer_weights(spec, 1)

    def test_target_width_mismatch(self):
        spec = TransferSpec(np.zeros(4, dtype=int), np.zeros((4, 1)),
                            np.zeros(4), targets={0: np.zeros((4, 2))})
        with pytest.raises(ShapeError):
            transfer_weights(spec, 0)

    def test_bad_priors(self):
        with pytest.raises(DomainError):
            TransferSpec(np.zeros(4, dtype=int), np.zeros((4, 1)), np.zeros(4),
                         targets={0: np.zeros((4, 1))}, priors={0: 0.5})

    def test_priors_missing_a_task(self):
        # task 1's record would divide by a zero mixture
        with pytest.raises(DomainError, match="task 1 has records but no prior"):
            TransferSpec(np.array([0, 0, 1]), np.array([[0.0], [1.0], [0.0]]),
                         np.array([0.0, 0.0, 5.0]), targets={0: np.zeros((2, 1))},
                         priors={0: 1.0})


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
        model = weighted_least_squares(X, y, np.ones(50), ridge=0.0, info=info)
        assert np.allclose(model.coef, [3.0, 2.0, -1.0], atol=1e-10)
        assert np.allclose(predict(model, qi), y, atol=1e-10)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(6)
        qi = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        w = rng.uniform(0.1, 2.0, size=40)
        X, info = build_design(qi, "numeric")
        a = weighted_least_squares(X, y, w, info=info)
        b = weighted_least_squares(X, y, 1000.0 * w, info=info)
        assert np.max(np.abs(a.coef - b.coef)) < 1e-10

    def test_weights_tilt_fit(self):
        # two interleaved point clouds; upweighting one pulls the intercept
        x = np.array([[0.0]] * 10 + [[0.0]] * 10)
        y = np.array([0.0] * 10 + [10.0] * 10)
        X, info = build_design(x, "numeric")
        w = np.array([1.0] * 10 + [9.0] * 10)
        model = weighted_least_squares(X, y, w, info=info)
        assert model.coef[0] == pytest.approx(9.0, abs=1e-6)

    def test_zero_weights_rejected(self):
        X, info = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(DegenerateError):
            weighted_least_squares(X, np.zeros(3), np.zeros(3), info=info)

    def test_negative_weights_rejected(self):
        X, info = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(DomainError):
            weighted_least_squares(X, np.zeros(3), np.array([1.0, -1.0, 1.0]),
                                   info=info)

    def test_length_mismatch(self):
        X, info = build_design(np.zeros((3, 1)), "numeric")
        with pytest.raises(ShapeError):
            weighted_least_squares(X, np.zeros(3), np.ones(4), info=info)

    def test_dummy_saturated_fit(self):
        # one coefficient per level reproduces per-level means
        t = synthetic_table(60, [3], dep=0.0, seed=7)
        X, info = build_design(t.qi, "dummy")
        model = weighted_least_squares(X, t.response, np.ones(t.n), info=info)
        for lv in (0.0, 1.0, 2.0):
            mask = t.qi[:, 0] == lv
            got = predict(model, np.array([[lv]]))[0]
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
    X, info = build_design(qi, coding)
    used = X[w > 0] * np.sqrt(w[w > 0])[:, None]
    assume(len(used) >= X.shape[1] and np.linalg.cond(used) < 1e6)

    want = weighted_least_squares(X, y, w, info=info).coef
    design, _ = build_design(rows, coding)
    got = distinct_row_least_squares(design, inverse, y, scale * w, info=info).coef
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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
