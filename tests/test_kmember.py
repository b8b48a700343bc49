import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon import kmember
from dpkanon.dataset import standardize
from dpkanon.errors import DomainError, InfeasibleError
from dpkanon.kmember import (
    _sq_dist,
    _summarize,
    greedy_k_member,
    total_distortion,
    validate_k_anonymous,
)

from conftest import cluster_members, make_table


def reference_assignment(table, k, w, seed):
    """The greedy k-member loop with a full scan over all n records for every
    seed and every addition: the reference the candidate pool must match.
    Records are the columns of Z = [x, sqrt(w) y], and a squared distance
    adds the coordinates' squares in row order."""
    n = table.n
    Z = np.vstack([table.qi.T, np.sqrt(w) * table.response])
    c = n // k
    assignment = np.full(n, -1, dtype=int)
    unassigned = np.ones(n, dtype=bool)
    rng = np.random.default_rng(seed)

    def dist_to(P, cz):
        d2 = np.zeros(P.shape[1])
        for row, cr in zip(P, cz):
            d2 += (row - cr) ** 2
        return d2

    prev_centroid = None
    for ell in range(c):
        if ell == 0:
            candidates = np.flatnonzero(unassigned)
            seed_idx = int(candidates[rng.integers(len(candidates))])
        else:
            d2 = dist_to(Z, prev_centroid)
            d2[~unassigned] = -np.inf
            seed_idx = int(np.argmax(d2))
        assignment[seed_idx] = ell
        unassigned[seed_idx] = False
        cz = Z[:, seed_idx].copy()
        size = 1
        while size < k:
            d2 = dist_to(Z, cz)
            d2[~unassigned] = np.inf
            add = int(np.argmin(d2))
            assignment[add] = ell
            unassigned[add] = False
            size += 1
            cz = cz + (Z[:, add] - cz) / size
        prev_centroid = cz

    if unassigned.any():
        cents = np.column_stack([
            np.take(Z, np.flatnonzero(assignment == ell), axis=1).mean(axis=1)
            for ell in range(c)])
        for i in np.flatnonzero(unassigned):
            assignment[i] = int(np.argmin(dist_to(cents, Z[:, i])))
    return assignment


@st.composite
def clustering_cases(draw):
    """Tables for the pool-vs-reference property: ordinal grids with many
    repeated rows (a level count of 1 is a constant column) or continuous
    values on a coarse or fine grid, d in {1, 2, 3}. Small k keeps n well
    above the pool size, where the bound decides."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 200))
    k = draw(st.one_of(st.integers(2, min(n, 4)), st.integers(2, n), st.just(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
        qi = np.column_stack([rng.integers(0, L, n) for L in levels]).astype(float)
        y = rng.integers(0, 3, n).astype(float)
    else:
        decimals = draw(st.sampled_from([0, 2]))
        qi = np.round(rng.normal(size=(n, d)), decimals)
        y = np.round(rng.normal(size=n), decimals)
    w = draw(st.sampled_from([0.3, 1.0, 5.0]))
    return make_table(qi, y), k, w, draw(st.integers(0, 99))


class TestGreedyKMember:
    @settings(max_examples=300, deadline=None)
    @given(case=clustering_cases())
    def test_matches_full_scan_reference(self, case):
        table, k, w, seed = case
        model = greedy_k_member(table, k, w=w, seed=seed)
        assert np.array_equal(model.assignment, reference_assignment(table, k, w, seed))

    def test_matches_full_scan_reference_on_repeated_rows(self):
        # 40 copies of each of 4 rows: more copies of a row than a k = 2
        # pool holds, so pool rows tie with rows left out of it
        qi = np.repeat(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [3.0, 3.0]]), 40, axis=0)
        t = make_table(np.random.default_rng(0).permutation(qi))
        for k in (2, 3, 7):
            model = greedy_k_member(t, k, seed=3)
            assert np.array_equal(model.assignment, reference_assignment(t, k, 1.0, 3))

    def test_pool_bound_counts_centroid_drift(self):
        # k = 3: the seed s pools the 12 nearest other rows, a, p and ten
        # fillers, and z is the nearest row left out, at r = 0.95. Once a
        # joins, the centroid (0.35, 0) is 0.600 from z but 0.618 from p, the
        # pool's best, so only a bound that adds the drift 0.35 lets z win.
        s, a, p, z = [0.0, 0.0], [0.7, 0.0], [0.5, 0.6], [0.95, 0.0]
        rows = [a, p] + [[-0.9, 0.0]] * 10 + [z] + [[-5.0, 0.0]] * 3
        first = int(np.random.default_rng(0).integers(len(rows) + 1))
        rows.insert(first, s)  # where the first random seed lands
        t = make_table(rows)
        model = greedy_k_member(t, k=3, seed=0)
        assert cluster_members(model)[0].tolist() == sorted(
            [first, rows.index(a), rows.index(z)])
        assert np.array_equal(model.assignment, reference_assignment(t, 3, 1.0, 0))

    def test_fallback_row_leaves_the_pool(self):
        # on these tables a fallback scan adds a row that the pool also
        # holds; a pool that kept offering it would add it twice
        for seed, k in ((261, 4), (555, 7), (1837, 7)):
            t = make_table(np.round(np.random.default_rng(seed).normal(size=(80, 2)), 1))
            model = greedy_k_member(t, k=k, seed=0)
            assert np.array_equal(model.assignment, reference_assignment(t, k, 1.0, 0))

    def test_matches_full_scan_reference_below_normal_range(self):
        # squared distances near 1e-324 are subnormal and keep only a few
        # digits, so such a pool radius cannot bound anything
        rng = np.random.default_rng(12)
        for _ in range(5):
            t = make_table(np.round(rng.normal(size=(100, 2)), 1) * 1e-162)
            model = greedy_k_member(t, k=3, seed=0)
            assert np.array_equal(model.assignment, reference_assignment(t, 3, 1.0, 0))

    def test_nonfinite_value_rejected(self):
        t = make_table([[0.0], [np.nan], [1.0], [2.0]])
        with pytest.raises(DomainError, match="record 1, column 0"):
            greedy_k_member(t, k=2)

    def test_overflowing_range_rejected(self):
        t = make_table([[0.0], [1e200], [1.0], [2.0]])
        with pytest.raises(DomainError, match="overflow"):
            greedy_k_member(t, k=2)
        # the points [x, sqrt(w) y] must be finite: here sqrt(w) y is inf,
        # though w (y - cy)^2 would be 0
        t = make_table([[0.0], [1.0], [2.0], [3.0]], y=[1e300] * 4)
        with pytest.raises(DomainError, match="overflow"):
            greedy_k_member(t, k=2, w=1e20)

    def test_separated_pairs(self):
        t = make_table([[0.0], [1.0], [10.0], [11.0]])
        model = greedy_k_member(t, k=2, w=1.0, seed=0)
        groups = {frozenset(m.tolist()) for m in cluster_members(model)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_k_equals_n(self):
        t = make_table([[0.0], [1.0], [5.0]], y=[1, 2, 3])
        model = greedy_k_member(t, k=3, seed=0)
        assert model.c == 1
        assert np.allclose(model.centroids[0], t.qi.mean(axis=0))
        assert np.isclose(model.centroids_y[0], t.response.mean())

    def test_leftover_absorbed(self):
        t = make_table([[float(i)] for i in range(5)])
        model = greedy_k_member(t, k=2, seed=1)
        assert model.c == 2
        assert sorted(model.sizes.tolist()) == [2, 3]

    def test_errors(self):
        t = make_table([[0.0], [1.0]])
        with pytest.raises(InfeasibleError):
            greedy_k_member(t, k=3)
        with pytest.raises(DomainError):
            greedy_k_member(t, k=1)
        with pytest.raises(DomainError, match="distortion weight"):
            greedy_k_member(t, k=2, w=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        t = make_table(rng.normal(size=(30, 2)), y=rng.normal(size=30))
        m1 = greedy_k_member(t, k=4, w=2.0, seed=42)
        m2 = greedy_k_member(t, k=4, w=2.0, seed=42)
        assert np.array_equal(m1.assignment, m2.assignment)

    def test_always_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(2, n + 1))
            t = make_table(rng.normal(size=(n, 2)), y=rng.normal(size=n))
            model = greedy_k_member(t, k=k, seed=int(rng.integers(1000)))
            ok, violations = validate_k_anonymous(model)
            assert ok, violations

    def test_centroid_is_member_mean(self):
        rng = np.random.default_rng(7)
        t = make_table(rng.normal(size=(20, 3)), y=rng.normal(size=20))
        model = greedy_k_member(t, k=3, seed=0)
        for ell, idx in enumerate(cluster_members(model)):
            assert np.allclose(model.centroids[ell], t.qi[idx].mean(axis=0))


def reference_summaries(table, assignment, c):
    """The per-cluster loop: each cluster's rows, their mean over axis 0,
    and the population covariance as one einsum over the cluster's rows.
    Also a bound on how far any order of adding a covariance's m products
    can move it: two orders each lie within m eps times the sum of the
    products' magnitudes of the exact sum, and stay apart by twice that."""
    d = table.d
    cents, cents_y, covs = np.empty((c, d)), np.empty(c), np.empty((c, d, d))
    bounds = np.empty((c, d, d))
    for ell in range(c):
        idx = np.flatnonzero(assignment == ell)
        rows = table.qi[idx]
        cents[ell] = rows.mean(axis=0)
        cents_y[ell] = table.response[idx].mean()
        centered = rows - cents[ell]
        m = len(idx)
        covs[ell] = np.einsum("mi,mj->ij", centered, centered) / m
        mag = np.abs(centered)
        bounds[ell] = 2 * m * np.finfo(float).eps * np.einsum("mi,mj->ij", mag, mag) / m
    return cents, cents_y, covs, bounds


@st.composite
def cluster_assignments(draw):
    """Tables cut into clusters of k to 2k - 1 records in random order, d in
    {1, 2, 3, 5}: sizes from 2 to past numpy's 128-value pairwise block,
    signed zeros and repeated values."""
    k = draw(st.integers(2, 80))
    sizes = draw(st.lists(st.integers(k, 2 * k - 1), min_size=1, max_size=12))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = len(assignment)
    qi = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 6, d)
    if draw(st.booleans()):
        qi = np.round(qi, 1)
    qi[:, 0] = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])), -0.0, qi[:, 0])
    return make_table(qi, rng.normal(size=n)), assignment, k


class TestSummaries:
    @staticmethod
    def assert_match(model, table):
        cents, cents_y, covs, bounds = reference_summaries(table, model.assignment, model.c)
        assert np.array_equal(model.centroids.view(np.int64), cents.view(np.int64))
        assert np.array_equal(model.centroids_y.view(np.int64), cents_y.view(np.int64))
        # the stacked einsum may add a cluster's products in another order
        # than the per-cluster one, so the covariances agree to the bound
        assert np.all(np.abs(model.covariances - covs) <= bounds)
        assert [m.tolist() for m in cluster_members(model)] == [
            np.flatnonzero(model.assignment == ell).tolist() for ell in range(model.c)]

    @settings(max_examples=200, deadline=None)
    @given(case=cluster_assignments())
    def test_match_per_cluster_reference(self, case):
        table, assignment, k = case
        self.assert_match(_summarize(table, assignment, assignment.max() + 1, k, 1.0), table)

    @settings(max_examples=100, deadline=None)
    @given(case=clustering_cases())
    def test_match_per_cluster_reference_after_clustering(self, case):
        table, k, w, seed = case
        self.assert_match(greedy_k_member(table, k, w=w, seed=seed), table)


class TestDistance:
    def test_one_column_equals_many_column_call(self):
        # a column's distance does not depend on how many columns are scored
        # with it: the rows are added in row order, for a single column too,
        # where a numpy reduction over the rows would add pairwise
        rng = np.random.default_rng(13)
        for rows in range(1, 13):
            P = rng.normal(size=(rows, 64)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
            c = rng.normal(size=rows).tolist()
            col = np.array(c)[:, None]
            many = _sq_dist(P, col)
            for j in range(P.shape[1]):
                assert _sq_dist(P[:, j:j + 1], col)[0] == many[j]
                total = 0.0
                for r in range(rows):
                    diff = float(P[r, j]) - c[r]
                    total += diff * diff
                assert total == many[j]
            # the in-place form, at every width of a pool buffer up to 4k
            # (k = 16) and with taken (+inf) columns, has the same bits
            P[0, 2::5] = np.inf
            many = _sq_dist(P, col)
            work = np.empty((rows, 64))
            for m in range(1, 65):
                inplace = _sq_dist(P[:, :m], col, out=work[:, :m])
                assert np.array_equal(inplace.view(np.int64), many[:m].view(np.int64))

    @pytest.mark.parametrize("k", [2, 3, 7, 10])
    def test_first_addition_makes_no_pool_scan(self, monkeypatch, k):
        # the first addition is the argmin of the rank scan that built the
        # pool, so each cluster makes at most k - 2 pool scans. A cluster's
        # full scans (seed, rank, fallback) span its free records, whose
        # count differs from cluster to cluster and keys its pool scans.
        scans, free = Counter(), [0]

        def counting(P, c, out=None):
            if out is None:
                free[0] = P.shape[1]
            else:
                scans[free[0]] += 1
            return _sq_dist(P, c, out=out)

        rng = np.random.default_rng(k)
        ordinal = rng.integers(0, 4, (300, 2)).astype(float)
        for qi in (ordinal, np.round(rng.normal(size=(300, 3)), 2)):
            t = make_table(qi, y=rng.normal(size=300))
            monkeypatch.setattr(kmember, "_sq_dist", counting)
            scans.clear()
            model = greedy_k_member(t, k, seed=1)
            monkeypatch.undo()
            assert max(scans.values(), default=0) <= k - 2
            assert sum(scans.values()) == (300 // k) * (k - 2)
            assert np.array_equal(model.assignment, reference_assignment(t, k, 1.0, 1))

    # at k = 3, the 96 of 100 clusters seeded with more than 4k = 12 free
    # records; the last 4 take the whole free set as their pool
    @pytest.mark.parametrize("k, partitions", [(2, 0), (3, 96)])
    def test_pool_built_only_above_k_two(self, monkeypatch, k, partitions):
        # at k = 2 a cluster's only addition is the rank scan's argmin, so
        # no pool is partitioned out of the rank scan
        calls = [0]
        argpartition = np.argpartition

        def counted(*args, **kwargs):
            calls[0] += 1
            return argpartition(*args, **kwargs)

        rng = np.random.default_rng(k)
        ordinal = rng.integers(0, 4, (300, 2)).astype(float)
        for qi in (ordinal, np.round(rng.normal(size=(300, 3)), 2)):
            t = make_table(qi, y=rng.normal(size=300))
            calls[0] = 0
            monkeypatch.setattr(np, "argpartition", counted)
            model = greedy_k_member(t, k, seed=1)
            monkeypatch.undo()
            assert calls[0] == partitions
            assert np.array_equal(model.assignment, reference_assignment(t, k, 1.0, 1))

    def test_close_to_the_weighted_form(self):
        # with Z = [x, sqrt(w) y] the distance is |x - cx|^2 + w (y - cy)^2
        # up to rounding: within 4 (d + 1) ulp of that value, plus the
        # rounding of sqrt(w) y and sqrt(w) cy, which is none where sqrt(w)
        # is exact
        eps = np.finfo(float).eps
        rng = np.random.default_rng(14)
        for d in (1, 2, 3, 5, 11):
            X = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-3, 4, d)
            y = rng.normal(size=500)
            for w in (0.25, 0.3, 1.0, 5.0):
                Z = np.vstack([X.T, np.sqrt(w) * y])
                for _ in range(10):
                    idx = rng.choice(500, 10, replace=False)
                    cx, cy = X[idx].mean(axis=0), y[idx].mean()
                    diff = X - cx
                    old = np.einsum("ij,ij->i", diff, diff) + w * (y - cy) ** 2
                    new = _sq_dist(Z, np.array([*cx, np.sqrt(w) * cy])[:, None])
                    slack = (0.0 if np.sqrt(w) ** 2 == w
                             else w * np.abs(y - cy) * (np.abs(y) + abs(cy)))
                    assert np.all(np.abs(new - old) <= 4 * (d + 1) * eps * (old + slack))

    def test_assignment_digest_unchanged(self):
        # two standardized 4000-row tables, as the pipeline clusters them;
        # the digests were taken with the previous row-major einsum distance
        rng = np.random.default_rng(20261018)
        n = 4000
        ordinal = np.column_stack([rng.integers(0, L, n) for L in (10, 8, 6)]).astype(float)
        continuous = np.round(rng.normal(size=(n, 3)), 3)
        digests = []
        for qi in (ordinal, continuous):
            y = np.round(qi.sum(axis=1) + rng.normal(size=n), 3)
            table, _ = standardize(make_table(qi, y))
            model = greedy_k_member(table, k=10, w=1.0, seed=0)
            digests.append(hashlib.sha256(model.assignment.astype("<i8").tobytes()).hexdigest())
        assert digests == [
            "98f738460c6bc53206251e52f3cde172dea828b49a1b987dd4085f1a1c19803a",
            "afc275b302145efac4a05d953b50501659efb1ef54f233854d83925f8fa9b3c0",
        ]


class TestValidate:
    def test_solver_output_valid(self):
        rng = np.random.default_rng(8)
        t = make_table(rng.normal(size=(15, 2)), y=rng.normal(size=15))
        ok, _ = validate_k_anonymous(greedy_k_member(t, k=4, seed=0))
        assert ok

    def test_undersized_cluster_reported(self):
        rng = np.random.default_rng(9)
        t = make_table(rng.normal(size=(10, 2)), y=rng.normal(size=10))
        model = greedy_k_member(t, k=5, seed=0)
        moved = model.assignment.copy()
        moved[cluster_members(model)[0][-1]] = 1
        ok, violations = validate_k_anonymous(dataclasses.replace(model, assignment=moved))
        assert not ok
        assert violations == ["clusters [0] have [4] members, fewer than k=5"]

    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_record_outside_every_cluster_reported(self, label):
        # -1 is an unassigned record; 2 and 7 name no cluster of the two
        rng = np.random.default_rng(10)
        t = make_table(rng.normal(size=(12, 2)), y=rng.normal(size=12))
        model = greedy_k_member(t, k=6, seed=0)
        record = cluster_members(model)[1][0]
        bad = model.assignment.copy()
        bad[record] = label
        ok, violations = validate_k_anonymous(dataclasses.replace(model, assignment=bad))
        assert not ok
        assert violations == [f"records [{record}] are in no cluster 0..1",
                              "clusters [1] have [5] members, fewer than k=6"]


class TestTotalDistortion:
    def test_zero_when_at_centroids(self):
        t = make_table([[1.0], [1.0], [4.0], [4.0]])
        model = greedy_k_member(t, k=2, seed=0)
        assert total_distortion(model, t) == pytest.approx(0.0)

    def test_pairs_value(self):
        t = make_table([[0.0], [1.0], [10.0], [11.0]])
        model = greedy_k_member(t, k=2, seed=0)
        assert total_distortion(model, t) == pytest.approx(1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        t = make_table(rng.normal(size=(12, 2)), y=rng.normal(size=12))
        model = greedy_k_member(t, k=3, seed=0)
        assert total_distortion(model, t) >= 0.0
