import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scipy.special import ndtr

from dpkanon import rosenblatt
from dpkanon.dataset import build_empirical_joint, standardize
from dpkanon.dither import _loaded_cholesky, sample_gaussian_batch
from dpkanon.errors import DomainError, ShapeError
from dpkanon.kmember import greedy_k_member
from dpkanon.pipeline import prepare, transform
from dpkanon.rosenblatt import (
    forward_gaussian,
    gaussian_release_indices,
    inverse_empirical_indices,
)
from dpkanon.synth import synthetic_table

from conftest import make_table


def block_rows(c):
    """Rows per block of the forward map over c clusters."""
    return max(rosenblatt._MIN_BLOCK, rosenblatt._BLOCK_CELLS // c)


def reference_forward(X, model, alpha, gemv=False):
    """Serial reference for forward_gaussian: every row at once, with the
    same arithmetic. With gemv=True, u[:, 0] is summed as the forward map
    once did, by a BLAS product with the prior over blocks of 32 rows."""
    L = _loaded_cholesky(model, alpha)
    diag = np.diagonal(L, axis1=1, axis2=2)
    prior = model.sizes / model.sizes.sum()
    u = np.empty(X.shape)
    z = []
    logpost = np.log(prior)
    for j in range(X.shape[1]):
        resid = X[:, None, j] - model.centroids[:, j]
        for k, zk in enumerate(z):
            resid -= zk * L[:, j, k]
        zj = resid / diag[:, j]
        z.append(zj)
        phi = ndtr(zj)
        if j == 0 and gemv:
            u[:, 0] = np.concatenate([phi[b:b + 32] @ prior for b in range(0, len(X), 32)])
        elif j == 0:
            u[:, 0] = np.einsum("nc,c->n", phi, prior)
        else:
            w = np.exp(logpost - logpost.max(axis=1, keepdims=True))
            u[:, j] = np.einsum("nc,nc->n", w, phi) / w.sum(axis=1)
        logpost = logpost - 0.5 * zj * zj - np.log(diag[:, j])
    return np.clip(u, np.finfo(float).tiny, 1.0)


def dither_samples(n, k, extra):
    """8 full blocks and `extra` rows of dither samples from a 3-d mixture of
    n / k clusters."""
    t = synthetic_table(n, [8, 6, 5], dep=0.4, seed=14)
    std, _ = standardize(t)
    model = greedy_k_member(std, k=k, seed=3)
    rng = np.random.default_rng(8)
    recs = rng.integers(0, t.n, size=8 * block_rows(len(model.sizes)) + extra)
    return sample_gaussian_batch(model, 1 / 3, recs, rng), model


@pytest.fixture(scope="module")
def dithered():
    """300 clusters, 42-row blocks."""
    return dither_samples(1500, 5, 19)


class TestConditionalMoments:
    """On one cluster, u_j is the normal CDF at x_j under the conditional
    mean and variance of the loaded covariance Sigma + alpha I."""

    @pytest.fixture
    def model(self):
        t = synthetic_table(40, [3, 3], dep=0.5, seed=12)
        std, _ = standardize(t)
        return greedy_k_member(std, k=40, seed=0)

    def test_first_dimension(self, model):
        alpha = 0.5
        lam = model.covariances[0] + alpha * np.eye(2)
        c = model.centroids[0]
        u = forward_gaussian(np.array([[0.7, -0.4]]), model, alpha)
        assert u[0, 0] == pytest.approx(ndtr((0.7 - c[0]) / np.sqrt(lam[0, 0])), abs=1e-12)

    def test_bivariate_closed_form(self, model):
        alpha = 0.5
        lam = model.covariances[0] + alpha * np.eye(2)
        c = model.centroids[0]
        x0, x1 = 0.7, -0.4
        mu = c[1] + lam[0, 1] / lam[0, 0] * (x0 - c[0])
        var = lam[1, 1] - lam[0, 1] ** 2 / lam[0, 0]
        u = forward_gaussian(np.array([[x0, x1]]), model, alpha)
        assert u[0, 1] == pytest.approx(ndtr((x1 - mu) / np.sqrt(var)), abs=1e-12)

    def test_alpha_domain(self):
        t = make_table([[0.0, 0.0], [1.0, 1.0]])
        model = greedy_k_member(t, k=2, seed=0)
        with pytest.raises(DomainError):
            forward_gaussian(np.zeros((1, 2)), model, -1.0)


class TestForwardGaussian:
    def test_single_cluster_matches_normal_cdf(self):
        t = make_table([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        model = greedy_k_member(t, k=4, seed=0)
        alpha = 1.0
        lam = model.covariances[0] + alpha * np.eye(2)
        x = np.array([[1.3, 0.2]])
        u = forward_gaussian(x, model, alpha)
        want0 = stats.norm.cdf(1.3, loc=1.0, scale=np.sqrt(lam[0, 0]))
        assert u[0, 0] == pytest.approx(want0, abs=1e-12)
        mu1 = 1.0 + lam[0, 1] / lam[0, 0] * (1.3 - 1.0)
        s1 = np.sqrt(lam[1, 1] - lam[0, 1] ** 2 / lam[0, 0])
        assert u[0, 1] == pytest.approx(stats.norm.cdf(0.2, mu1, s1), abs=1e-12)

    def test_uniformity_under_model(self):
        t = synthetic_table(60, [4, 3], dep=0.4, seed=13)
        std, _ = standardize(t)
        model = greedy_k_member(std, k=12, seed=2)
        alpha = 1 / 3
        rng = np.random.default_rng(5)
        recs = rng.integers(0, t.n, size=10_000)
        xt = sample_gaussian_batch(model, alpha, recs, rng)
        u = forward_gaussian(xt, model, alpha)
        for j in range(2):
            assert stats.kstest(u[:, j], "uniform").pvalue > 0.01

    def test_nonfinite_rejected(self):
        t = make_table([[0.0, 0.0], [1.0, 1.0]])
        model = greedy_k_member(t, k=2, seed=0)
        with pytest.raises(DomainError, match="row 1, dimension 0"):
            forward_gaussian(np.array([[0.0, 0.0], [np.nan, 0.0]]), model, 1.0)


class TestForwardGaussianBlocks:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_matches_serial_reference_whatever_the_cpu_count(self, dithered,
                                                             monkeypatch, cpus):
        # from one thread to more threads than cores, switching the GIL often
        # so that the threads interleave within blocks; the leading J columns
        # map to the reference's first J
        xt, model = dithered
        monkeypatch.setattr(rosenblatt, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            us = [forward_gaussian(xt[:, :width], model, 1 / 3) for width in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        ref = reference_forward(xt, model, 1 / 3)
        for width, u in enumerate(us, 1):
            assert u.tobytes() == ref[:, :width].tobytes()

    def test_near_the_blas_product(self, dithered):
        # The einsum and the BLAS product sum u[:, 0]'s c nonnegative terms
        # in different orders, each within c eps / 2 of the exact sum. They
        # differ by up to 19 ulp at c = 300; the other coordinates share
        # every operation.
        xt, model = dithered
        u = forward_gaussian(xt, model, 1 / 3)
        old = reference_forward(xt, model, 1 / 3, gemv=True)
        bound = len(model.sizes) * np.finfo(float).eps * old[:, 0]
        assert np.all(np.abs(u[:, 0] - old[:, 0]) <= bound)
        assert u[:, 1:].tobytes() == old[:, 1:].tobytes()

    @pytest.mark.parametrize("a, b", [(5, 37), (31, 95), (17, 241), (64, 192), (256, 275),
                                      (31, 33), (41, 43), (39, 125), (1, 354)])
    def test_row_slices_cross_block_edges(self, dithered, a, b):
        # a row's u does not depend on where the 42-row block edges fall,
        # whatever the leading width mapped
        xt, model = dithered
        for width in (1, 2, 3):
            u = forward_gaussian(xt[:, :width], model, 1 / 3)
            assert u[a:b].tobytes() == forward_gaussian(xt[a:b, :width], model, 1 / 3).tobytes()

    @pytest.mark.parametrize("n, k, rows", [(400, 5, 160), (2000, 5, 32)])
    def test_every_row_alone(self, n, k, rows):
        # c = 80 and c = 400: each row's u equals its u in a one-row call,
        # whatever the leading width mapped
        xt, model = dither_samples(n, k, 5)
        assert block_rows(len(model.sizes)) == rows
        for width in (1, 2, 3):
            x = xt[:, :width]
            u = forward_gaussian(x, model, 1 / 3)
            for i in range(len(x)):
                assert u[i].tobytes() == forward_gaussian(x[i:i + 1], model, 1 / 3)[0].tobytes()


class TestInverseEmpirical:
    def test_values_from_indices(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        idx = inverse_empirical_indices(np.array([[0.5, 0.9], [0.9, 0.5]]), joint)
        assert idx.tolist() == [[0, 1], [1, 0]]
        values = [joint.values[j][idx[:, j]].tolist() for j in range(2)]
        assert values == [[1.0, 2.0], [2.0, 1.0]]

    def test_zero_clamped_to_first_value(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        assert inverse_empirical_indices(np.array([[0.0, 0.0]]), joint).tolist() == [[0, 0]]

    def test_domain(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        with pytest.raises(DomainError, match="row 1, dimension 1"):
            inverse_empirical_indices(np.array([[0.5, 0.5], [0.5, 1.2]]), joint)
        with pytest.raises(DomainError, match="row 0, dimension 0"):
            inverse_empirical_indices(np.array([[np.nan, 0.5]]), joint)


def coded_table(kinds, n, shared, width, seed):
    """n rows whose column j is continuous ("c", two decimals) or ordinal
    ("o", three codes). `shared` rows copy the leading `width` columns of
    row 0, so a prefix deep in the trie has many next values."""
    rng = np.random.default_rng(seed)
    qi = np.column_stack([np.round(rng.standard_normal(n), 2) if kind == "c"
                          else rng.integers(0, 3, n).astype(float) for kind in kinds])
    qi[rng.choice(np.arange(1, n), size=shared, replace=False), :width] = qi[0, :width]
    return make_table(qi)


def brute_width(joint):
    """_mapped_width from the keys alone: the J in 1..d of least
    J + d * share_J, the wider on ties."""
    keys, d = joint.keys.tolist(), joint.d
    nexts = {}
    for key in keys:
        for j in range(d):
            nexts.setdefault(tuple(key[:j]), set()).add(key[j])

    def cost(width):
        share = sum(int(c) for key, c in zip(keys, joint.counts)
                    if any(len(nexts[tuple(key[:j])]) > 1 for j in range(width, d)))
        return width + d * share / joint.total

    return min(range(d, 0, -1), key=cost)


@st.composite
def coded_cases(draw):
    kinds = draw(st.lists(st.sampled_from("co"), min_size=1, max_size=4))
    k = draw(st.sampled_from((2, 3, 10)))
    n = draw(st.integers(max(k, 4), 40))
    width = draw(st.integers(1, max(1, len(kinds) - 1)))
    shared = draw(st.integers(0, n - 1))
    return coded_table(kinds, n, shared, width, draw(st.integers(0, 2**16))), k


class TestLeadingColumns:
    @settings(max_examples=80, deadline=None)
    @given(case=coded_cases(), seed=st.integers(0, 2**16))
    def test_any_width_gives_the_full_path(self, case, seed):
        table, k = case
        state = prepare(table, k, seed=0)
        model, joint, d = state.model, state.joint, table.d
        assert rosenblatt._mapped_width(joint) == brute_width(joint)
        recs = np.tile(np.arange(table.n), 3)
        xt = sample_gaussian_batch(model, 1 / 3, recs, np.random.default_rng(seed))
        full = forward_gaussian(xt, model, 1 / 3)
        want = inverse_empirical_indices(full, joint)
        for width in range(1, d + 1):
            lead = forward_gaussian(xt[:, :width], model, 1 / 3)
            assert lead.tobytes() == full[:, :width].tobytes()
            # a walk without u_j for j >= width is -1 from the first level
            # whose table has more than one entry on, and the full walk before
            part = inverse_empirical_indices(lead, joint)
            unread = part == -1
            assert not unread[:, :width].any()
            assert np.array_equal(unread, np.logical_or.accumulate(unread, axis=1))
            assert np.array_equal(part[~unread], want[~unread])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rosenblatt, "_mapped_width", lambda joint: width)
                got = gaussian_release_indices(xt, model, 1 / 3, joint)
            assert got.tobytes() == want.tobytes()

    def test_shared_deep_prefix_flags_rows(self):
        # 30 of 40 continuous rows share their first two values: a walk that
        # reaches that prefix needs u_2, and only those rows are flagged
        table = coded_table("ccc", 40, 29, 2, 5)
        state = prepare(table, 3, seed=0)
        assert rosenblatt._mapped_width(state.joint) == 3
        xt = sample_gaussian_batch(state.model, 1 / 3, np.arange(40),
                                   np.random.default_rng(1))
        part = inverse_empirical_indices(forward_gaussian(xt[:, :2], state.model, 1 / 3),
                                         state.joint)
        flagged = part[:, 2] == -1
        assert 0 < flagged.sum() < 40
        shared = state.joint.keys[state.joint.inverse[0], :2]
        assert (part[flagged, :2] == shared).all()

    def test_bad_width_rejected(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        with pytest.raises(ShapeError, match=r"expected an \(N, 2\) array"):
            inverse_empirical_indices(np.zeros((1, 0)), joint)


def workload_table(kind: str, seed: int = 1):
    """The benchmark's n = 4000 `release-continuous` or `release-ordinal`
    table, drawn as its generator draws it."""
    n = 4000
    rng = np.random.default_rng([seed, 0x6470])
    if kind == "ordinal":
        shared = rng.random(n)
        qi = np.empty((n, 3))
        for j, levels in enumerate((10, 8, 6)):
            fresh = rng.random(n)
            qi[:, j] = np.floor(np.where(rng.random(n) < 0.3, shared, fresh) * levels)
    else:
        corr = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
        qi = np.round(rng.standard_normal((n, 3)) @ np.linalg.cholesky(corr).T, 3)
    return make_table(qi)


@pytest.mark.parametrize("kind, width", [("continuous", 2), ("ordinal", 3)])
def test_gaussian_release_maps_only_the_columns_the_walk_reads(monkeypatch, kind, width):
    # continuous keys part after two columns, so every row maps two and only
    # the rows the walk flags map all three; ordinal prefixes all branch, so
    # one three-column map runs
    maps, flagged = [], []
    forward, inverse = rosenblatt.forward_gaussian, rosenblatt.inverse_empirical_indices

    def counted_forward(xt, model, alpha):
        maps.append(np.shape(xt))
        return forward(xt, model, alpha)

    def counted_inverse(u, joint):
        out = inverse(u, joint)
        flagged.append(int((out[:, -1] < 0).sum()))
        return out

    monkeypatch.setattr(rosenblatt, "forward_gaussian", counted_forward)
    monkeypatch.setattr(rosenblatt, "inverse_empirical_indices", counted_inverse)
    transform(prepare(workload_table(kind), 10, seed=0), "gaussian")
    assert maps[0] == (4000, width)
    assert maps[1:] == ([(flagged[0], 3)] if flagged[0] else [])
    assert flagged[0] < 40
