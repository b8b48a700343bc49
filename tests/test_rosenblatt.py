import sys

import numpy as np
import pytest
from scipy import stats

from scipy.special import ndtr

from dpkanon import rosenblatt
from dpkanon.dataset import build_empirical_joint, standardize
from dpkanon.dither import _loaded_cholesky, sample_gaussian_batch
from dpkanon.errors import DomainError
from dpkanon.kmember import greedy_k_member
from dpkanon.rosenblatt import forward_gaussian, inverse_empirical_indices
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
        # so that the threads interleave within blocks
        xt, model = dithered
        monkeypatch.setattr(rosenblatt, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            u = forward_gaussian(xt, model, 1 / 3)
        finally:
            sys.setswitchinterval(interval)
        assert u.tobytes() == reference_forward(xt, model, 1 / 3).tobytes()

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
        # a row's u does not depend on where the 42-row block edges fall
        xt, model = dithered
        u = forward_gaussian(xt, model, 1 / 3)
        assert u[a:b].tobytes() == forward_gaussian(xt[a:b], model, 1 / 3).tobytes()

    @pytest.mark.parametrize("n, k, rows", [(400, 5, 160), (2000, 5, 32)])
    def test_every_row_alone(self, n, k, rows):
        # c = 80 and c = 400: each row's u equals its u in a one-row call
        xt, model = dither_samples(n, k, 5)
        assert block_rows(len(model.sizes)) == rows
        u = forward_gaussian(xt, model, 1 / 3)
        for i in range(len(xt)):
            assert u[i].tobytes() == forward_gaussian(xt[i:i + 1], model, 1 / 3)[0].tobytes()


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
