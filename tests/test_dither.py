import numpy as np
import pytest

from dpkanon.dataset import standardize
from dpkanon.dither import sample_gaussian_batch
from dpkanon.errors import DegenerateError, DomainError
from dpkanon.kmember import greedy_k_member
from dpkanon.synth import synthetic_table

from conftest import cluster_members, make_table


@pytest.fixture(scope="module")
def gaussian_model():
    t = synthetic_table(60, [4, 3], dep=0.4, seed=7)
    std, _ = standardize(t)
    return greedy_k_member(std, k=20, seed=0)


class TestSampleGaussian:
    @pytest.fixture
    def model(self, gaussian_model):
        return gaussian_model

    def test_moments(self, model):
        alpha = 1 / 3
        n_draws = 100_000
        rng = np.random.default_rng(3)
        record = cluster_members(model)[0][0]
        draws = sample_gaussian_batch(model, alpha, np.full(n_draws, record), rng)
        ell = model.assignment[record]
        lam = model.covariances[ell] + alpha * np.eye(2)
        sd = np.sqrt(np.diag(lam))
        assert np.all(
            np.abs(draws.mean(axis=0) - model.centroids[ell])
            < 4 * sd / np.sqrt(n_draws)
        )
        emp_cov = np.cov(draws.T, ddof=0)
        rel = np.linalg.norm(emp_cov - lam) / np.linalg.norm(lam)
        assert rel < 0.05

    def test_degenerate_cluster_gets_identity(self):
        t = make_table([[2.0, 3.0]] * 4, y=[0, 0, 0, 0])
        model = greedy_k_member(t, k=4, seed=0)
        assert np.allclose(model.covariances[0], 0)
        rng = np.random.default_rng(4)
        draws = sample_gaussian_batch(model, 1.0, np.zeros(50_000, dtype=int), rng)
        emp_cov = np.cov(draws.T, ddof=0)
        assert np.linalg.norm(emp_cov - np.eye(2)) / np.sqrt(2) < 0.05
        assert np.all(np.abs(draws.mean(axis=0) - [2.0, 3.0]) < 0.02)

    def test_alpha_domain(self, model):
        rng = np.random.default_rng(5)
        with pytest.raises(DomainError):
            sample_gaussian_batch(model, 0.0, [0], rng)

    def test_singular_loading_names_cluster_and_dimension(self):
        # the second coordinate is constant, so alpha alone carries its
        # conditional variance
        t = make_table([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        model = greedy_k_member(t, k=4, seed=0)
        with pytest.raises(DegenerateError, match="cluster 0, dimension 1"):
            sample_gaussian_batch(model, 1e-12, [0], np.random.default_rng(6))

    def test_loaded_covariance_eigenvalues(self, model):
        alpha = 1 / 3
        for ell in range(model.c):
            lam = model.covariances[ell] + alpha * np.eye(2)
            assert np.linalg.eigvalsh(lam).min() >= alpha - 1e-12
