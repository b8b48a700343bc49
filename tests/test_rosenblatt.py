import numpy as np
import pytest
from scipy import stats

from dpkanon.dataset import build_empirical_joint, standardize
from dpkanon.dither import sample_gaussian_batch
from dpkanon.errors import DomainError
from dpkanon.kmember import greedy_k_member
from dpkanon.rosenblatt import (
    conditional_moments,
    forward_gaussian,
    inverse_empirical,
    inverse_empirical_indices,
)
from dpkanon.synth import synthetic_table

from conftest import make_table


class TestConditionalMoments:
    def test_first_dimension(self):
        t = synthetic_table(40, [3, 3], dep=0.5, seed=12)
        std, _ = standardize(t)
        model = greedy_k_member(std, k=10, seed=0)
        alpha = 0.5
        lam = model.covariances[0] + alpha * np.eye(2)
        mu, var = conditional_moments(model, alpha, 0, 0, [])
        assert mu == pytest.approx(model.centroids[0, 0])
        assert var == pytest.approx(lam[0, 0])

    def test_bivariate_closed_form(self):
        t = synthetic_table(40, [3, 3], dep=0.5, seed=12)
        std, _ = standardize(t)
        model = greedy_k_member(std, k=10, seed=0)
        alpha = 0.5
        lam = model.covariances[1] + alpha * np.eye(2)
        c = model.centroids[1]
        x0 = 0.7
        mu, var = conditional_moments(model, alpha, 1, 1, [x0])
        assert mu == pytest.approx(c[1] + lam[0, 1] / lam[0, 0] * (x0 - c[0]))
        assert var == pytest.approx(lam[1, 1] - lam[0, 1] ** 2 / lam[0, 0])

    def test_alpha_domain(self):
        t = make_table([[0.0, 0.0], [1.0, 1.0]])
        model = greedy_k_member(t, k=2, seed=0)
        with pytest.raises(DomainError):
            conditional_moments(model, -1.0, 0, 0, [])


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


class TestInverseEmpirical:
    def test_values_from_indices(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        assert inverse_empirical(np.array([[0.5, 0.9]]), joint).tolist() == [[1.0, 2.0]]
        assert inverse_empirical_indices(np.array([[0.9, 0.5]]), joint).tolist() == [[1, 0]]

    def test_zero_clamped_to_first_value(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        assert inverse_empirical(np.array([[0.0, 0.0]]), joint).tolist() == [[1.0, 1.0]]

    def test_domain(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        with pytest.raises(DomainError, match="row 1, dimension 1"):
            inverse_empirical(np.array([[0.5, 0.5], [0.5, 1.2]]), joint)
        with pytest.raises(DomainError, match="row 0, dimension 0"):
            inverse_empirical(np.array([[np.nan, 0.5]]), joint)
