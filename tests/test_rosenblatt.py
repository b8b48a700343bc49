import numpy as np
import pytest
from scipy import stats

from dpkanon.dataset import build_empirical_joint, standardize
from dpkanon.dither import (
    build_cell_partition,
    merge_cells_1d,
    sample_gaussian_batch,
    sample_intra_cluster,
    substream,
)
from dpkanon.errors import DomainError, PartitionError
from dpkanon.kmember import greedy_k_member
from dpkanon.rosenblatt import (
    conditional_moments,
    forward_cell_uniform,
    forward_gaussian,
    inverse_empirical,
    inverse_empirical_indices,
)
from dpkanon.synth import synthetic_table

from conftest import make_table


def fitted(t, k, seed=0):
    joint = build_empirical_joint(t.qi)
    model = greedy_k_member(t, k=k, seed=seed)
    part = build_cell_partition(joint, model)
    return joint, model, part


class TestForwardCellUniform:
    def test_cell_mass_bracketing(self):
        # one cluster over values {0 (x2), 1}: u lands inside the cell's
        # cumulative probability bracket
        t = make_table([[0.0], [0.0], [1.0]])
        joint, model, part = fitted(t, k=3)
        x = np.array([[-0.2], [0.3], [0.9]])
        u = forward_cell_uniform(x, part, joint)
        for (lo, hi), ur in zip([(0.0, 2 / 3), (0.0, 2 / 3), (2 / 3, 1.0)], u[:, 0]):
            assert lo < ur <= hi + 1e-12

    def test_round_trip_exact(self):
        t = synthetic_table(60, [4, 3], dep=0.3, seed=11)
        std, _ = standardize(t)
        joint, model, part = fitted(std, k=5, seed=1)
        xt = sample_intra_cluster(model, part, np.arange(t.n), substream(13))
        idx = inverse_empirical_indices(forward_cell_uniform(xt, part, joint), joint)
        want = np.column_stack([part.locate(j, xt[:, j]) for j in range(2)])
        assert np.array_equal(idx, want)

    def test_zero_probability_cell_rejected(self):
        # combination (value 0 in dim 0, value 1 in dim 1) never observed
        t = make_table([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        joint, model, part = fitted(t, k=2)
        x = np.array([[1.0, 1.0], [-0.1, 1.05]])
        with pytest.raises(PartitionError, match="row 1: .* dimension 1"):
            forward_cell_uniform(x, part, joint)

    def test_merged_round_trip(self):
        # clusters own contiguous value runs, so 1-d cells merge; the
        # merged forward map still recovers the containing merged cell
        t = make_table([[0.0], [1.0], [10.0], [11.0]])
        joint, model, part = fitted(t, k=2)
        merged = merge_cells_1d(part, model)
        assert merged.merged
        rng = np.random.default_rng(3)
        xt = sample_intra_cluster(model, merged, np.arange(t.n), rng)
        u = forward_cell_uniform(xt, merged, joint)
        counts = [merged.cell_counts[(i,)] for i in range(merged.n_cells(0))]
        total = sum(counts)
        for r in range(t.n):
            m = merged.locate(0, xt[r, 0])
            lo = sum(counts[:m]) / total
            assert lo < u[r, 0] <= lo + counts[m] / total + 1e-12


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
