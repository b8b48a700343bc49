import numpy as np
import pytest

from dpkanon.dataset import build_empirical_joint, standardize
from dpkanon.dither import (
    build_cell_partition,
    merge_cells_1d,
    sample_gaussian_batch,
    sample_intra_cluster,
    substream,
)
from dpkanon.errors import DegenerateError, DomainError, PartitionError
from dpkanon.kmember import greedy_k_member
from dpkanon.synth import synthetic_table

from conftest import make_table


def small_state(qi, y=None, k=2, seed=0):
    t = make_table(qi, y)
    joint = build_empirical_joint(t.qi)
    model = greedy_k_member(t, k=k, seed=seed)
    return t, joint, model


class TestBuildCellPartition:
    def test_midpoint_boundaries(self):
        t, joint, model = small_state([[1.0], [3.0], [7.0], [7.0]], k=2)
        part = build_cell_partition(joint, model)
        assert np.allclose(part.boundaries[0], [-np.inf, 2.0, 5.0, np.inf])

    def test_single_value_dimension(self):
        t, joint, model = small_state([[4.0], [4.0]], k=2)
        part = build_cell_partition(joint, model)
        assert part.n_cells(0) == 1
        assert np.allclose(part.boundaries[0], [-np.inf, np.inf])

    def test_counts_reconcile(self):
        t = synthetic_table(50, [4, 3], dep=0.3, seed=2)
        joint = build_empirical_joint(t.qi)
        model = greedy_k_member(t, k=5, seed=1)
        part = build_cell_partition(joint, model)
        totals = {}
        for (_, cell), cnt in part.cluster_cell_counts.items():
            totals[cell] = totals.get(cell, 0) + cnt
        assert totals == dict(joint.counts)
        for ell in range(model.c):
            assert sum(
                cnt for (l2, _), cnt in part.cluster_cell_counts.items() if l2 == ell
            ) == len(model.members[ell])

    def test_mismatched_model_rejected(self):
        t1 = synthetic_table(40, [3, 3], seed=3)
        t2 = synthetic_table(40, [3, 3], seed=4)
        joint = build_empirical_joint(t1.qi)
        model = greedy_k_member(t2, k=5, seed=0)
        with pytest.raises(PartitionError, match="different data"):
            build_cell_partition(joint, model)

    def test_unobserved_value_names_cluster_and_dimension(self):
        joint = build_empirical_joint(make_table([[0.0, 0.0], [1.0, 1.0]]).qi)
        model = greedy_k_member(make_table([[0.0, 0.0], [1.0, 2.0]]), k=2, seed=0)
        with pytest.raises(PartitionError, match="cluster 0, dimension 1"):
            build_cell_partition(joint, model)


class TestSampleIntraCluster:
    def test_cell_probabilities(self):
        # one cluster, values {0 (x2), 1 (x1)}: P(cell 0) = 2/3
        t, joint, model = small_state([[0.0], [0.0], [1.0]], k=3)
        part = build_cell_partition(joint, model)
        rng = np.random.default_rng(0)
        n_draws = 30_000
        xt = sample_intra_cluster(model, part, np.zeros(n_draws, dtype=int), rng)
        hits = int((xt[:, 0] < 0.5).sum())
        p = 2 / 3
        band = 3 * np.sqrt(p * (1 - p) / n_draws)
        assert abs(hits / n_draws - p) < band

    def test_single_cell_cluster(self):
        t, joint, model = small_state([[5.0], [5.0]], k=2)
        part = build_cell_partition(joint, model)
        rng = np.random.default_rng(1)
        xt = sample_intra_cluster(model, part, np.zeros(20, dtype=int), rng)
        assert np.all(part.locate(0, xt[:, 0]) == 0)

    def test_support_within_cluster_values(self):
        t = synthetic_table(60, [4, 3], dep=0.2, seed=5)
        std, _ = standardize(t)
        joint = build_empirical_joint(std.qi)
        model = greedy_k_member(std, k=4, seed=2)
        part = build_cell_partition(joint, model)
        xt = sample_intra_cluster(model, part, np.arange(t.n), substream(9))
        for r in range(t.n):
            cell = tuple(int(part.locate(j, xt[r, j])) for j in range(2))
            ell = int(model.assignment[r])
            assert part.cluster_cell_counts.get((ell, cell), 0) > 0

    def test_mixture_marginal_matches_empirical(self):
        # aggregating one draw per record, P(cell) approaches n(cell)/n
        t = synthetic_table(80, [3, 2], dep=0.2, seed=6)
        joint = build_empirical_joint(t.qi)
        model = greedy_k_member(t, k=5, seed=3)
        part = build_cell_partition(joint, model)
        reps = 400
        counts = {}
        for rep in range(reps):
            xt = sample_intra_cluster(model, part, np.arange(t.n), substream(rep))
            for r in range(t.n):
                cell = tuple(int(part.locate(j, xt[r, j])) for j in range(2))
                counts[cell] = counts.get(cell, 0) + 1
        total = reps * t.n
        for cell, cnt in joint.counts.items():
            p = cnt / joint.total
            band = 4 * np.sqrt(p * (1 - p) / total)
            assert abs(counts.get(cell, 0) / total - p) < band


class TestMergeCells1d:
    def test_partial_merge(self):
        # values 0,1 wholly in one cluster; value 10/11 in the other
        t, joint, model = small_state([[0.0], [1.0], [10.0], [11.0]], k=2)
        part = build_cell_partition(joint, model)
        merged = merge_cells_1d(part, model)
        assert merged.n_cells(0) == 2
        assert merged.groups == ((0, 1), (2, 3))

    def test_no_merge_when_all_split(self):
        # every value shared between both clusters -> nothing merges
        qi = [[0.0], [0.0], [1.0], [1.0]]
        y = [0.0, 10.0, 0.0, 10.0]
        t, joint, model = small_state(qi, y, k=2)
        sets = [set(np.unique(t.qi[m][:, 0])) for m in model.members]
        if sets[0] == sets[1] == {0.0, 1.0}:
            part = build_cell_partition(joint, model)
            merged = merge_cells_1d(part, model)
            assert merged.n_cells(0) == part.n_cells(0)

    def test_all_one_cluster(self):
        t, joint, model = small_state([[0.0], [1.0], [2.0]], k=3)
        part = build_cell_partition(joint, model)
        merged = merge_cells_1d(part, model)
        assert merged.n_cells(0) == 1
        assert merged.cell_cum.tolist() == [1.0]

    def test_dimension_error(self):
        t = synthetic_table(20, [3, 3], seed=1)
        joint = build_empirical_joint(t.qi)
        model = greedy_k_member(t, k=4, seed=0)
        part = build_cell_partition(joint, model)
        with pytest.raises(DomainError):
            merge_cells_1d(part, model)


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
        draws = sample_gaussian_batch(
            model, alpha, np.full(n_draws, model.members[0][0]), rng
        )
        ell = model.assignment[model.members[0][0]]
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
