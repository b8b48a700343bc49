import hashlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scipy.special import ndtr

from dpkanon import rosenblatt
from dpkanon.dataset import _U_TOL, build_empirical_joint, standardize
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

from conftest import make_table, reference_inverse, reference_tables


def block_rows(c):
    """Rows per block of the forward map over c clusters."""
    return max(rosenblatt._MIN_BLOCK, rosenblatt._BLOCK_CELLS // c)


def cdf(z):
    """rosenblatt._phi of z into a new array."""
    z = np.asarray(z, dtype=float)
    return rosenblatt._phi(z, np.empty_like(z), np.empty((2,) + z.shape))


def page_cdf(z):
    """Page's tanh form of the normal CDF, as the cheap pass takes it, in
    float64."""
    return (1 + np.tanh(z * (rosenblatt._PAGE_A + rosenblatt._PAGE_B * z * z))) / 2


def reference_forward(X, model, alpha, gemv=False, cdf=cdf):
    """Serial reference for forward_gaussian: every row at once, with the
    same arithmetic and, by default, the same normal CDF. With gemv=True,
    u[:, 0] is summed as the forward map once did, by a BLAS product with
    the prior over blocks of 32 rows."""
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
        phi = cdf(zj)
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
        monkeypatch.setattr(rosenblatt, "_THREAD_BLOCKS", 1)  # a thread per block
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
        assert rosenblatt._mapped_width(joint, rosenblatt._key_tables(joint)[1]) == \
            brute_width(joint)
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
                mp.setattr(rosenblatt, "_mapped_width", lambda joint, deep: width)
                got = gaussian_release_indices(xt, model, 1 / 3, joint)
            assert got.tobytes() == want.tobytes()

    def test_shared_deep_prefix_flags_rows(self):
        # 30 of 40 continuous rows share their first two values: a walk that
        # reaches that prefix needs u_2, and only those rows are flagged
        table = coded_table("ccc", 40, 29, 2, 5)
        state = prepare(table, 3, seed=0)
        assert rosenblatt._mapped_width(state.joint, rosenblatt._key_tables(state.joint)[1]) == 3
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


def workload_table(kind: str, seed: int = 1, n: int = 4000):
    """The benchmark's n = 4000 `release-continuous` or `release-ordinal`
    table, drawn as its generator draws it, or that generator's table of n
    rows."""
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


# the rows of the test below that the main map takes, as counted when the
# walk on u~_0 alone was put before it. On the continuous table that walk
# places the 1420 rows whose key's path past the root is forced and leaves
# 2580: 12 it cannot place at the root, which go to the redo, and 2568
MAIN_MAP_ROWS = {"continuous": 2568, "ordinal": 4000}


@pytest.mark.parametrize("kind, width", [("continuous", 2), ("ordinal", 3)])
def test_gaussian_release_maps_only_the_columns_the_walk_reads(monkeypatch, kind, width):
    # continuous keys part after two columns, ordinal keys after three. On
    # both tables the release makes three maps at most, in this order: one
    # one-column map of the interpolant's nodes, which places the first
    # coordinate; one map of the leading columns that skips the first
    # column's CDF and maps the small tables past the root by the float32
    # cheap pass; and one exact map of all d columns of the rows the walks
    # flag, those near an edge at any level and those that need a column
    # not mapped. No map of the first column alone. Some continuous keys'
    # paths are forced past the root, so a walk on u~_0 alone comes first,
    # and the main map takes just the rows it places at the root but not
    # past it; every ordinal key branches at level 1, so no such walk runs
    maps, walks = [], []
    forward, walk = rosenblatt._map, rosenblatt._walk

    def counted_map(X, mix, skip_first=False, single=None):
        maps.append((*X.shape, skip_first, single is not None))
        return forward(X, mix, skip_first, single)

    def counted_walk(u, joint, *args):
        out = walk(u, joint, *args)
        walks.append((u.shape[1], out.copy()))
        return out

    monkeypatch.setattr(rosenblatt, "_map", counted_map)
    monkeypatch.setattr(rosenblatt, "_walk", counted_walk)
    transform(prepare(workload_table(kind), 10, seed=0), "gaussian")
    (nodes, *shape), main, *redo = maps
    assert shape == [1, False, False] and nodes < 100
    assert main == (MAIN_MAP_ROWS[kind], width, True, True)
    if kind == "continuous":
        (cols, root), (_, placed), *again = walks
        assert cols == 1 and (root[:, -1] < 0).sum() == 2580
        left = (root[:, 0] >= 0) & (root[:, -1] < 0)
        assert left.sum() == MAIN_MAP_ROWS[kind] and len(placed) == left.sum()
        flagged = int((root[:, 0] < 0).sum() + (placed[:, -1] < 0).sum())
    else:
        (cols, placed), *again = walks
        assert cols == width
        flagged = int((placed[:, -1] < 0).sum())
    assert redo == ([(flagged, 3, False, False)] if flagged else [])
    assert [(cols, int((out[:, -1] < 0).sum())) for cols, out in again] == [(3, 0)] * len(redo)
    assert flagged < 40


# sha256 of each method's qi_hat bytes on workload_table(kind), k = 10,
# seed 0, taken before the release first placed rows without mapping their
# first coordinate, and kept by every change since; a change that moves any
# release's bytes must say so and update them
RELEASE_DIGESTS = {
    ("continuous", "centroid"): "0770805cb4d89a5c66d48d55d128310246f3b886a4e166e4a367011d0bd4aef6",
    ("continuous", "resample"): "8742f7da41f0ad00e4efe5b5bb5181e818ebdec60402278bd763003ef770d3f4",
    ("continuous", "permute"): "3b870dff05802bb96d0e51918c3de5141bdc5bd024ab8452644a195a9f7f7abb",
    ("continuous", "cell_dither"):
        "8742f7da41f0ad00e4efe5b5bb5181e818ebdec60402278bd763003ef770d3f4",
    ("continuous", "gaussian"): "b5c8b99820afdbca3171faf5b31f2c304c389c783fcb31a42d83472e04cf2347",
    ("ordinal", "centroid"): "dcead95ec426d20c5303f67a0ca503323a364af931cb1c4467ec88f7772e0b52",
    ("ordinal", "resample"): "e7dab2b3ff583e2ea5851e0ccb16115f56162c39edbdb17bb4000b7573dd00a4",
    ("ordinal", "permute"): "05fd5ddb06456d6835c786931e72d4182712a68869fb15dfe76fb98b48494f54",
    ("ordinal", "cell_dither"): "e7dab2b3ff583e2ea5851e0ccb16115f56162c39edbdb17bb4000b7573dd00a4",
    ("ordinal", "gaussian"): "a8f789143575c73bb3bd97f88964d7f18fea0d5f49bd1b54174375b5884940d6",
}


@pytest.fixture(scope="module")
def workload_states():
    return {kind: prepare(workload_table(kind), 10, seed=0) for kind in ("continuous", "ordinal")}


@pytest.mark.parametrize("kind, method", sorted(RELEASE_DIGESTS))
def test_release_digest_unchanged(workload_states, kind, method):
    qi_hat = transform(workload_states[kind], method).qi_hat
    assert qi_hat.dtype == np.float64 and qi_hat.shape == (4000, 3)
    assert hashlib.sha256(qi_hat.tobytes()).hexdigest() == RELEASE_DIGESTS[kind, method]


def root_delta(model):
    """delta_0, the bound that _root_interpolant's margin allows between a
    computed u_0 and the mixture CDF at x_0."""
    return 4 * (len(model.sizes) + 2) * np.finfo(float).eps


def first_u(x0, mix):
    return rosenblatt._map(np.asarray(x0, dtype=float).reshape(-1, 1), mix)[0][:, 0]


def root_entry(cumfrac, u0):
    """The walk's step-0 entry for first coordinates u0."""
    return np.minimum(np.searchsorted(cumfrac, np.asarray(u0) - _U_TOL), len(cumfrac) - 1)


def root_edge(mix, cumfrac, e):
    """Two first coordinates less than 1e-15 apart whose u_0 straddle the
    walk's edge e of the root table: the lower one's entry is below e and
    the upper one's at least e. Found by bisection."""
    def reaches(x):
        return root_entry(cumfrac, first_u([x], mix))[0] >= e

    lo, hi = -50.0, 50.0
    assert not reaches(lo) and reaches(hi)
    while hi - lo > 1e-15:
        mid = lo + (hi - lo) / 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def jittered(forward, delta):
    """_map with each computed u_0 moved by up to delta / 2, by a fixed
    function of x_0's bits: still within delta of the mixture CDF, but not
    monotone in x_0."""
    def jittered_map(X, mix, skip_first=False, single=None):
        u, margin = forward(X, mix, skip_first, single)
        if not skip_first:
            bits = np.ascontiguousarray(X[:, 0]).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            u[:, 0] += ((bits >> np.uint64(11)) / 2.0**53 - 0.5) * delta
            np.clip(u[:, 0], np.finfo(float).tiny, 1.0, out=u[:, 0])
        return u, margin

    return jittered_map


@st.composite
def root_cases(draw):
    """A table whose first column has g0 values, k, the number of dither
    rows, how many rows take another row's first coordinate, how many root
    edges get rows placed at them, and a seed."""
    g0 = draw(st.sampled_from((1, 2, 3, 6)))
    k = draw(st.sampled_from((2, 3, 10)))
    n = draw(st.integers(max(k, g0), 40))
    kinds = draw(st.lists(st.sampled_from("co"), max_size=2))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    first = rng.permutation(np.arange(n) % g0).astype(float)
    rest = [np.round(rng.standard_normal(n), 2) if kind == "c"
            else rng.integers(0, 3, n).astype(float) for kind in kinds]
    table = make_table(np.column_stack([first, *rest]))
    rows = draw(st.sampled_from((1, 2, 30, 200, 1000)))
    return table, k, rows, draw(st.integers(0, 5)), draw(st.integers(0, 3)), seed


@st.composite
def forced_cases(draw):
    """A table whose root entries mix forced and branching subtrees: a
    near-distinct 3-decimal first column, some of whose values repeat,
    beside one or two coarse columns; k, the number of dither rows, how many
    of them move out to 1e15, how many get placed at a root edge, and a
    seed."""
    n = draw(st.integers(6, 60))
    later = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=2))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    first = np.round(rng.standard_normal(n), 3)
    repeats = draw(st.integers(0, n // 2))
    first[rng.integers(0, n, repeats)] = first[rng.integers(0, n, repeats)]
    rest = [rng.integers(0, levels, n).astype(float) for levels in later]
    table = make_table(np.column_stack([first, *rest]))
    k = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.sampled_from((30, 200, 1000)))
    return table, k, rows, draw(st.integers(0, 3)), draw(st.integers(0, 3)), seed


def edge_table():
    """A 60-row table whose root table has 6 entries, its state (k = 3), and
    the mixture at alpha = 1/3."""
    state = prepare(make_table(np.column_stack([np.arange(60) % 6, np.arange(60) % 7])),
                    3, seed=0)
    return state, rosenblatt._mixture(state.model, 1 / 3)


def traced_release(xt, model, alpha, joint):
    """gaussian_release_indices of xt, the first coordinates of its _map
    calls by stage and the indices of each _walk call, in order. The stages
    are "nodes", the interpolant's, when it places the first coordinate;
    "main", the main map; and "redo", the exact map of the rows the walks
    flag; a stage with no _map call is None. The first walk's column 0
    holds the root entries it certified (-1 on the rows left to the redo):
    the walk on u~_0 alone where it runs, else the main walk."""
    forward, walk, root = rosenblatt._map, rosenblatt._walk, rosenblatt._root_interpolant
    maps, walks, stage = {"nodes": None, "main": None, "redo": None}, [], ["main"]

    def kept_root(x0, mix):
        stage[0] = "nodes"
        try:
            return root(x0, mix)
        finally:
            stage[0] = "main"

    def kept_map(X, mix, skip_first=False, single=None):
        key = "redo" if stage[0] == "main" and walks and not skip_first else stage[0]
        assert maps[key] is None  # one call per stage
        maps[key] = X[:, 0].copy()
        return forward(X, mix, skip_first, single)

    def kept_walk(u, joint, *args):
        out = walk(u, joint, *args)
        walks.append(out.copy())  # the release writes the redo into out
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rosenblatt, "_root_interpolant", kept_root)
        mp.setattr(rosenblatt, "_map", kept_map)
        mp.setattr(rosenblatt, "_walk", kept_walk)
        got = gaussian_release_indices(xt, model, alpha, joint)
    return got, maps, walks


class TestRootEntries:
    @settings(max_examples=60, deadline=None)
    @given(case=root_cases(), jitter=st.booleans())
    def test_interpolated_entries_and_release_equal_the_walk(self, case, jitter):
        # G0 = 1, G0 = 2, one row, repeated x_0 and rows within 1e-13 of a
        # root edge; with jitter, u_0 is no longer monotone in x_0. One or
        # two rows take the exact first column, a thousand the interpolant.
        # Every root entry the walk certifies is the exact walk's, and the
        # rows it leaves are in the redo
        table, k, rows, repeats, edges, seed = case
        state = prepare(table, k, seed=0)
        model, joint = state.model, state.joint
        rng = np.random.default_rng(seed)
        xt = sample_gaussian_batch(model, 1 / 3, rng.integers(0, table.n, rows), rng)
        xt[rng.integers(0, rows, repeats), 0] = xt[rng.integers(0, rows, repeats), 0]
        cumfrac = joint.flat_trie[0][1]
        mix = rosenblatt._mixture(model, 1 / 3)
        for e in rng.integers(1, len(cumfrac), edges) if len(cumfrac) > 1 else []:
            for x in root_edge(mix, cumfrac, e):
                u0 = first_u([x], mix)[0]
                assert abs(u0 - _U_TOL - cumfrac[e - 1]) < 1e-13
                xt[rng.integers(0, rows), 0] = x
        with pytest.MonkeyPatch.context() as mp:
            if jitter:
                mp.setattr(rosenblatt, "_map", jittered(rosenblatt._map, root_delta(model)))
            want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
            got, maps, walks = traced_release(xt, model, 1 / 3, joint)
        interpolated = maps["nodes"] is not None
        if rows <= 2 or rows >= 1000:
            assert interpolated == (rows > 2)
        if interpolated:
            roots = walks[0][:, 0]
            sure = roots >= 0
            assert roots[sure].tolist() == want[sure, 0].tolist()
            assert np.isin(xt[~sure, 0], maps["redo"] if maps["redo"] is not None else []).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["equal", "outlier", "shifted", "alpha=1e-6",
                                      "alpha=1e300"])
    def test_inputs_that_break_a_naive_grid(self, case):
        # every x_0 equal (a lattice of one cell), one x_0 near 1e12 (two
        # more nodes, not 1e13 empty cells), every x_0 moved by 1e15 (the
        # lattice points round to 1/8, so the cells are too wide and their
        # rows go to the redo), a grid too fine to pay (the exact first
        # column), and sds near 1e150, whose fourth powers overflow; any
        # warning fails the suite
        state, _ = edge_table()
        model, joint = state.model, state.joint
        alpha = {"alpha=1e-6": 1e-6, "alpha=1e300": 1e300}.get(case, 1 / 3)
        rng = np.random.default_rng(4)
        xt = sample_gaussian_batch(model, alpha, rng.integers(0, 60, 400), rng)
        if case == "equal":
            xt[:, 0] = xt[0, 0]
        elif case == "outlier":
            xt[7, 0] = 1e12
        elif case == "shifted":
            xt[:, 0] += 1e15
        mix = rosenblatt._mixture(model, alpha)
        want = inverse_empirical_indices(forward_gaussian(xt, model, alpha), joint)
        got, maps, walks = traced_release(xt, model, alpha, joint)
        fit = rosenblatt._root_interpolant(xt[:, 0], mix)
        assert (fit is None) == (case == "alpha=1e-6")
        if fit is not None:
            u, margin = fit
            placed = np.isfinite(margin)
            assert placed.all() == (case != "shifted")
            roots = walks[0][:, 0]
            sure = roots >= 0
            assert not (sure & ~placed).any()
            assert roots[sure].tolist() == want[sure, 0].tolist()
            # the rows left unplaced are in the one redo
            assert np.isin(xt[~sure, 0], maps["redo"] if maps["redo"] is not None else []).all()
            err = np.abs(u - first_u(xt[:, 0], mix))[placed]
            assert (err < rosenblatt._ROOT_ERR).all()
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=forced_cases(), jitter=st.booleans())
    def test_forced_paths_are_placed_by_the_root_walk(self, case, jitter):
        # root entries whose every later table has one entry beside entries
        # that branch, outliers near 1e15 whose rows the interpolant
        # declines, and rows within 1e-13 of a root edge; with jitter, u_0
        # is no longer monotone in x_0. The walk on u~_0 alone runs just
        # when some key's path past the root is forced; it places those
        # rows for good, its rows left at the root go to the redo, and the
        # main map takes exactly the rest
        table, k, rows, outliers, edges, seed = case
        state = prepare(table, k, seed=0)
        model, joint = state.model, state.joint
        rng = np.random.default_rng(seed)
        xt = sample_gaussian_batch(model, 1 / 3, rng.integers(0, table.n, rows), rng)
        xt[rng.integers(0, rows, outliers), 0] = rng.choice([-1.0, 1.0]) * 1e15
        cumfrac = joint.flat_trie[0][1]
        mix = rosenblatt._mixture(model, 1 / 3)
        for e in rng.integers(1, len(cumfrac), edges):
            xt[rng.integers(0, rows), 0] = root_edge(mix, cumfrac, e)[int(rng.integers(0, 2))]
        walk, cols = rosenblatt._walk, []

        def col_walk(u, joint, *args):
            cols.append(u.shape[1])
            return walk(u, joint, *args)

        with pytest.MonkeyPatch.context() as mp:
            if jitter:
                mp.setattr(rosenblatt, "_map", jittered(rosenblatt._map, root_delta(model)))
            want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
            mp.setattr(rosenblatt, "_walk", col_walk)
            got, maps, walks = traced_release(xt, model, 1 / 3, joint)
        assert got.tobytes() == want.tobytes()
        forced = (rosenblatt._key_tables(joint)[0][1:] == 1).all(axis=0)
        # with u~_0 the main walk reads two columns or more: a one-column
        # first walk is the walk on u~_0 alone
        root_walk = maps["nodes"] is not None and cols[0] == 1
        assert root_walk == (maps["nodes"] is not None and forced.any())
        if root_walk:
            first = walks[0]
            placed = first[:, -1] >= 0
            assert first[placed].tolist() == want[placed].tolist()
            key_forced = dict(zip(map(tuple, joint.keys.tolist()), forced))
            assert all(key_forced[tuple(row)] for row in first[placed].tolist())
            left = (first[:, 0] >= 0) & ~placed
            main = maps["main"] if maps["main"] is not None else np.empty(0)
            assert main.tobytes() == xt[left, 0].tobytes()
            redo = maps["redo"] if maps["redo"] is not None else np.empty(0)
            assert np.isin(xt[~placed & ~left, 0], redo).all()

    def test_rows_near_an_edge_are_placed_exactly(self, monkeypatch):
        # 81 rows 1e-14 apart around each edge of a 6-entry root table, with
        # u_0 jittered by up to delta_0 / 2 so that it crosses each edge many
        # times: the interpolant cannot place them, and every one is mapped
        # again, in the one redo of all d columns, and placed exactly
        state, mix = edge_table()
        model, joint = state.model, state.joint
        cumfrac = joint.flat_trie[0][1]
        near = np.concatenate([root_edge(mix, cumfrac, e)[0] + 1e-14 * np.arange(-40, 41)
                               for e in range(1, 6)])
        rng = np.random.default_rng(0)
        x0 = rng.permutation(np.concatenate([near, np.linspace(-3, 3, 200)]))
        xt = np.column_stack([x0, rng.standard_normal(len(x0))])
        monkeypatch.setattr(rosenblatt, "_map", jittered(rosenblatt._map, root_delta(model)))
        want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
        got, maps, walks = traced_release(xt, model, 1 / 3, joint)
        assert got.tobytes() == want.tobytes()
        # the jitter makes the entries of the rows at an edge disagree with
        # their order in x_0
        order = np.argsort(x0)
        assert (np.diff(want[order, 0]) < 0).any()
        nodes, again = maps["nodes"], maps["redo"]
        assert 2 * len(nodes) < len(x0)
        assert np.isin(near, again).all() and len(again) < len(near) + 10
        assert not np.isin(near, x0[walks[0][:, 0] >= 0]).any()


def count_phi_cells(monkeypatch, xt, state):
    """The release of xt, its _phi cells per level, the rows its first walk
    flags and the (rows, columns) of each _map call. Every _phi call is
    counted, and each _map call's cells are put to the levels it maps with
    _phi (the call's share of the count must agree)."""
    phi, forward, walk = rosenblatt._phi, rosenblatt._map, rosenblatt._walk
    cells, flagged, maps = [], [], []
    level_cells = np.zeros(state.joint.d, dtype=int)

    def counted_phi(z, out, scratch):
        cells.append(z.size)
        return phi(z, out, scratch)

    def counted_map(X, mix, skip_first=False, single=None):
        before = sum(cells)
        got = forward(X, mix, skip_first, single)
        levels = [] if single is not None else list(range(int(skip_first), X.shape[1]))
        assert sum(cells) - before == len(X) * len(mix[0]) * len(levels)
        level_cells[levels] += len(X) * len(mix[0])
        maps.append(X.shape)
        return got

    def counted_walk(u, joint, *args):
        out = walk(u, joint, *args)
        flagged.append(int((out[:, -1] < 0).sum()))
        return out

    monkeypatch.setattr(rosenblatt, "_phi", counted_phi)
    monkeypatch.setattr(rosenblatt, "_map", counted_map)
    monkeypatch.setattr(rosenblatt, "_walk", counted_walk)
    got = gaussian_release_indices(xt, state.model, 1 / 3, state.joint)
    monkeypatch.undo()
    return got, level_cells, flagged[0], maps


@pytest.mark.parametrize("kind", ["continuous", "ordinal"])
def test_first_level_cdf_cells(monkeypatch, workload_states, kind):
    # the first level's _phi cells are the interpolant's nodes' and the
    # redo's; the redo holds the rows whose u_0 the walk leaves near a root
    # edge, no more than those within 2 delta of one, and the rows it flags
    # at a later level; under a tenth of n * c
    state = workload_states[kind]
    model, joint = state.model, state.joint
    c, n = len(model.sizes), 4000
    xt = sample_gaussian_batch(model, 1 / 3, np.arange(n), np.random.default_rng(3))
    u0 = forward_gaussian(xt[:, :1], model, 1 / 3)[:, 0]
    cumfrac = joint.flat_trie[0][1]
    delta = rosenblatt._ROOT_ERR + 3 * root_delta(model)
    edge_gap = np.abs(u0[:, None] - _U_TOL - cumfrac[:-1]).min(axis=1)
    unsure = int((edge_gap <= 2 * delta).sum())
    u, margin = rosenblatt._root_interpolant(xt[:, 0], rosenblatt._mixture(model, 1 / 3))
    assert (rosenblatt._walk(u[:, None], joint, margin[:, None])[:, 0] < 0).sum() <= unsure
    got, level_cells, _, maps = count_phi_cells(monkeypatch, xt, state)
    assert got.tobytes() == inverse_empirical_indices(
        forward_gaussian(xt, model, 1 / 3), joint).tobytes()
    nodes, cols = maps[0]
    assert cols == 1 and 2 * nodes < n
    first_cells, redo_cells = level_cells[0], level_cells[1]
    assert first_cells == nodes * c + redo_cells
    assert first_cells < n * c / 10


# the rows the c = 1600 releases below redo, as counted when the test was
# written; the band of a quarter either way lets numpy's CPU dispatch move
# the float32 pass's last bits, and fails on a change of the margins
C1600_REDO_ROWS = {"continuous": 233, "ordinal": 195}


@pytest.mark.parametrize("kind", ["continuous", "ordinal"])
def test_release_at_c_1600_matches_the_full_path(monkeypatch, kind):
    # the benchmark tables' generators at n = 16000 and k = 10 give c = 1600
    # clusters, four times those of the other end-to-end release tests
    n = 16000
    state = prepare(workload_table(kind, n=n), 10, seed=0)
    assert len(state.model.sizes) == 1600
    xt = sample_gaussian_batch(state.model, 1 / 3, np.arange(n), np.random.default_rng(3))
    walk, walks = rosenblatt._walk, []

    def counted_walk(u, joint, *args):
        out = walk(u, joint, *args)
        walks.append((u.shape[1], out.copy()))
        return out

    monkeypatch.setattr(rosenblatt, "_walk", counted_walk)
    got = gaussian_release_indices(xt, state.model, 1 / 3, state.joint)
    monkeypatch.undo()
    assert got.tobytes() == inverse_empirical_indices(
        forward_gaussian(xt, state.model, 1 / 3), state.joint).tobytes()
    # on the continuous table a walk on u~_0 alone comes first; the main
    # walk takes the rows it places at the root but not past it, and the
    # rows it leaves at the root join the redo
    if kind == "continuous":
        (cols, root), *walks = walks
        assert cols == 1 and len(walks[0][1]) == ((root[:, 0] >= 0) & (root[:, -1] < 0)).sum()
        root_rows = int((root[:, 0] < 0).sum())
    else:
        root_rows = 0
    (cols, main), (_, again) = walks
    assert cols == 3 - (kind == "continuous") and (again < 0).sum() == 0
    flagged = root_rows + int((main[:, -1] < 0).sum())
    assert len(again) == flagged
    assert 0.75 * C1600_REDO_ROWS[kind] <= flagged <= 1.25 * C1600_REDO_ROWS[kind]


@pytest.mark.parametrize("kind", ["continuous", "ordinal"])
def test_later_level_cdf_cells(monkeypatch, workload_states, kind):
    # past the first level only the rows mapped again call _phi: the rows
    # the cheap pass leaves near an edge and those that need a column not
    # mapped, under 2% of the rows at each level
    state = workload_states[kind]
    c, n = len(state.model.sizes), 4000
    xt = sample_gaussian_batch(state.model, 1 / 3, np.arange(n), np.random.default_rng(3))
    got, level_cells, flagged, _ = count_phi_cells(monkeypatch, xt, state)
    assert got.tobytes() == inverse_empirical_indices(
        forward_gaussian(xt, state.model, 1 / 3), state.joint).tobytes()
    assert all(cells <= flagged * c for cells in level_cells[1:])
    assert all(cells < 0.02 * n * c for cells in level_cells[1:])


@pytest.mark.parametrize("alpha", [1 / 3, 0.05])
def test_interpolant_error_on_the_continuous_table(workload_states, alpha):
    # every row is placed, within eps_0 of its computed u_0
    model = workload_states["continuous"].model
    xt = sample_gaussian_batch(model, alpha, np.arange(4000), np.random.default_rng(3))
    mix = rosenblatt._mixture(model, alpha)
    u, margin = rosenblatt._root_interpolant(xt[:, 0], mix)
    assert np.isfinite(margin).all()
    assert np.abs(u - first_u(xt[:, 0], mix)).max() < rosenblatt._ROOT_ERR


def test_page_cdf_grid_maximum():
    # the grid maximum that _cheap_delta's proof of eps_Phi starts from,
    # and the proof's sum: the computed Page form and ndtr within 5 eps of
    # theirs, the difference's slope below 1.11 between the points, twice
    # the bound within eps_Phi; beyond 9 both are within 1.2e-19 of 0 or 1
    eps = np.finfo(float).eps
    z = np.linspace(-9, 9, 2_000_001)
    g = z * (rosenblatt._PAGE_A + rosenblatt._PAGE_B * z * z)
    peak = np.abs(0.5 * (1 + np.tanh(g)) - ndtr(z)).max()
    assert 1.4e-4 < peak < 1.4042e-4
    slope = (rosenblatt._PAGE_A + 3 * rosenblatt._PAGE_B * z * z) / np.cosh(g) ** 2 / 2
    assert slope.max() < 1.11
    bound = peak + 5 * eps + 1.11 * (z[1] - z[0]) / 2
    assert bound < 1.46e-4 and 2 * bound < rosenblatt._PAGE_ERR
    assert ndtr(-9.0) < 1.2e-19 and 0.5 * (1 + np.tanh(g[0])) == 0.0


def every_float32(lo, hi, stride):
    """Every stride-th float32 in [lo, hi), in order."""
    ends = np.array([lo, hi], dtype=np.float32).view(np.uint32)
    return np.arange(ends[0], ends[1], stride, dtype=np.uint32).view(np.float32)


def test_float32_function_error():
    # the constants _single_margin's proof takes for the running numpy's
    # float32 tanh and exp, measured on every 61st float32 of their ranges
    # (about 5 M points each): tanh, odd, within _TANH32_ERR u of tanh in
    # absolute terms over the Page arguments up to g(9) < 33, and 1 past
    # them; exp within _EXP32_ERR u of itself, relative, over the weights'
    # arguments down to the float32 normal range, below 2^-126 past it, and
    # exactly 1 at 0. Also the proof's peak of |g| sech^2(g), under 0.45
    u = 2.0**-24
    x = every_float32(2.0**-30, 33.0, 61)
    t = np.tanh(x)
    assert (np.tanh(-x) == -t).all() and np.tanh(np.float32(33.0)) == 1
    tanh_err = np.abs(t - np.tanh(x.astype(float))).max() / u
    assert tanh_err < rosenblatt._TANH32_ERR
    y = -every_float32(2.0**-30, 104.0, 61)
    e, exact = np.exp(y), np.exp(y.astype(float))
    normal = exact >= 2.0**-126
    exp_err = (np.abs(e - exact) / exact)[normal].max() / u
    assert exp_err < rosenblatt._EXP32_ERR and (e[~normal] < 2.0**-126).all()
    assert np.exp(np.float32(0)) == 1
    g = np.linspace(0, 3, 300_001)
    peak = (g / np.cosh(g) ** 2).max()
    assert 0.4477 < peak < 0.4478 and peak + 3e-5 < 0.45  # slope below 1 between points


def test_float32_tanh_saturates():
    # the cheap pass takes Page's g(z) = z (a + b z^2) on float32 planes
    # without clipping z: past |z| = 9, where |g| > 32.9, numpy's float32
    # tanh must return +-1 exactly, as it does at g(9). Every 211th float32
    # from 32 to 2^116 (about 4.4 M points) covers each |g| that _single's
    # range allows: |z| <= 2^40, even with the float32 residual's error
    # (nu (a_j + b_j + 1) <= 1e-3 of it) taken at 1%, keeps |g| below
    # 4.9e34 < 2^116
    a, b = rosenblatt._PAGE_A, rosenblatt._PAGE_B
    g9 = np.float32(9) * (np.float32(a) + np.float32(b) * np.float32(81))
    assert 32.9 < g9 and np.tanh(g9) == 1 and np.tanh(-g9) == -1
    assert 1.01 * 2.0**40 * (a + b * (1.01 * 2.0**40) ** 2) < 4.9e34 < 2.0**116
    x = every_float32(32.0, 2.0**116, 211)
    assert x[0] == 32 and x[-1] > 4.9e34
    assert (np.tanh(x) == 1).all() and (np.tanh(-x) == -1).all()


def test_phi3_grid_maximum():
    # the peak of |phi'''| = |z (z^2 - 3)| phi(z) that _root_interpolant's
    # bound starts from, measured on a grid: the slope |phi''''| =
    # |z^4 - 6 z^2 + 3| phi(z) stays below 1.2, so the peak between points
    # exceeds the grid's by at most 1.2 h / 2; beyond 9, |phi'''| < 1e-15;
    # and _PHI3_MAX exceeds the peak by 7e-4 of itself
    z = np.linspace(-9, 9, 2_000_001)
    phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    peak = np.abs(z * (z * z - 3) * phi).max()
    assert 0.55058 < peak < 0.55059
    assert (np.abs(z**4 - 6 * z * z + 3) * phi).max() < 1.2
    bound = peak + 1.2 * (z[1] - z[0]) / 2
    assert bound < 0.5506 and 9 * (81 - 3) * phi[0] < 1e-15
    assert rosenblatt._PHI3_MAX > bound and rosenblatt._PHI3_MAX - bound > 7e-4 * rosenblatt._PHI3_MAX


# scipy.special.ndtr's largest error against 120-bit mpmath at _phi's
# 150 000 scratch points over [-9.3, 9.3], rounded up: the oracle's own
# share when _phi is checked against it
NDTR_ERR = 0.83 * np.finfo(float).eps


def test_phi_rounding_bound():
    # the sum _phi's docstring bounds its error by: P's and Q's coefficients
    # positive, as the rounding bound needs; Phi(-t) rho(t) u peaks at
    # 1.522 eps on a grid of [0, T] and moves by under 1e-5 eps between
    # points; rho stays below 61; Phi(-T) < 0.94 u / 2; and the sum, with
    # the fit's 0.07 eps, is below 1.9 eps, inside E_Phi = 3 eps, which is
    # no more than the (c + 3) eps that the proofs of _cheap_delta and
    # _root_interpolant allow at c = 1
    eps = np.finfo(float).eps
    p, q = np.array(rosenblatt._PHI_P), np.array(rosenblatt._PHI_Q + (1.0,))
    assert (p > 0).all() and (q > 0).all()
    t = np.linspace(0, rosenblatt._PHI_CUT, 2_000_001)
    kp, kq = 2 * np.arange(len(p)) + 1, 2 * np.arange(len(q)) + 1
    kp[-1], kq[-1] = kp[-2] + 1, kq[-2]  # P's leading term; Q's t^8 goes with t^7
    terms_p = p[:, None] * t ** np.arange(len(p))[:, None]
    terms_q = q[:, None] * t ** np.arange(len(q))[:, None]
    rho = kp @ terms_p / terms_p.sum(0) + kq @ terms_q / terms_q.sum(0) + t * t / 2 + 4
    bound = ndtr(-t) * rho * eps / 2
    assert 1.52 * eps < bound.max() < 1.523 * eps and rho.max() < 61
    assert np.abs(np.diff(bound)).max() < 1e-5 * eps
    assert ndtr(-rosenblatt._PHI_CUT) < 0.94 * eps / 4
    total = bound.max() + 1e-5 * eps + eps / 4 + 0.07 * eps
    assert total < 1.9 * eps and rosenblatt._PHI_ERR == 3 * eps <= (1 + 3) * eps


def test_phi_against_ndtr():
    # on a grid of 2 000 001 points over [-T - 1, T + 1], _phi is within
    # E_Phi of Phi, ndtr being within NDTR_ERR of it; it lies in [0, 1]; and
    # _phi(z) + _phi(-z) = 1 within 2 E_Phi. NaN stays NaN
    t = rosenblatt._PHI_CUT
    z = np.linspace(-t - 1, t + 1, 2_000_001)
    p = cdf(z)
    assert (np.abs(p - ndtr(z)) + NDTR_ERR <= rosenblatt._PHI_ERR).all()
    assert ((p >= 0) & (p <= 1)).all()
    assert (np.abs(p + cdf(-z) - 1) <= 2 * rosenblatt._PHI_ERR).all()
    assert np.isnan(cdf([np.nan])).all()


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(st.floats(-rosenblatt._PHI_CUT - 1, rosenblatt._PHI_CUT + 1),
                   st.floats(allow_nan=False)))
def test_phi_within_its_bound_at_any_double(z):
    # the grid's checks at any double, the infinities and the range ends too
    p, q = cdf([z, -z])
    assert abs(p - ndtr(z)) + NDTR_ERR <= rosenblatt._PHI_ERR
    assert 0 <= p <= 1 and abs(p + q - 1) <= 2 * rosenblatt._PHI_ERR
    # in place, as _map calls it at its last column
    x = np.array([z])
    assert rosenblatt._phi(x, x, np.empty((2, 1)))[0] == p


def level_table(joint, prefix):
    """(start, length) of the level-len(prefix) table that the value
    indices `prefix` lead to."""
    node = 0
    for j, v in enumerate(prefix):
        idx, _, starts, lengths = joint.flat_trie[j]
        s = starts[node]
        node = s + int(np.flatnonzero(idx[s:s + lengths[node]] == v)[0])
    _, _, starts, lengths = joint.flat_trie[len(prefix)]
    return int(starts[node]), int(lengths[node])


def level_edge(row, j, e, mix, joint):
    """Two values of x_j less than 1e-15 apart, with the row's x_<j fixed,
    whose u_j straddle edge e of the level-j table that the row's prefix
    leads to (the lower one's entry is below e, the upper one's at least
    e), and that edge's cumulative fraction. Found by bisection."""
    prefix = rosenblatt._walk(rosenblatt._map(row[None, :j], mix)[0], joint)[0, :j]
    s, n = level_table(joint, prefix)
    cumfrac = joint.flat_trie[j][1][s:s + n]
    x = row[:j + 1].copy()

    def u_j(v):
        x[j] = v
        return rosenblatt._map(x[None], mix)[0][0, j]

    def reaches(v):
        return np.searchsorted(cumfrac, u_j(v) - _U_TOL) >= e

    lo, hi = -50.0, 50.0
    assert not reaches(lo) and reaches(hi)
    while hi - lo > 1e-15:
        mid = lo + (hi - lo) / 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    for v in (lo, hi):
        assert abs(u_j(v) - _U_TOL - cumfrac[e - 1]) < 1e-13
    return lo, hi


def cheap_jittered(forward):
    """_map with each u_j moved by up to half its margin, by a fixed
    function of x_j's bits: the cheap pass's; the exact map's margin is 0,
    and rows of infinite margin stay."""
    def jittered_map(X, mix, skip_first=False, single=None):
        u, margin = forward(X, mix, skip_first, single)
        bits = np.ascontiguousarray(X).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        half = np.where(np.isfinite(margin), margin, 0.0)
        u += ((bits >> np.uint64(11)) / 2.0**53 - 0.5) * half
        return u, margin

    return jittered_map


@st.composite
def cheap_cases(draw):
    """A table of 2 or 3 columns, k, the number of dither rows, how many
    rows get placed at an edge of a level-1 or level-2 table, and a seed."""
    kinds = draw(st.lists(st.sampled_from("co"), min_size=2, max_size=3))
    k = draw(st.sampled_from((2, 3, 10)))
    n = draw(st.integers(max(k, 4), 40))
    width = draw(st.integers(1, len(kinds) - 1))
    table = coded_table(kinds, n, draw(st.integers(0, n - 1)), width, draw(st.integers(0, 2**16)))
    rows = draw(st.sampled_from((1, 2, 30, 200)))
    return table, k, rows, draw(st.integers(0, 4)), draw(st.integers(0, 2**16))


@st.composite
def mixture_cases(draw):
    """A mixture of c clusters in d dimensions, a within-cluster spread,
    alpha, dither rows drawn from it with some rows moved far out, and a
    generator."""
    d = draw(st.integers(1, 5))
    c = draw(st.sampled_from((1, 2, 9, 60, 400, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    spread = draw(st.sampled_from((0.0, 0.1, 1.0)))
    a = rng.standard_normal((c, d, d)) * spread
    model = SimpleNamespace(centroids=np.round(rng.standard_normal((c, d)) * 1.5, 1),
                            covariances=np.einsum("cij,ckj->cik", a, a) / d,
                            sizes=rng.integers(2, 20, c), assignment=np.arange(c))
    alpha = draw(st.sampled_from((1e-4, 1e-3, 0.05, 1 / 3, 4.0)))
    rows = draw(st.integers(1, 80))
    X = sample_gaussian_batch(model, alpha, rng.integers(0, c, rows), rng)
    far = rng.integers(0, rows, draw(st.integers(0, 3)))
    X[far] += rng.choice([-1.0, 1.0], (len(far), d)) * 10.0 ** rng.uniform(0, 6, (len(far), d))
    return model, alpha, X


class TestCheapPass:
    @settings(max_examples=60, deadline=None)
    @given(case=cheap_cases(), jitter=st.booleans())
    def test_rows_at_later_edges_are_released_exactly(self, case, jitter):
        # rows within 1e-13 of an edge of their level-1 or level-2 table,
        # with the cheap pass's u_j as computed or moved by up to half its
        # margin
        table, k, rows, edges, seed = case
        state = prepare(table, k, seed=0)
        model, joint = state.model, state.joint
        rng = np.random.default_rng(seed)
        xt = sample_gaussian_batch(model, 1 / 3, rng.integers(0, table.n, rows), rng)
        mix = rosenblatt._mixture(model, 1 / 3)
        for _ in range(edges):
            r, j = int(rng.integers(0, rows)), int(rng.integers(1, table.d))
            prefix = rosenblatt._walk(rosenblatt._map(xt[None, r, :j], mix)[0], joint)[0, :j]
            n_next = level_table(joint, prefix)[1]
            if n_next > 1:
                xt[r, j] = level_edge(xt[r], j, int(rng.integers(1, n_next)), mix, joint)[
                    int(rng.integers(0, 2))]
        want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
        with pytest.MonkeyPatch.context() as mp:
            if jitter:
                mp.setattr(rosenblatt, "_map", cheap_jittered(rosenblatt._map))
            got = gaussian_release_indices(xt, model, 1 / 3, joint)
        assert got.tobytes() == want.tobytes()

    def test_rows_at_an_edge_are_flagged_and_placed_exactly(self, monkeypatch):
        # 40 rows of one prefix, placed 1e-14 apart around each edge of its
        # level-1 table: the cheap pass flags them, and the exact map of
        # the flagged rows places each on the side of its edge
        table = make_table(np.column_stack([np.arange(60) % 2, np.arange(60) % 7]))
        state = prepare(table, 3, seed=0)
        model, joint = state.model, state.joint
        mix = rosenblatt._mixture(model, 1 / 3)
        row = np.array([0.1, 0.0])
        x1 = np.concatenate([level_edge(row, 1, e, mix, joint)[0] + 1e-14 * np.arange(-4, 4)
                             for e in range(1, 7)])
        xt = np.column_stack([np.full(len(x1), 0.1), x1])
        want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
        assert len(np.unique(want[:, 1])) == 7
        walk, flagged = rosenblatt._walk, []

        def counted_walk(u, joint, *args):
            out = walk(u, joint, *args)
            flagged.append((u.shape[1], int((out[:, -1] < 0).sum())))
            return out

        monkeypatch.setattr(rosenblatt, "_walk", counted_walk)
        got = gaussian_release_indices(xt, model, 1 / 3, joint)
        assert got.tobytes() == want.tobytes()
        # the main walk and the redo's: every key branches at level 1, so
        # no walk on u~_0 alone runs first
        assert flagged == [(2, len(xt)), (2, 0)]

    @settings(max_examples=80, deadline=None)
    @given(case=mixture_cases())
    def test_float32_pass_within_half_its_margin(self, case):
        # the float32 cheap pass's u~ lies within half its margin of the
        # exact u, with the first column mapped (the priors' level) or
        # skipped, and within 3 R of the serial reference's Page average in
        # float64, R = (margin - delta) / 2 its float32 term: the Page
        # form's slope is at most 1.11 where Phi's is 0.4, and |z| times it
        # at most 0.67 where |z| phi(z) < 0.25, so R's terms bound the
        # float32 pass's distance to the exact-arithmetic Page average
        # within a factor 2.8. Rows of an infinite margin are left to the
        # redo
        model, alpha, X = case
        c, d = len(model.sizes), X.shape[1]
        mix = rosenblatt._mixture(model, alpha)
        single = rosenblatt._single(mix, X)
        if single is None:  # out of float32's safe range: nothing to check
            return
        u = rosenblatt._map(X, mix)[0]
        page = reference_forward(X, model, alpha, cdf=page_cdf)
        delta = rosenblatt._cheap_delta(c)
        eps = np.finfo(float).eps
        for skip in {0, min(1, d - 1)}:
            got, margin = rosenblatt._map(X, mix, bool(skip), single)
            assert (margin[:, :skip] == 0).all() and (margin[:, skip:] > delta).all()
            sure = np.isfinite(margin[:, skip:])
            gap = np.abs(got[:, skip:] - u[:, skip:])[sure]
            assert (gap <= margin[:, skip:][sure] / 2).all()
            r = (margin[:, skip:][sure] - delta) / 2
            gap_page = np.abs(got[:, skip:] - page[:, skip:])[sure]
            assert (gap_page <= 3 * r + 2 * (c + 3) * eps).all()

    @settings(max_examples=40, deadline=None)
    @given(case=mixture_cases())
    def test_float32_margin_is_the_proofs_sum(self, case):
        # each row's float32 margin is delta + 2 R, R the sum that
        # _single_margin's docstring proves, rebuilt here cluster by cluster
        # in float64 from the largest float32 posterior log the pass
        # computed, which lies within the proof's A + H Q of the exact one
        # (not within some u |l|: the float32 residuals err by nu a_j)
        model, alpha, X = case
        first = slice(0, 400)  # the loops below take a while past that
        model = SimpleNamespace(centroids=model.centroids[first], sizes=model.sizes[first],
                                covariances=model.covariances[first])
        mix = rosenblatt._mixture(model, alpha)
        single = rosenblatt._single(mix, X)
        if single is None:
            return
        centroids, L, diag, log_diag, prior, log_prior = mix
        c, d = len(prior), X.shape[1]
        u = 2.0**-24 + np.finfo(float).eps

        def gamma(k):
            return k * u / (1 - k * u)

        nu = gamma(d + 4)
        a, b = np.zeros((c, d)), np.zeros((c, d))
        for ci in range(c):
            for j in range(d):
                rho = [abs(L[ci, j, k]) / diag[ci, j] for k in range(j)]
                a[ci, j] = (2 * abs(centroids[ci, j]) / diag[ci, j]
                            + (1 + nu) * sum(r * a[ci, k] for k, r in enumerate(rho)))
                b[ci, j] = 2 * sum(rho) + (1 + nu) * sum(r * (b[ci, k] + 1) for k, r in enumerate(rho))
        a, b = a.max(axis=0), b.max(axis=0)
        lp = log_prior - (log_prior.max() + log_prior.min()) / 2
        ld = log_diag - (log_diag.max(axis=0) + log_diag.min(axis=0)) / 2
        z = np.empty((len(X), c, d))
        for j in range(d):
            z[:, :, j] = (X[:, None, j] - centroids[:, j]
                          - (z[:, :, :j] * L[None, :, j, :j]).sum(axis=2)) / diag[:, j]
        S = gamma(2 * c + 1) / 2
        T = (rosenblatt._TANH32_ERR * u + 0.45 * gamma(5)) / 2
        delta = rosenblatt._cheap_delta(c)
        single_margin, tops = rosenblatt._single_margin, {}

        def recorded(single, j, top):
            tops[j] = top.copy()  # unset at j = 0, which reads no top
            return single_margin(single, j, top)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rosenblatt, "_single_margin", recorded)
            got = rosenblatt._map(X, mix, False, single)[1]
        for j in range(d):
            if j == 0:
                omega = np.full(len(X), u)
                reach = 0.4 * nu * a[0]
            else:
                v = lp - ld[:, :j].sum(axis=1)
                lam = (np.abs(lp) + np.abs(ld[:, :j]).sum(axis=1)).max()
                spread = v.max() - v.min()
                Q = (z[:, :, :j] ** 2).sum(axis=2)
                kappa = np.sqrt(2 * (np.log(c) + spread + j / 2))
                B = nu * a[:j].max() * np.sqrt(j)
                A = gamma(2 * j + 1) * lam + u * spread + rosenblatt._EXP32_ERR * u + B * kappa / 2
                H = (gamma(2 * j + 1) / 2 + nu * (b[:j].max() * np.sqrt(j) + 1) + u / 2
                     + B / (2 * kappa))
                top = tops[j].astype(float)
                assert (np.abs(top - (v - Q / 2).max(axis=1)) <= A + H * Q.max(axis=1)).all()
                D = (np.log(c) + v.max() - top + A) / (1 - 2 * H)
                omega = A + 2 * H * D
                reach = 0.4 * nu * (a[j] + b[j] * np.sqrt(2 * np.maximum(D, 0)))
            small = np.minimum(omega, 1e-3)
            R = 1.01 * (S + T + reach + 0.25 * nu + np.exp(small) * np.expm1(small))
            want = np.where(omega <= 1e-3, delta + 2 * R, np.inf)
            clear = np.abs(omega - 1e-3) > 1e-6  # off the cutoff, which the float32 top may tip
            assert (np.isfinite(got[clear, j]) == np.isfinite(want[clear])).all()
            sure = clear & np.isfinite(want)
            np.testing.assert_allclose(got[sure, j] - delta, want[sure] - delta, rtol=1e-5)

    @pytest.mark.parametrize("case", ["alpha=1e-9", "alpha=1e300", "scaled 1e30",
                                      "tiny covariances", "binary x0"])
    def test_float32_range(self, monkeypatch, case):
        # releases at a tiny and a huge alpha, on a column scaled by 1e30,
        # with covariances of 1e-50 between columns (rounding noise a CSV's
        # clusters can carry, whose factor entries underflow in float32),
        # and on a binary x0 with two 3-decimal normal columns, whose
        # level-1 tables are too large for the cheap rule while its level-2
        # tables are not: any warning (an overflow in a float32 cast, say)
        # fails the suite, the one main map runs exact just where the
        # constants leave float32's safe range or a level does not pay, and
        # the bytes are the exact path's
        if case == "binary x0":
            rng = np.random.default_rng(5)
            table = make_table(np.column_stack([rng.integers(0, 2, 4000),
                                                np.round(rng.standard_normal((4000, 2)), 3)]))
        else:
            table = workload_table("ordinal")
        if case == "scaled 1e30":
            table = make_table(table.qi * np.array([1e30, 1.0, 1.0]))
        alpha = {"alpha=1e-9": 1e-9, "alpha=1e300": 1e300}.get(case, 1 / 3)
        state = prepare(table, 10, seed=0)
        if case == "tiny covariances":
            cov = state.model.covariances
            cov[:, 1, 0] = cov[:, 0, 1] = cov[:, 1, 0] + 1e-50
            low = np.abs(_loaded_cholesky(state.model, alpha)[:, 1, 0])
            assert ((low > 0) & (low < np.finfo(np.float32).tiny)).any()
        if case == "binary x0":
            delta = rosenblatt._cheap_delta(len(state.model.sizes))
            sizes, deep = rosenblatt._key_tables(state.joint)
            assert rosenblatt._mapped_width(state.joint, deep) == 3
            assert rosenblatt._cheap_levels(state.joint, sizes, range(2, 3), delta)
            assert not rosenblatt._cheap_levels(state.joint, sizes, range(1, 3), delta)
        forward, maps = rosenblatt._map, []

        def counted_map(X, mix, skip_first=False, single=None):
            maps.append((len(X), single is not None))
            return forward(X, mix, skip_first, single)

        xt = sample_gaussian_batch(state.model, alpha, np.arange(4000), np.random.default_rng(3))
        want = inverse_empirical_indices(forward_gaussian(xt, state.model, alpha), state.joint)
        monkeypatch.setattr(rosenblatt, "_map", counted_map)
        got = gaussian_release_indices(xt, state.model, alpha, state.joint)
        assert got.tobytes() == want.tobytes()
        float32 = case in ("scaled 1e30", "tiny covariances")
        assert [single for rows, single in maps if rows == len(xt)] == [float32]
        assert any(single for _, single in maps) == float32


@st.composite
def walk_cases(draw):
    """Ordinal or continuous records of 1 to 3 columns, a level j and a
    generator."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        qi = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)
    else:
        qi = np.round(rng.normal(size=(n, d)), 1)
    return qi, draw(st.integers(0, d - 1)), rng


@settings(max_examples=80, deadline=None)
@given(case=walk_cases())
def test_walk_takes_one_margin_rule(case):
    # a zero margin gives the plain walk's bytes; an infinite margin from
    # column j on gives those of the walk of u's first j columns, the rule
    # for a column not mapped; and a finite margin around an edge of row
    # 0's level-j table flags that row -1 from level j on, and no other
    qi, j, rng = case
    joint = build_empirical_joint(qi)
    u = rng.random((30, joint.d))
    prefix = inverse_empirical_indices(u, joint)[0, :j]
    s, n_next = level_table(joint, prefix)
    if n_next > 1:  # u_0j on an edge of the table
        u[0, j] = joint.flat_trie[j][1][s + rng.integers(0, n_next - 1)] + _U_TOL
    ref = reference_tables(qi)
    plain = np.array([reference_inverse(row, ref, joint.d) for row in u], dtype=np.intp)
    walk = rosenblatt._walk
    assert walk(u, joint, np.zeros(u.shape)).tobytes() == plain.tobytes()
    margin = np.zeros(u.shape)
    margin[:, j:] = np.inf
    assert walk(u, joint, margin).tobytes() == walk(u[:, :j], joint).tobytes()
    margin = np.zeros(u.shape)
    margin[0, j] = 1e-9
    got = walk(u, joint, margin)
    assert got[1:].tobytes() == plain[1:].tobytes()
    assert got[0, :j].tolist() == plain[0, :j].tolist()
    assert (got[0, j:] == -1).all() if n_next > 1 else got[0].tolist() == plain[0].tolist()


@settings(max_examples=80, deadline=None)
@given(case=walk_cases(), margins=st.lists(st.sampled_from([0.0, 1e-9, 0.1, np.inf]),
                                           min_size=30, max_size=30))
def test_walk_root_positions_equal_a_per_row_search(case, margins):
    # the root level's entry or flag of each row is the one a per-row
    # np.searchsorted on the root table gives for u_0 - margin - _U_TOL,
    # -inf under an infinite margin, with the edge above against
    # u_0 + margin - _U_TOL, +inf there; u_0 is drawn on the edges too
    qi, _, rng = case
    joint = build_empirical_joint(qi)
    idx, cumfrac, starts, lengths = joint.flat_trie[0]
    root = cumfrac[starts[0]:starts[0] + lengths[0]]
    u = rng.random((30, joint.d))
    u[::3, 0] = np.minimum(rng.choice(root, 10) + _U_TOL, 1.0)
    margin = np.zeros(u.shape)
    margin[:, 0] = margins
    want = []
    for u0, m in zip(u[:, 0], margins):
        pos = np.searchsorted(root, u0 - m - _U_TOL)
        node = min(pos, len(root) - 1)
        unsure = pos < len(root) - 1 and root[node] < u0 + m - _U_TOL
        want.append(-1 if unsure else idx[starts[0] + node])
    assert rosenblatt._walk(u, joint, margin)[:, 0].tolist() == want


class TestThreads:
    def test_no_thread_below_the_threshold(self, dithered, monkeypatch):
        # fewer than 2 * _THREAD_BLOCKS blocks start no thread, whatever the
        # CPU count, and neither do as many rows mapped by the float32 cheap
        # pass, whose blocks are twice as long; 9 blocks start one. The
        # bits stay the serial reference's
        xt, model = dithered
        submitted = []

        class Pool(rosenblatt.ThreadPoolExecutor):
            def submit(self, *args):
                submitted.append(args)
                return super().submit(*args)

        monkeypatch.setattr(rosenblatt, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(rosenblatt, "_usable_cpus", lambda: 4)
        rows = block_rows(len(model.sizes))
        assert len(xt) == 8 * rows + 19 and rosenblatt._THREAD_BLOCKS == 4
        ref = reference_forward(xt, model, 1 / 3)
        small = xt[:7 * rows]
        assert forward_gaussian(small, model, 1 / 3).tobytes() == ref[:7 * rows].tobytes()
        mix = rosenblatt._mixture(model, 1 / 3)
        rosenblatt._map(xt, mix, True, rosenblatt._single(mix, xt))
        assert submitted == []
        assert forward_gaussian(xt, model, 1 / 3).tobytes() == ref.tobytes()
        assert len(submitted) == 1

    def test_cheap_pass_rows_do_not_depend_on_blocks_or_threads(self, dithered, monkeypatch):
        # the cheap pass's u and margins, serial, on a thread per block,
        # and row by row
        xt, model = dithered
        mix = rosenblatt._mixture(model, 1 / 3)
        single = rosenblatt._single(mix, xt)
        assert single is not None
        want = np.hstack(rosenblatt._map(xt, mix, True, single))
        assert (want[:, 3] == 0).all()
        assert (want[:, 4:] > rosenblatt._cheap_delta(len(model.sizes))).all()
        monkeypatch.setattr(rosenblatt, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(rosenblatt, "_THREAD_BLOCKS", 1)
        got = np.hstack(rosenblatt._map(xt, mix, True, single))
        assert got.tobytes() == want.tobytes()
        for a, b in [(0, 1), (5, 90), (84, 86), (170, 355)]:
            got = np.hstack(rosenblatt._map(xt[a:b], mix, True, single))
            assert got.tobytes() == want[a:b].tobytes()


class TestReleaseShape:
    def test_dither_of_another_width_rejected(self):
        table = coded_table("ccc", 40, 0, 1, 5)
        state = prepare(table, 3, seed=0)
        model, joint = state.model, state.joint
        xt = sample_gaussian_batch(model, 1 / 3, np.arange(40), np.random.default_rng(0))
        for bad in (np.column_stack([xt, xt[:, 0]]), xt[:, :2], xt[:, 0], [[0.0] * 4]):
            with pytest.raises(ShapeError, match=r"expected an \(N, 3\) array"):
                gaussian_release_indices(bad, model, 1 / 3, joint)
        want = gaussian_release_indices(xt, model, 1 / 3, joint)
        got = gaussian_release_indices(xt.tolist(), model, 1 / 3, joint)
        assert got.tobytes() == want.tobytes()

    def test_no_rows(self):
        # no dither rows give a (0, d) release, as the full path does: the
        # interpolant declines on an empty first column
        state, mix = edge_table()
        model, joint = state.model, state.joint
        xt = np.zeros((0, 2))
        assert rosenblatt._root_interpolant(xt[:, 0], mix) is None
        want = inverse_empirical_indices(forward_gaussian(xt, model, 1 / 3), joint)
        got = gaussian_release_indices(xt, model, 1 / 3, joint)
        assert got.shape == (0, 2) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
