import csv
import dataclasses
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon.dataset import Column, TableSchema, build_empirical_joint, load_table, round_sig
from dpkanon.errors import DomainError
from dpkanon.pipeline import (
    METHODS,
    AnonymizedTable,
    anonymize,
    prepare,
    resample_within_clusters,
    transform,
    write_anonymized_csv,
    write_sidecar,
)
from dpkanon.synth import synthetic_table

from conftest import cluster_members, empirical_pmf_exact, make_table, resample_pmf


@pytest.fixture(scope="module")
def table():
    return synthetic_table(60, [4, 3], dep=0.3, seed=20)


@pytest.fixture(scope="module")
def state(table):
    return prepare(table, k=5, seed=3)


def row_multiset(a):
    return sorted(map(tuple, np.asarray(a).tolist()))


class TestTransform:
    @pytest.mark.parametrize("method", METHODS)
    def test_shapes_and_passthrough(self, table, state, method):
        anon = transform(state, method)
        assert anon.qi_hat.shape == table.qi.shape
        assert np.array_equal(anon.response, table.response)
        assert anon.record_ids == table.record_ids
        assert anon.method == method

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "centroid"])
    def test_outputs_snap_to_observed_values(self, table, state, method):
        anon = transform(state, method)
        for j in range(table.d):
            observed = set(np.unique(table.qi[:, j]).tolist())
            assert set(np.unique(anon.qi_hat[:, j]).tolist()) <= observed

    def test_centroid_constant_within_cluster(self, table, state):
        anon = transform(state, "centroid")
        for idx in cluster_members(state.model):
            assert np.allclose(anon.qi_hat[idx], anon.qi_hat[idx[0]])

    def test_permute_preserves_cluster_multisets(self, table, state):
        anon = transform(state, "permute")
        for idx in cluster_members(state.model):
            assert row_multiset(anon.qi_hat[idx]) == row_multiset(table.qi[idx])

    def test_resample_stays_within_cluster(self, table, state):
        anon = transform(state, "resample")
        for idx in cluster_members(state.model):
            rows = set(map(tuple, table.qi[idx].tolist()))
            for r in idx:
                assert tuple(anon.qi_hat[r].tolist()) in rows

    def test_deterministic_per_trial(self, state):
        a = transform(state, "cell_dither", trial=4)
        b = transform(state, "cell_dither", trial=4)
        c = transform(state, "cell_dither", trial=5)
        assert np.array_equal(a.qi_hat, b.qi_hat)
        assert not np.array_equal(a.qi_hat, c.qi_hat)

    def test_cell_dither_is_resample(self, state):
        # the dither -> forward -> inverse chain lands back in the cell it
        # drew with probability n_l(cell)/n_l, so cell_dither releases
        # resample's law, and does so with resample's draw
        for trial in range(3):
            a = transform(state, "cell_dither", trial=trial)
            b = transform(state, "resample", trial=trial)
            assert a.qi_hat.tobytes() == b.qi_hat.tobytes()

    def test_resample_marginal_matches_empirical(self):
        # aggregating one draw per record, P(tuple) approaches n(tuple)/n
        t = synthetic_table(80, [3, 2], dep=0.2, seed=6)
        state = prepare(t, k=5, seed=3)
        reps = 400
        counts = {}
        for rep in range(reps):
            for row in transform(state, "resample", trial=rep).qi_hat.tolist():
                counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        total = reps * t.n
        for value, p in build_empirical_joint(t.qi).pmf().items():
            band = 4 * np.sqrt(p * (1 - p) / total)
            assert abs(counts.get(value, 0) / total - p) < band

    def test_unknown_method(self, state):
        with pytest.raises(DomainError):
            transform(state, "shuffle")

    @pytest.mark.parametrize("method", METHODS)
    def test_only_gaussian_builds_the_joint(self, table, method):
        state = prepare(table, k=5, seed=3)
        transform(state, method)
        built = {"joint", "orig_values"} & set(vars(state))
        assert built == ({"joint", "orig_values"} if method == "gaussian" else set())

    def test_centroid_inside_each_cluster_range(self):
        # a 0/1 column standardizes to codes whose round trip rounds, so a
        # cluster of 0s would release 8.9e-16 without the clip
        t = synthetic_table(60, [2, 3], dep=0.3, seed=6)
        state = prepare(t, k=3, seed=0)
        anon = transform(state, "centroid")
        pure_zeros = 0
        for idx in cluster_members(state.model):
            rows, released = t.qi[idx], anon.qi_hat[idx]
            assert np.all((rows.min(axis=0) <= released) & (released <= rows.max(axis=0)))
            pure = np.all(rows == rows[0], axis=0)
            assert np.array_equal(released[:, pure], rows[:, pure])
            pure_zeros += bool(pure[0] and rows[0, 0] == 0.0)
        assert pure_zeros > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1e-3, 1.0, 1e6]), st.integers(0, 6))
def test_orig_values_align_with_joint_values(seed, scale, decimals):
    # signed zeros, values that differ only in the 13th significant digit,
    # and rounded normals of several magnitudes
    rng = np.random.default_rng(seed)
    n = 30
    qi = np.column_stack([
        rng.choice([-0.0, 0.0, 1.0, 2.5], n),
        1e12 + rng.integers(0, 4, n),
        np.round(rng.normal(size=n) * scale, decimals),
    ])
    t = make_table(qi, y=rng.normal(size=n))
    state = prepare(t, k=3, seed=seed)
    for j, v in enumerate(state.orig_values):
        assert np.isin(v, t.qi[:, j]).all()
        std = state.standardizer
        assert np.array_equal(round_sig((v - std.means[j]) / std.scales[j]),
                              state.joint.values[j])


@st.composite
def small_tables(draw):
    """Tables of 2 to 30 rows and 1 to 3 columns, each column ordinal codes,
    rounded normals, codes scaled near 1e+-300 or a constant; k from 2 to n,
    with k = n drawn often."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    k = draw(st.one_of(st.integers(2, n), st.just(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["ordinal", "normal", "extreme", "constant"]),
                              min_size=d, max_size=d)):
        if kind == "ordinal":
            cols.append(rng.integers(0, draw(st.integers(1, 4)), n).astype(float))
        elif kind == "normal":
            cols.append(np.round(rng.normal(size=n) * 10.0, draw(st.integers(0, 3))))
        elif kind == "extreme":
            scale = draw(st.sampled_from([1e300, 1e-300, 2.0 ** -1060]))
            cols.append(rng.integers(1, 4, n) * scale)
        else:
            cols.append(np.full(n, draw(st.sampled_from([0.0, 0.1, 7.0, -2017.5]))))
    return make_table(np.column_stack(cols), np.round(rng.normal(size=n), 2)), k


def tuples(a) -> Counter:
    return Counter(map(tuple, np.asarray(a).tolist()))


@settings(max_examples=150, deadline=None)
@given(case=small_tables(), method=st.sampled_from(METHODS), seed=st.integers(0, 99))
def test_release_guarantees(case, method, seed):
    table, k = case
    anon = anonymize(table, k, method, seed=seed)
    assert np.array_equal(anon.response, table.response)
    released = tuples(anon.qi_hat)
    if method == "centroid":
        assert min(released.values()) >= k
    elif method == "permute":
        assert released == tuples(table.qi)
    elif method == "gaussian":  # a value stands for those equal to 12 digits
        assert set(tuples(round_sig(anon.qi_hat))) <= set(tuples(round_sig(table.qi)))
    else:
        assert set(released) <= set(tuples(table.qi))
    with tempfile.TemporaryDirectory() as tmp:
        files = [os.path.join(tmp, name) for name in ("a.csv", "b.csv")]
        write_anonymized_csv(anon, files[0])
        write_anonymized_csv(anonymize(table, k, method, seed=seed), files[1])
        with open(files[0], "rb") as a, open(files[1], "rb") as b:
            assert a.read() == b.read()


def loop_draw(model, rng, with_replacement):
    """The per-cluster reference: one rng.choice or rng.permutation call
    per cluster, in cluster order."""
    out = np.empty(model.n, dtype=int)
    for idx in cluster_members(model):
        if with_replacement:
            out[idx] = rng.choice(idx, size=len(idx), replace=True)
        else:
            out[idx] = rng.permutation(idx)
    return out


class CountingGenerator:
    """A Generator that counts the calls made on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestResampleHelpers:
    def test_permutation_is_bijection(self, state):
        rng = np.random.default_rng(0)
        src = resample_within_clusters(state.model, rng, with_replacement=False)
        assert sorted(src.tolist()) == list(range(state.model.n))
        for idx in cluster_members(state.model):
            assert sorted(src[idx].tolist()) == sorted(idx.tolist())

    def test_with_replacement_stays_in_cluster(self, state):
        rng = np.random.default_rng(1)
        src = resample_within_clusters(state.model, rng, with_replacement=True)
        for idx in cluster_members(state.model):
            assert set(src[idx].tolist()) <= set(idx.tolist())

    @pytest.mark.parametrize("k", [2, 5, 7, 13])
    def test_with_replacement_equals_per_cluster_loop(self, table, k):
        # k = 7 and 13 leave clusters of two sizes; the draws run on after
        # one another from one stream
        model = prepare(table, k=k, seed=3).model
        batched, loop = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(3):
            got = resample_within_clusters(model, batched, with_replacement=True)
            want = loop_draw(model, loop, with_replacement=True)
            assert got.tobytes() == want.tobytes()

    def test_permute_orders_uniform_within_clusters(self):
        # 30 records, k = 3: ten clusters of three, each drawn in one of six
        # orders; over 600 draws each order of each cluster is seen
        # 100 +- 5 binomial sds (sd = sqrt(600 (1/6) (5/6)) = 9.1) times
        t = make_table(np.random.default_rng(4).normal(size=(30, 2)))
        model = prepare(t, k=3, seed=0).model
        assert model.sizes.tolist() == [3] * 10
        members = np.array(cluster_members(model))
        rng = np.random.default_rng(5)
        trials = 600
        counts = Counter()
        for _ in range(trials):
            src = resample_within_clusters(model, rng, with_replacement=False)[members]
            assert np.array_equal(np.sort(src, axis=1), members)
            ranks = np.argsort(src, axis=1)
            counts.update((ell, tuple(r)) for ell, r in enumerate(ranks.tolist()))
        assert len(counts) == 10 * 6
        sd = np.sqrt(trials * (1 / 6) * (5 / 6))
        assert max(abs(c - trials / 6) for c in counts.values()) <= 5 * sd

    @pytest.mark.parametrize("with_replacement", [True, False])
    def test_generator_calls_do_not_grow_with_clusters(self, table, with_replacement):
        calls = set()
        for k in (2, 5, 20):  # 30, 12 and 3 clusters
            rng = CountingGenerator(0)
            resample_within_clusters(prepare(table, k=k, seed=3).model, rng, with_replacement)
            calls.add(rng.calls)
        assert calls == {1}

    def test_resample_pmf_equals_empirical(self, state):
        # mixture of within-cluster empirical laws collapses to the overall
        # empirical law, as exact rationals
        assert resample_pmf(state) == empirical_pmf_exact(state.joint)


class TestAnonymize:
    def test_end_to_end(self, table):
        anon = anonymize(table, k=4, method="gaussian", seed=7)
        assert anon.k == 4 and anon.seed == 7
        assert anon.qi_hat.shape == table.qi.shape

    def test_matches_prepare_plus_transform(self, table):
        a = anonymize(table, k=4, method="cell_dither", seed=9)
        b = transform(prepare(table, k=4, seed=9), "cell_dither")
        assert np.array_equal(a.qi_hat, b.qi_hat)


class TestOutputFiles:
    def test_csv_round_trip(self, tmp_path, table, state):
        anon = transform(state, "resample")
        p = tmp_path / "anon.csv"
        write_anonymized_csv(anon, p, response_name="y")
        schema = TableSchema(
            qi=tuple(c.name for c in anon.columns), response="y", id_col="record_id"
        )
        back = load_table(p, schema)
        assert np.array_equal(back.qi, anon.qi_hat)
        assert np.array_equal(back.response, anon.response)

    def test_sidecar_fields(self, tmp_path, state):
        anon = transform(state, "centroid")
        p = tmp_path / "anon.json"
        write_sidecar(anon, p)
        meta = json.loads(p.read_text())
        assert meta["method"] == "centroid"
        assert meta["k"] == state.k
        assert meta["n"] == state.table.n
        again = tmp_path / "again.json"
        write_sidecar(anon, again)
        assert again.read_bytes() == p.read_bytes()

    def test_csv_bytes_match_per_cell_repr(self, tmp_path, state):
        # reference: one csv.writer row per record with Python floats; -0.0
        # beside 0.0 in a column, tiny and huge values, and string ids that
        # csv must quote
        base = transform(state, "centroid")
        qi = base.qi_hat.copy()
        qi[:6, 0] = [-0.0, 1e-310, 1.7976931348623157e308, 0.1 + 0.2, 0.0, -0.0]
        y = base.response.copy()
        y[:3] = [0.0, -0.0, 5e-324]
        ids = tuple(f"r{i}" for i in range(len(qi) - 3)) + ("a,b", 'say "hi"', "x\ny")
        anon = dataclasses.replace(base, qi_hat=qi, response=y, record_ids=ids)
        p = tmp_path / "anon.csv"
        write_anonymized_csv(anon, p, response_name="y")
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_id"] + [c.name for c in anon.columns] + ["y"])
            for rid, row, v in zip(anon.record_ids, anon.qi_hat.tolist(), anon.response.tolist()):
                writer.writerow([rid, *row, v])
        assert p.read_bytes() == ref.read_bytes()
        with open(p, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:7]] == [
            "-0.0", "1e-310", "1.7976931348623157e+308", "0.30000000000000004", "0.0", "-0.0"]
        assert [r[-1] for r in rows[1:4]] == ["0.0", "-0.0", "5e-324"]
        assert [r[0] for r in rows[-3:]] == list(ids[-3:])

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(
        st.one_of(
            # the characters csv quotes or keeps, and any other text
            st.text(st.sampled_from('ab7_-., "\'\r\n\t;é€😀'), max_size=6),
            st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                    max_size=4),
            st.integers(-10**20, 10**20)),
        min_size=1, max_size=12, unique=True),
        seed=st.integers(0, 2**32 - 1))
    def test_csv_bytes_match_writerows(self, ids, seed):
        # ids with commas, quotes, CR, LF, spaces, empty and non-ASCII text:
        # each data row joined by hand has csv.writer.writerows' bytes
        rng = np.random.default_rng(seed)
        n = len(ids)
        qi = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
        qi[rng.random((n, 2)) < 0.2] = -0.0
        anon = AnonymizedTable(qi, rng.normal(size=n), (Column("a b"), Column('q"')),
                               tuple(ids), "centroid", 2, 0, 1.0, 1.0)
        with tempfile.TemporaryDirectory() as tmp:
            p, ref = os.path.join(tmp, "anon.csv"), os.path.join(tmp, "ref.csv")
            write_anonymized_csv(anon, p, response_name="y,1")
            with open(ref, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["record_id", "a b", 'q"', "y,1"])
                writer.writerows(zip(ids, *qi.T.tolist(), anon.response.tolist()))
            with open(p, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()

    def test_csv_floats_exact(self, tmp_path, state):
        anon = transform(state, "gaussian")
        p = tmp_path / "anon.csv"
        write_anonymized_csv(anon, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        vals = np.array([[float(v) for v in r[1:-1]] for r in rows[1:]])
        assert np.array_equal(vals, anon.qi_hat)
