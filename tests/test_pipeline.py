import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon.dataset import TableSchema, build_empirical_joint, load_table, round_sig
from dpkanon.errors import DomainError
from dpkanon.pipeline import (
    METHODS,
    anonymize,
    prepare,
    resample_within_clusters,
    transform,
    write_anonymized_csv,
    write_sidecar,
)
from dpkanon.synth import synthetic_table

from conftest import empirical_pmf_exact, make_table, resample_pmf


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
        for idx in state.model.members:
            assert np.allclose(anon.qi_hat[idx], anon.qi_hat[idx[0]])

    def test_permute_preserves_cluster_multisets(self, table, state):
        anon = transform(state, "permute")
        for idx in state.model.members:
            assert row_multiset(anon.qi_hat[idx]) == row_multiset(table.qi[idx])

    def test_resample_stays_within_cluster(self, table, state):
        anon = transform(state, "resample")
        for idx in state.model.members:
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


class TestResampleHelpers:
    def test_permutation_is_bijection(self, state):
        rng = np.random.default_rng(0)
        src = resample_within_clusters(state.model, rng, with_replacement=False)
        assert sorted(src.tolist()) == list(range(state.model.n))
        for idx in state.model.members:
            assert sorted(src[idx].tolist()) == sorted(idx.tolist())

    def test_with_replacement_stays_in_cluster(self, state):
        rng = np.random.default_rng(1)
        src = resample_within_clusters(state.model, rng, with_replacement=True)
        for idx in state.model.members:
            assert set(src[idx].tolist()) <= set(idx.tolist())

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
        # reference: the per-cell repr(float(v)) writer; signed zeros, tiny
        # and huge values, and string ids
        base = transform(state, "centroid")
        qi = base.qi_hat.copy()
        qi[:4, 0] = [-0.0, 1e-310, 1.7976931348623157e308, 0.1 + 0.2]
        anon = dataclasses.replace(base, qi_hat=qi,
                                   record_ids=tuple(f"r{i}" for i in range(len(qi))))
        p = tmp_path / "anon.csv"
        write_anonymized_csv(anon, p, response_name="y")
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record_id"] + [c.name for c in anon.columns] + ["y"])
            for rid, row, y in zip(anon.record_ids, anon.qi_hat, anon.response):
                writer.writerow([rid] + [repr(float(v)) for v in row] + [repr(float(y))])
        assert p.read_bytes() == ref.read_bytes()

    def test_csv_floats_exact(self, tmp_path, state):
        anon = transform(state, "gaussian")
        p = tmp_path / "anon.csv"
        write_anonymized_csv(anon, p)
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        vals = np.array([[float(v) for v in r[1:-1]] for r in rows[1:]])
        assert np.array_equal(vals, anon.qi_hat)
