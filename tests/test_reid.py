import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dpkanon.dataset import round_sig, standardize
from dpkanon.dither import substream
from dpkanon.errors import DomainError, ShapeError
from dpkanon.pipeline import prepare, transform
from dpkanon.reid import _CH_MATCH, _TIE_TOL, ReidReport, match_min_distance, reid_trials
from dpkanon.synth import synthetic_table

from conftest import make_table


def as_anon(table, qi_hat, method="resample", k=2, seed=0):
    import dataclasses

    from dpkanon.pipeline import AnonymizedTable

    return AnonymizedTable(
        qi_hat=np.asarray(qi_hat, dtype=float),
        response=table.response.copy(),
        columns=table.columns,
        record_ids=table.record_ids,
        method=method,
        k=k,
        seed=seed,
        alpha=1 / 3,
        w=1.0,
    )


def reference_match(original, anon, rng):
    """The dense matcher: the full (n, m) squared-distance matrix, then one
    rng.choice per record over its ties."""
    _, std = standardize(original)
    X = std.apply_qi(original.qi)
    Xh = std.apply_qi(anon.qi_hat)
    d2 = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * X @ Xh.T
        + np.einsum("ij,ij->i", Xh, Xh)[None, :]
    )
    out = np.empty(len(X), dtype=int)
    for i in range(len(X)):
        row = d2[i]
        ties = np.flatnonzero(row <= row.min() + _TIE_TOL)
        out[i] = ties[0] if len(ties) == 1 else int(rng.choice(ties))
    return out


@st.composite
def match_cases(draw):
    """(original, release) pairs rich in ties: ordinal grids with repeated
    rows, constant columns, values rounded to 0-2 decimals, releases of
    four methods (centroid up to k = n), and hand-built releases."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):  # ordinal grid
        qi = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)).astype(float)
    else:
        scale = 10.0 ** draw(st.integers(-1, 2))
        qi = np.round(rng.normal(size=(n, d)) * scale, draw(st.integers(0, 2)))
    for j in range(d):
        if draw(st.integers(0, 4)) == 0:
            qi[:, j] = round(float(rng.uniform(-50, 50)), 2)
    t = make_table(qi, y=rng.normal(size=n))
    kind = draw(st.sampled_from(
        ["centroid", "resample", "permute", "gaussian", "grid", "wide", "edge",
         "single"]))
    if kind == "grid":
        # half-step offsets: records sit equidistant from several tuples
        return t, as_anon(t, qi + rng.choice([-0.5, 0.5], size=qi.shape))
    if kind == "wide":
        # one constant column of large magnitude: the expanded form's
        # rounding, not the tolerance, then decides which tuples tie. One
        # dimension keeps each product a single rounding, as in BLAS.
        big = round(float(rng.uniform(1e5, 1e7)), 2)
        t = make_table(np.full((n, 1), big), y=rng.normal(size=n))
        return t, as_anon(t, big + 0.01 * rng.integers(-6, 7, size=(n, 1)))
    if kind == "edge":
        # A column of p -2s, p 2s and 6p + 1 zeros has mean 0 and sd 1
        # exactly, so standardizing changes no bit. Each record at 0 sees
        # one tuple `near` away and one at squared distance near^2 +
        # _TIE_TOL, give or take a few ulp: the edge of the tie set.
        p = draw(st.integers(1, 4))
        col = rng.permutation(np.repeat([-2.0, 0.0, 2.0], [p, 6 * p + 1, p]))
        t = make_table(col[:, None], y=rng.normal(size=len(col)))
        near = draw(st.sampled_from([0.0, 1e-6, 1e-5, 3e-5, 1e-3]))
        far = np.sqrt(near**2 + _TIE_TOL) * (1 + draw(st.integers(-8, 8)) * 2.0**-53)
        sign = draw(st.sampled_from([-1.0, 1.0]))
        tuples = [sign * near, -sign * far, -2.0, 2.0]
        return t, as_anon(t, rng.choice(tuples, size=(len(col), 1)))
    if kind == "single":
        return t, as_anon(t, np.repeat(qi[rng.integers(0, n)][None], n, axis=0))
    k = draw(st.integers(2, n))
    state = prepare(t, k, seed=draw(st.integers(0, 9)))
    return t, transform(state, kind, trial=draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(match_cases(), st.integers(0, 2**16))
def test_matches_dense_reference(case, seed):
    t, anon = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert match_min_distance(t, anon, rng).tolist() == \
        reference_match(t, anon, ref_rng).tolist()
    assert rng.random() == ref_rng.random()


class CountingTree(cKDTree):
    """cKDTree that records how many rows each ball query takes."""

    rows = []

    def query_ball_point(self, x, r, **kwargs):
        CountingTree.rows.append(len(x))
        return super().query_ball_point(x, r, **kwargs)


@pytest.mark.parametrize("kind, ball_rows", [
    # each record's copy is its only near tuple, and a one-tuple release
    # has no second tuple, so neither needs a ball query
    ("isolated", 0), ("single", 0),
    # half-step offsets put two tuples at one distance from every record
    ("grid", 60),
])
def test_ball_query_only_where_a_second_tuple_is_near(monkeypatch, kind, ball_rows):
    rng = np.random.default_rng(41)
    if kind == "grid":
        # every record has tuples half a step away on either side
        qi = np.repeat(rng.integers(0, 4, size=(30, 2)).astype(float), 2, axis=0)
        qi_hat = qi + np.array([[0.5, 0.0], [-0.5, 0.0]] * 30)
    else:
        qi = rng.normal(size=(60, 3))
        qi_hat = qi[rng.permutation(60)] + 1e-6 * rng.normal(size=(60, 3))
        if kind == "single":
            qi_hat = np.repeat(qi_hat[:1], 60, axis=0)
    t = make_table(qi, y=rng.normal(size=60))
    anon = as_anon(t, qi_hat)
    monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
    monkeypatch.setattr(CountingTree, "rows", [])
    got = match_min_distance(t, anon, np.random.default_rng(2))
    assert got.tolist() == reference_match(t, anon, np.random.default_rng(2)).tolist()
    assert sum(CountingTree.rows) == ball_rows


def test_all_rows_tie_without_dense_matrix():
    # centroid at k = n releases one tuple, so every record ties with all n
    t = synthetic_table(2000, [10, 8, 6], dep=0.3, seed=31)
    anon = transform(prepare(t, t.n, seed=0), "centroid")
    want = reference_match(t, anon, np.random.default_rng(5))
    tracemalloc.start()
    try:
        got = match_min_distance(t, anon, np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 4e6  # one (n, n) float array takes 32 MB


class TestMatchMinDistance:
    def test_self_match_on_distinct_rows(self):
        t = make_table([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        anon = as_anon(t, t.qi)
        matched = match_min_distance(t, anon, np.random.default_rng(0))
        assert matched.tolist() == [0, 1, 2, 3]

    def test_shuffled_release_tracked(self):
        t = make_table([[0.0], [1.0], [2.0], [5.0]])
        perm = [2, 0, 3, 1]
        anon = as_anon(t, t.qi[perm])
        matched = match_min_distance(t, anon, np.random.default_rng(0))
        # record r should match the release position now holding its row
        inv = np.argsort(perm)
        assert matched.tolist() == inv.tolist()

    def test_tie_broken_uniformly(self):
        t = make_table([[0.0], [10.0]])
        anon = as_anon(t, [[-1.0], [1.0]])
        picks = [
            match_min_distance(t, anon, np.random.default_rng(s))[0]
            for s in range(200)
        ]
        frac = np.mean(np.array(picks) == 0)
        assert 0.35 < frac < 0.65

    def test_release_width_must_match_table(self):
        # a 1-column release against a 2-column table would broadcast
        t = make_table([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        anon = as_anon(t, t.qi[:, :1])
        with pytest.raises(ShapeError, match=r"shape \(4, 1\); the table has 2 columns"):
            match_min_distance(t, anon, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        rng_t = np.random.default_rng(1)
        t = make_table(rng_t.normal(size=(10, 2)), y=rng_t.normal(size=10))
        anon = as_anon(t, t.qi[::-1])
        a = match_min_distance(t, anon, np.random.default_rng(7))
        b = match_min_distance(t, anon, np.random.default_rng(7))
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def reid_table():
    return synthetic_table(60, [4, 3], dep=0.3, seed=30)


class TestReidTrials:
    @pytest.fixture
    def table(self, reid_table):
        return reid_table

    def test_report_structure(self, table):
        rep = reid_trials(prepare(table, 5, seed=1), "resample", T=20)
        assert rep.trials == 20 and rep.k == 5 and rep.method == "resample"
        assert rep.class_sizes.sum() == table.n
        assert 0.0 <= rep.average <= 1.0
        assert np.all(rep.class_freq >= 0) and np.all(rep.class_freq <= 1)
        assert np.all(rep.class_band > 0)

    def test_centroid_near_nominal_rate(self, table):
        # centroid releases are constant within a cluster, so matching is a
        # pure tie-break among about k rows: hit rate near 1/k
        rep = reid_trials(prepare(table, 5, seed=2), "centroid", T=100)
        assert abs(rep.average - 1 / 5) < 0.06

    def test_deterministic(self, table):
        a = reid_trials(prepare(table, 5, seed=3), "gaussian", T=5)
        b = reid_trials(prepare(table, 5, seed=3), "gaussian", T=5)
        assert a.to_json() == b.to_json()

    def test_state_reuse_matches(self, table):
        # a state that has already served other trials gives the report a
        # fresh one does
        state = prepare(table, 5, seed=4)
        reid_trials(state, "gaussian", T=2)
        a = reid_trials(prepare(table, 5, seed=4), "resample", T=5)
        b = reid_trials(state, "resample", T=5)
        assert a.to_json() == b.to_json()

    def test_report_reads_k_and_seed_from_state(self, table):
        # the nominal level, the clustering, the draws and the match
        # streams all come from one prepared state
        state = prepare(table, 25, seed=3)
        rep = reid_trials(state, "centroid", T=4)
        hits = sum(match_min_distance(table, transform(state, "centroid", trial=t),
                                      substream(3, _CH_MATCH, t)) == np.arange(table.n)
                   for t in range(4))
        assert rep.k == 25
        assert np.array_equal(rep.frequency, hits / 4)
        assert np.array_equal(rep.class_band,
                              3.0 * np.sqrt(0.04 * 0.96 / (4 * rep.class_sizes)))

    def test_first_release_reused(self, table, monkeypatch):
        # the caller's trial-0 release is matched instead of drawn again,
        # with the same report
        state = prepare(table, 5, seed=4)
        a = reid_trials(state, "gaussian", T=3)
        first = transform(state, "gaussian")
        drawn = []

        def counted(*args, **kwargs):
            drawn.append(kwargs.get("trial"))
            return transform(*args, **kwargs)

        monkeypatch.setattr("dpkanon.reid.transform", counted)
        b = reid_trials(state, "gaussian", T=3, first=first)
        assert a.to_json() == b.to_json() and drawn == [1, 2]

    def test_trial_count_validated(self, table):
        with pytest.raises(DomainError, match="at least 1"):
            reid_trials(prepare(table, 5), "resample", T=0)

    def test_resample_near_nominal_rate(self, table):
        # identical release and fresh trials: hit rate should sit near 1/k
        rep = reid_trials(prepare(table, 5, seed=5), "resample", T=100)
        assert rep.average <= 1 / 5 + 3 * np.sqrt(0.2 * 0.8 / 100) + 0.05

    def test_serialization(self, table):
        rep = reid_trials(prepare(table, 5, seed=6), "resample", T=5)
        parsed = json.loads(rep.to_json())
        assert parsed["k"] == 5
        assert len(parsed["classes"]) == len(rep.class_keys)
        rows = list(rep.to_csv_rows())
        assert rows[0] == ("class", "size", "frequency", "band_3sigma")
        assert len(rows) == len(rep.class_keys) + 1

    @pytest.mark.parametrize("method", ["centroid", "gaussian"])
    def test_lazy_class_statistics_serialize_as_eager_ones(self, table, method):
        # reference: the class statistics computed eagerly from the
        # per-record frequencies, as the report did before they became lazy
        rep = reid_trials(prepare(table, 5, seed=7), method, T=4)
        keys = round_sig(table.qi)
        _, inv, sizes = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        order = np.argsort(inv, kind="stable")
        starts = np.cumsum(sizes) - sizes
        classes = [tuple(r) for r in keys[order[starts]].tolist()]
        freq = [f.mean() for f in np.split(rep.frequency[order], starts[1:])]
        band = 3.0 * np.sqrt(0.2 * 0.8 / (4 * sizes))
        assert "_classes" not in vars(rep)
        assert rep.to_json() == json.dumps({
            "k": 5, "method": method, "trials": 4, "average": rep.average,
            "classes": [{"key": list(c), "size": int(s), "frequency": float(f),
                         "band_3sigma": float(b)}
                        for c, s, f, b in zip(classes, sizes, freq, band)],
        }, indent=2, sort_keys=True)
        assert list(rep.to_csv_rows())[1:] == [
            (";".join(repr(v) for v in c), int(s), float(f), float(b))
            for c, s, f, b in zip(classes, sizes, freq, band)]
        assert rep.average == float(np.mean(rep.frequency))

    def test_tiny_values_give_valid_json(self):
        # 1e-300 and 2e-300 once rounded to NaN keys, one class per record
        qi = np.array([[1e-300], [2e-300]] * 6)
        rep = ReidReport(qi=qi, frequency=np.full(12, 0.5), average=0.5,
                         trials=2, k=3, method="centroid")

        def reject(name):
            raise ValueError(name)

        parsed = json.loads(rep.to_json(), parse_constant=reject)
        assert [(c["key"], c["size"]) for c in parsed["classes"]] == [([1e-300], 6),
                                                                     ([2e-300], 6)]

    def test_csv_class_key_holds_plain_numbers(self):
        t = make_table([[0.0, 1.0], [0.0, 1.0], [2.0, 3.5], [2.0, 3.5]])
        rows = list(reid_trials(prepare(t, 2, seed=1), "resample", T=2).to_csv_rows())
        assert [r[0] for r in rows[1:]] == ["0.0;1.0", "2.0;3.5"]


@pytest.mark.parametrize("value", [2017.0, 1e7])
def test_constant_column_leaves_matches_unchanged(value):
    # a constant column standardizes to 0, so it adds no rounding to the
    # expanded-form distances and declares no false ties
    rng = np.random.default_rng(31)
    t = make_table(np.round(rng.normal(size=(400, 3)), 3), rng.normal(size=400))
    anon = transform(prepare(t, 5, seed=1), "resample")
    want = match_min_distance(t, anon, np.random.default_rng(2))
    widened = make_table(np.column_stack([t.qi, np.full(t.n, value)]), t.response)
    anon = replace(anon, qi_hat=np.column_stack([anon.qi_hat, np.full(t.n, value)]))
    assert np.array_equal(match_min_distance(widened, anon, np.random.default_rng(2)), want)
