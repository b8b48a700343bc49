from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpkanon.dataset import (
    TableSchema,
    build_empirical_joint,
    group_rows,
    load_table,
    round_sig,
    searchsorted_segments,
    standardize,
)
from dpkanon.errors import (
    DomainError,
    EmptyInputError,
    ParseError,
    SchemaError,
    ShapeError,
)
from dpkanon.pipeline import anonymize
from dpkanon.rosenblatt import inverse_empirical_indices

from conftest import index_rows, make_table


SCHEMA = TableSchema(qi=("age", "sex"), response="cost")


def write(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text)
    return p


class TestLoadTable:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "age,sex,cost\n30,0,100.5\n40,1,200\n")
        t = load_table(p, SCHEMA)
        assert t.n == 2 and t.d == 2
        assert t.qi.tolist() == [[30, 0], [40, 1]]
        assert t.response.tolist() == [100.5, 200.0]
        assert t.record_ids == (0, 1)

    def test_missing_response_column(self, tmp_path):
        p = write(tmp_path, "age,sex\n30,0\n")
        with pytest.raises(SchemaError, match="cost"):
            load_table(p, SCHEMA)

    def test_parse_error_cites_row(self, tmp_path):
        p = write(tmp_path, "age,sex,cost\n30,0,100\nabc,1,200\n")
        with pytest.raises(ParseError, match="row 3.*age"):
            load_table(p, SCHEMA)

    def test_short_row_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "age,sex,cost\n30,0,100\n40,1\n")
        with pytest.raises(ParseError, match="row 3, column 'cost': missing"):
            load_table(p, SCHEMA)

    @pytest.mark.parametrize("row, column", [
        ("30,nan,100", "sex"), ("inf,0,100", "age"), ("30,0,-inf", "cost"),
        ("30,0,1e999", "cost"),
    ])
    def test_nonfinite_value_names_row_and_column(self, tmp_path, row, column):
        p = write(tmp_path, f"age,sex,cost\n40,1,200\n{row}\n")
        with pytest.raises(ParseError, match=f"row 3, column '{column}'"):
            load_table(p, SCHEMA)

    def test_empty_rows(self, tmp_path):
        p = write(tmp_path, "age,sex,cost\n")
        with pytest.raises(EmptyInputError):
            load_table(p, SCHEMA)

    def test_declared_id_column(self, tmp_path):
        p = write(tmp_path, "id,age,sex,cost\nA,30,0,100\nB,40,1,200\n")
        t = load_table(p, TableSchema(qi=("age", "sex"), response="cost", id_col="id"))
        assert t.record_ids == ("A", "B")

    def test_repeated_header_column_names_both_positions(self, tmp_path):
        p = write(tmp_path, "age,age,sex,cost\n30,31,0,100\n")
        with pytest.raises(SchemaError, match="'age' appears twice.*columns 1 and 2"):
            load_table(p, SCHEMA)

    def test_repeated_id_names_value_and_both_rows(self, tmp_path):
        p = write(tmp_path, "id,age,sex,cost\na,30,0,100\nb,40,1,200\na,50,0,300\n")
        schema = TableSchema(qi=("age", "sex"), response="cost", id_col="id")
        with pytest.raises(ParseError, match="data.csv: column 'id': id 'a' repeats on rows 2 and 4"):
            load_table(p, schema)


    @pytest.mark.parametrize("text, message", [
        # the earlier row names the fault, whatever the fault kinds
        ("age,sex,cost\n30,0,100\n40,1\nabc,1,200\n", "row 3, column 'cost': missing"),
        ("age,sex,cost\nabc,1,200\n40,1\n", "row 2, column 'age': cannot parse"),
        ("age,sex,cost\n30,x,100\ny,0,100\n", "row 2, column 'sex': cannot parse"),
        ("age,sex,cost\n30,nan,100\n40,zz,200\n", "row 3, column 'sex': cannot parse"),
        # on one row: a missing field, then a number that does not parse
        ("age,sex,cost\nabc,1\n", "row 2, column 'cost': missing"),
        ("age,sex,cost\n30,zz,\n", "row 2, column 'sex': cannot parse"),
    ])
    def test_first_fault_in_row_major_order(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            load_table(write(tmp_path, text), SCHEMA)

    def test_unparsed_value_before_repeated_id(self, tmp_path):
        p = write(tmp_path, "id,age,sex,cost\na,30,0,100\nb,1,1,1\na,zz,0,300\nb,1,1,1\n")
        schema = TableSchema(qi=("age", "sex"), response="cost", id_col="id")
        with pytest.raises(ParseError, match="row 4, column 'age': cannot parse 'zz'"):
            load_table(p, schema)

    @pytest.mark.parametrize("data, message", [
        (b"age,sex\xff,cost\n30,0,100\n", "row 1: byte 0xff is not UTF-8 text"),
        (b"age,sex,cost\n30,0,100\n\xff3,0,4\n", "row 3: byte 0xff is not UTF-8 text"),
        # the earlier row's fault wins
        (b"age,sex,cost\nabc,0,100\n\xff3,0,4\n", "row 2, column 'age': cannot parse"),
        (b"age,sex,cost\n30,0,100\n\n40,\xc3,9\n", "row 4: byte 0xc3 is not UTF-8 text"),
        (b"age,sex,cost,note\n30,0,100," + b"x" * 131073 + b"\n",
         "row 2: field larger than field limit"),
        (b"age,sex,cost\n30,zz,100\n40,0," + b"9" * 131073 + b"\n",
         "row 2, column 'sex': cannot parse"),
        (b"age,sex,cost," + b"x" * 131073 + b"\n30,0,100\n",
         "row 1: field larger than field limit"),
    ], ids=["byte-in-header", "byte-in-body", "parse-fault-first", "byte-after-blank-row",
            "long-field", "parse-fault-before-long-field", "long-field-in-header"])
    def test_unreadable_row_names_row(self, tmp_path, data, message):
        p = tmp_path / "data.csv"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"data.csv: {message}"):
            load_table(p, SCHEMA)

    def test_cells_stripped_as_str_strip_does(self, tmp_path):
        # float() keeps the \x1c separator that str.strip() removes
        p = write(tmp_path, "age,sex,cost\n\x1c30 , 0,100\x1f\n,,\n40,1,200\n")
        t = load_table(p, SCHEMA)
        assert t.qi.tolist() == [[30, 0], [40, 1]] and t.response.tolist() == [100, 200]
        assert t.record_ids == (0, 2) and t.qi.flags.c_contiguous

    @pytest.mark.parametrize("body, qi, ids", [
        # rows of blank fields are skipped wherever they are, whatever their
        # width; a row keeps its ordinal among the file's data rows
        ("30,0,100\n,,,\n , \n40,1,200\n", [[30, 0], [40, 1]], (0, 3)),
        (",,\n\t, ,\n30,0,100\n,\n", [[30, 0]], (2,)),
        ("30,0,100\n , ,\n, \n", [[30, 0]], (0,)),
    ])
    def test_rows_of_blank_fields_skipped(self, tmp_path, body, qi, ids):
        t = load_table(write(tmp_path, "age,sex,cost\n" + body), SCHEMA)
        assert t.qi.tolist() == qi and t.record_ids == ids

    @pytest.mark.parametrize("body, message", [
        # a blank first field with another field that is not blank is a row
        ("30,0,100\n ,1,200\n", "row 3, column 'age': cannot parse ''"),
        ("30,0,100\n,,7\n", "row 3, column 'age': cannot parse ''"),
        ("30,0,100\n,1\n", "row 3, column 'cost': missing; the row has 2 of 3 fields"),
        ("30,0,100\n, ,\n,,,x\n", "row 4, column 'age': cannot parse ''"),
        ("30,0,100\n,,\n", None),
    ])
    def test_row_with_a_blank_first_field(self, tmp_path, body, message):
        p = write(tmp_path, "age,sex,cost\n" + body)
        if message is None:
            assert load_table(p, SCHEMA).record_ids == (0,)
        else:
            with pytest.raises(ParseError, match=f"data.csv: {message}"):
                load_table(p, SCHEMA)

    def test_blank_first_field_as_the_id(self, tmp_path):
        # a blank id on a row with values is an id of its own
        p = write(tmp_path, "id,age,sex,cost\n,30,0,100\n b,40,1,200\n,,,\n")
        t = load_table(p, TableSchema(qi=("age", "sex"), response="cost", id_col="id"))
        assert t.record_ids == ("", "b")

    def test_no_quasi_identifier_declared(self):
        with pytest.raises(SchemaError, match="no quasi-identifier column is declared"):
            TableSchema(qi=(), response="cost")


class TestStandardize:
    def test_two_point_column(self):
        t = make_table([[0.0], [2.0]])
        out, std = standardize(t)
        assert np.allclose(out.qi[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.isclose(std.scales[0], np.sqrt(2))
        assert np.isclose(std.means[0], 1.0)

    @pytest.mark.parametrize("value", [5.0, 0.1, 2017.0, 1e7])
    def test_constant_column_standardizes_to_zero(self, value):
        # three copies of 0.1 have a computed mean 2 ulp above 0.1 and a
        # nonzero computed sd; the column is still flagged and maps to 0
        t = make_table([[value, 0.0], [value, 1.0], [value, 3.0]], y=[value] * 3)
        out, std = standardize(t)
        assert list(std.constant_flags) == [True, False] and std.response_constant
        assert std.scales[0] == 1.0 and std.means[0] == value
        assert np.all(out.qi[:, 0] == 0.0) and np.all(out.response == 0.0)
        assert np.array_equal(std.revert_qi(out.qi), t.qi)
        assert np.array_equal(out.response * std.response_scale + std.response_mean,
                              t.response)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        t = make_table(rng.normal(size=(20, 3)) * 50 + 7, y=rng.normal(size=20))
        out, std = standardize(t)
        assert np.max(np.abs(std.revert_qi(out.qi) - t.qi)) < 1e-12
        y = out.response * std.response_scale + std.response_mean
        assert np.max(np.abs(y - t.response)) < 1e-12

    def test_nonconstant_moments(self):
        rng = np.random.default_rng(1)
        t = make_table(rng.normal(size=(50, 2)), y=rng.normal(size=50))
        out, _ = standardize(t)
        assert np.allclose(out.qi.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(out.qi.std(axis=0, ddof=1), 1, atol=1e-12)


    def test_ordinary_columns_keep_their_bits(self):
        # the plain numpy moments, bit for bit, next to a column of 1e300s
        # and one of 1e-300s that take the power-of-two path
        rng = np.random.default_rng(2)
        qi = rng.normal(size=(40, 3)) * [1e-100, 1.0, 1e100] + [3e-100, 7.0, -2e100]
        y = rng.normal(size=40) * 1e150
        wide = np.column_stack([qi, np.where(np.arange(40) % 2, 1e300, 2e300),
                                np.where(np.arange(40) % 3, 1e-300, 2e-300)])
        for t in (make_table(qi, y), make_table(wide, y)):
            _, std = standardize(t)
            assert np.array_equal(std.means[:3], qi.mean(axis=0))
            assert np.array_equal(std.scales[:3], qi.std(axis=0, ddof=1))
            assert std.response_mean == y.mean() and std.response_scale == y.std(ddof=1)

    @pytest.mark.parametrize("scale, rtol", [(1e300, 1e-15), (1e-300, 1e-15),
                                             (2.0 ** -1060, 0.0)])
    def test_wide_or_tiny_column_scaled_by_a_power_of_two(self, scale, rtol):
        # squared deviations that overflow, or underflow to 0; the column and
        # the response standardize as their codes do, within 4 ulp (a tiny
        # response keeps a normal mean and sd beside its exponent, as a tiny
        # column does), and the column reverts within rtol
        codes = np.array([1.0, 2.0] * 6)
        t = make_table(codes[:, None] * scale, y=codes * scale)
        with np.errstate(over="raise", invalid="raise"):
            out, std = standardize(t)
        unit, _ = standardize(make_table(codes[:, None], y=codes))
        assert np.all(np.abs(out.qi - unit.qi) <= 4 * np.spacing(np.abs(unit.qi)))
        assert np.all(np.abs(out.response - unit.response)
                      <= 4 * np.spacing(np.abs(unit.response)))
        assert np.allclose(std.revert_qi(out.qi), t.qi, rtol=rtol, atol=0)

    @pytest.mark.parametrize("scale", [2.0 ** -1060, 2.0 ** -1040])
    def test_subnormal_column_keeps_a_normal_scale(self, scale):
        # the column's mean and sd stay normal floats beside its exponent, so
        # it standardizes as its codes do, and centroid releases stay inside
        # its range
        codes = np.array([1.0, 2.0, 3.0, 5.0] * 3)
        other = np.arange(12.0) % 3
        t = make_table(np.column_stack([codes * scale, other]))
        out, std = standardize(t)
        unit, _ = standardize(make_table(np.column_stack([codes, other])))
        assert np.all(np.abs(out.qi - unit.qi) <= 4 * np.spacing(np.abs(unit.qi)))
        assert np.array_equal(std.revert_qi(out.qi), t.qi)
        released = anonymize(t, 3, "centroid", seed=0).qi_hat[:, 0]
        assert t.qi[:, 0].min() <= released.min() and released.max() <= t.qi[:, 0].max()

    def test_column_too_wide_for_its_standardized_values(self):
        t = make_table([[-1.5e308, 0.0]] * 11 + [[1.5e308, 1.0]])
        with pytest.raises(DomainError, match="column 'x0'"):
            standardize(t)
        t = make_table([[0.0], [1.0], [2.0]], y=[-1.5e308, -1.5e308, 1.5e308])
        with pytest.raises(DomainError, match="response"):
            standardize(t)


class TestRoundSig:
    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: abs(v) >= 1e-290))
    def test_bits_unchanged_above_1e_290(self, x):
        # the one-step scaling, which is finite for these values, on arrays
        # as before (numpy's scalar power can differ in the last bit)
        a = np.array([x, -x])
        f = 10.0 ** (11 - np.floor(np.log10(np.abs(a))))
        assert np.array_equal(round_sig(a), np.round(a * f) / f)

    @pytest.mark.parametrize("x", [5e-324, 3e-310, 1e-300, -2.5e-299, 2.2250738585072014e-308])
    def test_finite_below_1e_297(self, x):
        out = round_sig(x)
        assert out == x or abs(out - x) <= 5e-12 * abs(x)
        assert round_sig(np.array([x, 0.0, -x])).tolist() == [out, 0.0, -out]


def cell_counts(joint) -> dict:
    return dict(zip(map(tuple, joint.keys.tolist()), joint.counts.tolist()))


class TestEmpiricalJoint:
    def test_three_rows(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        assert [len(v) for v in joint.values] == [2, 2]
        assert cell_counts(joint) == {(0, 0): 1, (0, 1): 1, (1, 0): 1}
        assert joint.inverse.tolist() == [0, 1, 2]
        assert joint.total == 3

    def test_singleton(self):
        joint = build_empirical_joint(np.array([[7.0]]))
        assert cell_counts(joint) == {(0,): 1}

    def test_all_equal(self):
        joint = build_empirical_joint(np.array([[3.0], [3.0], [3.0]]))
        assert len(joint.values[0]) == 1
        assert cell_counts(joint) == {(0,): 3}
        assert joint.inverse.tolist() == [0, 0, 0]


# signed zeros, and pairs that differ only beyond 12 significant digits
_GRID = (-0.0, 0.0, 1.0, 1.0 + 1e-13, -2.5, 7.0, 1e12, 1e12 + 0.25)


@st.composite
def grid_tables(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    cols = [draw(st.lists(st.sampled_from(_GRID), min_size=n, max_size=n))
            for _ in range(d)]
    if draw(st.booleans()):  # a constant column
        cols[draw(st.integers(0, d - 1))] = [draw(st.sampled_from(_GRID))] * n
    return np.array(cols, dtype=float).T


@settings(max_examples=200, deadline=None)
@given(grid_tables())
def test_joint_groups_rows_like_a_counter(qi):
    joint = build_empirical_joint(qi)
    rows = index_rows(qi)
    keys = joint.keys.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert cell_counts(joint) == Counter(map(tuple, rows.tolist()))
    assert np.array_equal(joint.keys[joint.inverse], rows)
    assert joint.counts.min() >= 1 and joint.counts.sum() == len(qi)


@settings(max_examples=200, deadline=None)
@given(grid_tables())
def test_group_rows_groups_raw_rows_like_np_unique(qi):
    # the raw rows, not rounded: 1 and 1 + 1e-13 stay apart, -0.0 and 0.0
    # group together under the first one in input order
    rows, inv = group_rows(qi)
    want, want_inv = np.unique(qi, axis=0, return_inverse=True)
    assert np.array_equal(rows, want) and np.array_equal(inv, want_inv.ravel())
    first = np.unique(inv, return_index=True)[1]
    assert np.array_equal(np.signbit(rows), np.signbit(qi[first]))


def inverse(joint, *u):
    """Value indices the inverse chain gives for each row of uniforms."""
    return inverse_empirical_indices(np.array(u, dtype=float), joint).tolist()


class TestConditionalCdf:
    """The inverse chain on table_3rows, whose values are 1 and 2 in both
    dimensions: F(1 | ) = 2/3, F(1 | x0 = 1) = 1/2 and F(1 | x0 = 2) = 1."""

    @pytest.fixture
    def joint(self, table_3rows):
        return build_empirical_joint(table_3rows.qi)

    def test_marginal(self, joint):
        below, above = np.nextafter(2 / 3, 0), 2 / 3 + 1e-9
        assert inverse(joint, [0.3, 0.5], [below, 0.5], [above, 0.5]) == [
            [0, 0], [0, 0], [1, 0]]

    def test_conditional(self, joint):
        assert inverse(joint, [0.5, 0.3], [0.5, 0.5], [0.5, 0.5 + 1e-9]) == [
            [0, 0], [0, 0], [0, 1]]

    def test_bounds(self, joint):
        assert inverse(joint, [1e-300, 1e-300], [1.0, 1.0], [0.5, 1.0]) == [
            [0, 0], [1, 0], [0, 1]]

    def test_empty_condition(self, joint):
        # no record has x0 = 2 and x1 = 2, so no u reaches that cell
        us = [[0.9, u1] for u1 in np.linspace(0, 1, 11)]
        assert inverse(joint, *us) == [[1, 0]] * 11

    def test_condition_on_every_dimension_rejected(self, joint):
        with pytest.raises(ShapeError, match=r"expected an \(N, 2\) array"):
            inverse(joint, [0.5, 0.5, 0.5])

    def test_monotone_in_x(self, joint):
        us = np.linspace(0, 1, 40)
        for got in (inverse(joint, *[[u, 0.5] for u in us]),
                    inverse(joint, *[[0.5, u] for u in us])):
            assert got == sorted(got)


class TestInverseConditionalCdf:
    @pytest.fixture
    def joint(self, table_3rows):
        return build_empirical_joint(table_3rows.qi)

    def test_bracket(self, joint):
        assert inverse(joint, [0.5, 0.5]) == [[0, 0]]

    def test_upper_boundary(self, joint):
        assert inverse(joint, [1.0, 0.5]) == [[1, 0]]

    def test_exact_boundary_inclusive(self, joint):
        assert inverse(joint, [2 / 3, 0.5]) == [[0, 0]]

    def test_domain_errors(self, joint):
        with pytest.raises(DomainError, match="row 0, dimension 0"):
            inverse(joint, [-0.1, 0.5])
        with pytest.raises(DomainError, match="row 0, dimension 1"):
            inverse(joint, [0.5, 1.5])
        assert inverse(joint, [0.0, 0.0]) == [[0, 0]]  # exact zero clamped

    def test_round_trip_every_record(self):
        # each record's conditional CDF values, counted from the rows
        # themselves, map back onto the record
        rng = np.random.default_rng(4)
        qi = rng.integers(0, 4, size=(40, 3)).astype(float)
        joint = build_empirical_joint(qi)
        u = np.empty(qi.shape)
        for r, row in enumerate(qi):
            same_prefix = np.ones(len(qi), dtype=bool)
            for j in range(3):
                u[r, j] = np.mean(qi[same_prefix, j] <= row[j])
                same_prefix &= qi[:, j] == row[j]
        idx = inverse_empirical_indices(u, joint)
        got = np.column_stack([joint.values[j][idx[:, j]] for j in range(3)])
        assert np.array_equal(got, qi)


def test_uniform_composition_matches_pmf():
    # inverse chain fed with iid uniforms reproduces the joint PMF
    rng = np.random.default_rng(7)
    qi = rng.integers(0, 3, size=(60, 2)).astype(float)  # <= 9-cell support
    joint = build_empirical_joint(qi)
    n_draws = 100_000
    cells, hits = np.unique(inverse_empirical_indices(rng.random((n_draws, 2)), joint),
                            axis=0, return_counts=True)
    counts = dict(zip(map(tuple, cells.tolist()), hits.tolist()))
    obs = [counts.get(t, 0) for t in map(tuple, joint.keys.tolist())]
    exp = joint.counts / joint.total * n_draws
    assert sum(obs) == n_draws
    assert stats.chisquare(obs, exp).pvalue > 0.01


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_searchsorted_segments_matches_numpy(lengths, seed):
    # each of 40 rows searches one of the sorted segments, empty ones too,
    # for a value among the segment's own (ties), between them, or -inf
    # and +inf, which the certified walk's infinite margin relies on: 0 and
    # the segment's length
    rng = np.random.default_rng(seed)
    segments = [np.sort(rng.integers(0, 4, n)).astype(float) for n in lengths]
    a = np.concatenate(segments)
    offsets = np.cumsum([0] + lengths[:-1])
    rows = rng.integers(0, len(segments), 40)
    v = rng.choice([-np.inf, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, np.inf], 40)
    got = searchsorted_segments(a, offsets[rows], np.array(lengths)[rows], v)
    want = [np.searchsorted(segments[r], x, side="left") for r, x in zip(rows, v)]
    assert got.tolist() == want
    assert got[v == -np.inf].tolist() == [0] * int((v == -np.inf).sum())
    assert got[v == np.inf].tolist() == np.array(lengths)[rows][v == np.inf].tolist()
