import numpy as np
import pytest
from scipy import stats

from dpkanon.dataset import (
    EmpiricalJoint,
    TableSchema,
    build_empirical_joint,
    conditional_cdf,
    inverse_conditional_cdf,
    load_table,
    standardize,
)
from dpkanon.errors import (
    DomainError,
    EmptyConditionError,
    EmptyInputError,
    ParseError,
    SchemaError,
    ShapeError,
)

from conftest import make_table


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
        assert np.array_equal(std.revert_response(out.response), t.response)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        t = make_table(rng.normal(size=(20, 3)) * 50 + 7, y=rng.normal(size=20))
        out, std = standardize(t)
        assert np.max(np.abs(std.revert_qi(out.qi) - t.qi)) < 1e-12
        assert np.max(np.abs(std.revert_response(out.response) - t.response)) < 1e-12

    def test_nonconstant_moments(self):
        rng = np.random.default_rng(1)
        t = make_table(rng.normal(size=(50, 2)), y=rng.normal(size=50))
        out, _ = standardize(t)
        assert np.allclose(out.qi.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(out.qi.std(axis=0, ddof=1), 1, atol=1e-12)


class TestEmpiricalJoint:
    def test_three_rows(self, table_3rows):
        joint = build_empirical_joint(table_3rows.qi)
        assert [len(v) for v in joint.values] == [2, 2]
        assert joint.counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1}
        assert joint.total == 3

    def test_singleton(self):
        joint = build_empirical_joint(np.array([[7.0]]))
        assert joint.counts == {(0,): 1}

    def test_all_equal(self):
        joint = build_empirical_joint(np.array([[3.0], [3.0], [3.0]]))
        assert len(joint.values[0]) == 1
        assert joint.counts == {(0,): 3}

    @pytest.mark.parametrize("values, counts, total, error, match", [
        ([[0.0, 1.0]], {(0,): 2, (1,): 1}, 4, DomainError, "sum to 3, not the total 4"),
        ([[0.0, 1.0]], {(0,): 2, (1,): 0}, 2, DomainError, r"\(1,\): count 0"),
        ([[0.0, 1.0]], {(0, 1): 2}, 2, ShapeError, r"\(0, 1\) has 2 dimensions, expected 1"),
        ([[0.0], [0.0, 1.0]], {(0, 2): 1}, 1, DomainError, r"\(0, 2\): index 2 .* dimension 1"),
        ([[0.0], [1.0, 0.0]], {(0, 0): 1}, 1, DomainError, "dimension 1 must be strictly"),
    ])
    def test_invalid_joint_names_tuple_and_dimension(self, values, counts, total, error, match):
        with pytest.raises(error, match=match):
            EmpiricalJoint(values, counts, total)


class TestConditionalCdf:
    @pytest.fixture
    def joint(self, table_3rows):
        return build_empirical_joint(table_3rows.qi)

    def test_marginal(self, joint):
        assert conditional_cdf(joint, 0, (), 1.0) == pytest.approx(2 / 3)

    def test_conditional(self, joint):
        assert conditional_cdf(joint, 1, (1.0,), 1.0) == pytest.approx(1 / 2)

    def test_bounds(self, joint):
        assert conditional_cdf(joint, 0, (), 0.5) == 0.0
        assert conditional_cdf(joint, 0, (), 2.0) == 1.0
        assert conditional_cdf(joint, 0, (), 99.0) == 1.0

    def test_empty_condition(self, joint):
        with pytest.raises(EmptyConditionError):
            conditional_cdf(joint, 1, (99.0,), 1.0)

    def test_condition_on_every_dimension_rejected(self, joint):
        with pytest.raises(DomainError, match="fewer than 2"):
            conditional_cdf(joint, joint.d, (1.0, 1.0), 1.0)

    def test_monotone_in_x(self, joint):
        xs = np.linspace(0, 3, 40)
        fs = [conditional_cdf(joint, 0, (), x) for x in xs]
        assert all(a <= b for a, b in zip(fs, fs[1:]))


class TestInverseConditionalCdf:
    @pytest.fixture
    def joint(self, table_3rows):
        return build_empirical_joint(table_3rows.qi)

    def test_bracket(self, joint):
        assert inverse_conditional_cdf(joint, 0, (), 0.5) == 1.0

    def test_upper_boundary(self, joint):
        assert inverse_conditional_cdf(joint, 0, (), 1.0) == 2.0

    def test_exact_boundary_inclusive(self, joint):
        assert inverse_conditional_cdf(joint, 0, (), 2 / 3) == 1.0

    def test_domain_errors(self, joint):
        with pytest.raises(DomainError):
            inverse_conditional_cdf(joint, 0, (), 0.0)
        with pytest.raises(DomainError):
            inverse_conditional_cdf(joint, 0, (), 1.5)

    def test_round_trip_every_record(self):
        rng = np.random.default_rng(4)
        qi = rng.integers(0, 4, size=(40, 3)).astype(float)
        joint = build_empirical_joint(qi)
        for row in qi:
            prefix = ()
            for j in range(3):
                u = conditional_cdf(joint, j, prefix, row[j])
                assert inverse_conditional_cdf(joint, j, prefix, u) == row[j]
                prefix = prefix + (row[j],)


def test_uniform_composition_matches_pmf():
    # inverse chain fed with iid uniforms reproduces the joint PMF
    rng = np.random.default_rng(7)
    qi = rng.integers(0, 3, size=(60, 2)).astype(float)  # <= 9-cell support
    joint = build_empirical_joint(qi)
    n_draws = 100_000
    counts = {}
    for _ in range(n_draws):
        prefix = ()
        for j in range(2):
            v = inverse_conditional_cdf(joint, j, prefix, rng.uniform(0, 1))
            prefix = prefix + (v,)
        counts[prefix] = counts.get(prefix, 0) + 1
    pmf = joint.pmf()
    obs = [counts.get(k, 0) for k in sorted(pmf)]
    exp = [pmf[k] * n_draws for k in sorted(pmf)]
    assert stats.chisquare(obs, exp).pvalue > 0.01
