import json
import warnings

import numpy as np
import pytest

from dpkanon.cli import main
from dpkanon.dataset import TableSchema, load_table
from dpkanon.synth import synthetic_table


@pytest.fixture
def input_csv(tmp_path):
    t = synthetic_table(40, [3, 3], dep=0.3, seed=40)
    p = tmp_path / "input.csv"
    with open(p, "w", newline="") as fh:
        fh.write("x0,x1,cost\n")
        for row, y in zip(t.qi, t.response):
            fh.write(f"{row[0]:g},{row[1]:g},{float(y)!r}\n")
    return p


class TestAnonymizeCommand:
    def test_happy_path(self, tmp_path, input_csv):
        out = tmp_path / "anon.csv"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "5", "--method", "resample", "--seed", "1",
        ])
        assert rc == 0
        back = load_table(out, TableSchema(qi=("x0", "x1"), response="cost",
                                          id_col="record_id"))
        assert back.n == 40
        meta = json.loads((tmp_path / "anon.csv.json").read_text())
        assert meta["method"] == "resample" and meta["k"] == 5

    def test_hyphenated_method_flag(self, tmp_path, input_csv):
        out = tmp_path / "anon.csv"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "4", "--method", "cell-dither",
        ])
        assert rc == 0
        meta = json.loads((tmp_path / "anon.csv.json").read_text())
        assert meta["method"] == "cell_dither"

    def test_explicit_sidecar_path(self, tmp_path, input_csv):
        out = tmp_path / "anon.csv"
        side = tmp_path / "meta.json"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--sidecar", str(side), "--qi-cols", "x0,x1",
            "--response-col", "cost", "--k", "4", "--method", "centroid",
        ])
        assert rc == 0 and side.exists()

    def test_small_k_usage_error(self, tmp_path, input_csv):
        rc = main([
            "anonymize", "--input", str(input_csv),
            "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "1", "--method", "resample",
        ])
        assert rc == 2

    def test_unknown_method_usage_error(self, tmp_path, input_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "anonymize", "--input", str(input_csv),
                "--output", str(tmp_path / "o.csv"),
                "--qi-cols", "x0,x1", "--response-col", "cost",
                "--k", "4", "--method", "shuffle",
            ])
        assert exc.value.code == 2

    def test_missing_input_data_error(self, tmp_path):
        rc = main([
            "anonymize", "--input", str(tmp_path / "nope.csv"),
            "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "4", "--method", "resample",
        ])
        assert rc == 1

    def test_missing_column_data_error(self, tmp_path, input_csv):
        rc = main([
            "anonymize", "--input", str(input_csv),
            "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,zip", "--response-col", "cost",
            "--k", "4", "--method", "resample",
        ])
        assert rc == 1

    def test_infeasible_k_data_error(self, tmp_path, input_csv):
        rc = main([
            "anonymize", "--input", str(input_csv),
            "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "100", "--method", "resample",
        ])
        assert rc == 1

    def test_singular_gaussian_loading_data_error(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        with open(p, "w", newline="") as fh:
            fh.write("x0,x1,cost\n")
            for i in range(12):
                fh.write(f"{i % 4},7,{i}\n")
        rc = main([
            "anonymize", "--input", str(p), "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "3", "--method", "gaussian", "--alpha", "1e-12",
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "cluster" in err[0] and "dimension 1" in err[0]

    def test_gaussian_values_beyond_twelve_digits(self, tmp_path):
        # the two values round to one at 12 significant digits; their
        # standardized values do not
        p = tmp_path / "wide.csv"
        with open(p, "w", newline="") as fh:
            fh.write("x0,cost\n")
            for i in range(6):
                fh.write(f"{1000000000001 + i % 2},{i}\n")
        out = tmp_path / "o.csv"
        rc = main([
            "anonymize", "--input", str(p), "--output", str(out),
            "--qi-cols", "x0", "--response-col", "cost",
            "--k", "2", "--method", "gaussian",
        ])
        assert rc == 0
        back = load_table(out, TableSchema(qi=("x0",), response="cost",
                                          id_col="record_id"))
        assert set(back.qi[:, 0]) <= {1000000000001.0, 1000000000002.0}

    @pytest.mark.parametrize("method", ["centroid", "gaussian"])
    def test_wide_column_released_on_its_values(self, tmp_path, method):
        # the squared deviations of 1e300 and 2e300 overflow; the sd of the
        # column divided by a power of two does not
        p = tmp_path / "wide.csv"
        with open(p, "w", newline="") as fh:
            fh.write("x0,cost\n")
            for i in range(12):
                fh.write(f"{(1e300, 2e300)[i % 2]!r},{i}\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "anonymize", "--input", str(p), "--output", str(out),
                "--qi-cols", "x0", "--response-col", "cost",
                "--k", "3", "--method", method,
            ])
        assert rc == 0
        back = load_table(out, TableSchema(qi=("x0",), response="cost",
                                          id_col="record_id"))
        if method == "gaussian":
            assert set(back.qi[:, 0]) == {1e300, 2e300}
        else:
            assert np.all((back.qi >= 1e300) & (back.qi <= 2e300))

    def test_column_too_wide_to_standardize_data_error(self, tmp_path, capsys):
        # one value 2.75e308 from the mean: its standardized value overflows
        p = tmp_path / "wide.csv"
        p.write_text("x0,x1,cost\n" + "".join(
            f"{1.5e308 if i == 0 else -1.5e308!r},{i % 2},{i}\n" for i in range(12)))
        out = tmp_path / "o.csv"
        rc = main([
            "anonymize", "--input", str(p), "--output", str(out),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "3", "--method", "centroid",
        ])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: column 'x0': ")

    @pytest.mark.parametrize("bad_row, where", [
        ("1,2", "row 4, column 'cost'"),
        ("1,nan,3", "row 4, column 'x1'"),
        ("inf,2,3", "row 4, column 'x0'"),
    ])
    def test_bad_input_row_data_error(self, tmp_path, capsys, bad_row, where):
        p = tmp_path / "bad.csv"
        p.write_text(f"x0,x1,cost\n0,1,2\n1,0,3\n{bad_row}\n")
        rc = main([
            "anonymize", "--input", str(p), "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "2", "--method", "resample",
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]

    @pytest.mark.parametrize("data, where", [
        (b"x0\xff,x1,cost\n0,1,2\n", "row 1: byte 0xff is not UTF-8 text"),
        (b"x0,x1,cost\nabc,1,2\n\xff3,0,4\n", "row 2, column 'x0': cannot parse 'abc'"),
        (b"x0,x1,cost\n0,1,2\n" + b"9" * 131073 + b",0,4\n",
         "row 3: field larger than field limit (131072)"),
    ], ids=["byte-in-header", "parse-fault-first", "long-field"])
    def test_unreadable_input_data_error(self, tmp_path, capsys, data, where):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        rc = main([
            "anonymize", "--input", str(p), "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "2", "--method", "resample",
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]

    @pytest.mark.parametrize("text, id_col, where", [
        ("x0,x0,cost\n0,1,2\n1,0,3\n", None, "'x0' appears twice in the header, at columns 1 and 2"),
        ("id,x0,x1,cost\na,0,1,2\nb,1,0,3\na,1,1,4\n", "id", "id 'a' repeats on rows 2 and 4"),
    ])
    def test_repeated_column_or_id_data_error(self, tmp_path, capsys, text, id_col, where):
        p = tmp_path / "dup.csv"
        p.write_text(text)
        rc = main([
            "anonymize", "--input", str(p), "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0", "--response-col", "cost",
            "--k", "2", "--method", "resample",
            *(["--id-col", id_col] if id_col else []),
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]

    @pytest.mark.parametrize("qi, response, id_col, where", [
        ("x0", "x0", None, "'x0' is declared as a quasi-identifier and as the response"),
        ("x0,x0", "cost", None, "'x0' is listed twice as a quasi-identifier"),
        ("x0,x1", "cost", "x1", "'x1' is declared as a quasi-identifier and as the id"),
    ])
    def test_column_in_two_roles_data_error(self, tmp_path, capsys, input_csv,
                                            qi, response, id_col, where):
        # a quasi-identifier also released as the response or the id would
        # leave the file with its original values
        out = tmp_path / "o.csv"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--qi-cols", qi, "--response-col", response,
            "--k", "2", "--method", "resample",
            *(["--id-col", id_col] if id_col else []),
        ])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]

    @pytest.mark.parametrize("qi", ["", ",", " , "])
    def test_empty_qi_list_data_error(self, tmp_path, capsys, input_csv, qi):
        out = tmp_path / "o.csv"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--qi-cols", qi, "--response-col", "cost", "--k", "2", "--method", "resample",
        ])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: no quasi-identifier column is declared"]

    @pytest.mark.parametrize("extra, where", [
        (("--w", "nan"), "distortion weight w must be positive and finite, got nan"),
        (("--w", "inf"), "distortion weight w must be positive and finite, got inf"),
        (("--method", "gaussian", "--alpha", "inf"),
         "alpha must be positive and finite, got inf"),
        # every release records alpha, so every method rejects a bad one
        (("--alpha", "inf"), "alpha must be positive and finite, got inf"),
        (("--method", "centroid", "--alpha", "nan"),
         "alpha must be positive and finite, got nan"),
        (("--method", "permute", "--alpha", "0"),
         "alpha must be positive and finite, got 0.0"),
        (("--method", "cell-dither", "--alpha", "-1"),
         "alpha must be positive and finite, got -1.0"),
    ])
    def test_nonfinite_weight_or_alpha_data_error(self, tmp_path, capsys, input_csv,
                                                  extra, where):
        # the value itself is named, not an overflow or a singular loading
        out = tmp_path / "o.csv"
        rc = main([
            "anonymize", "--input", str(input_csv), "--output", str(out),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "2", "--method", "resample", *extra,
        ])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]


class TestExperimentCommand:
    def run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        rc = main([
            "experiment", "--output", str(out),
            "--n", "80", "--test-n", "80", "--levels", "3,3",
            "--k-grid", "3,6", "--methods", "centroid,resample",
            "--shift", "none,nonparametric", "--seed", "2", *extra,
        ])
        return rc, out

    def test_structure(self, tmp_path):
        rc, out = self.run(tmp_path, "m.json")
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["spec_version"] == "1"
        assert payload["config"]["k_grid"] == [3, 6]
        assert len(payload["results"]) == 2 * 2 * 2
        for r in payload["results"]:
            assert set(r) >= {"k", "method", "shift", "similarity",
                              "relative_bias_pct", "r_squared"}
            assert 0.0 <= r["similarity"] <= 1.0

    def test_reid_trials_included(self, tmp_path):
        rc, out = self.run(tmp_path, "m.json", extra=("--trials", "3"))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(r["reid_average"] is not None for r in payload["results"])

    def test_deterministic_output_bytes(self, tmp_path):
        _, a = self.run(tmp_path, "a.json")
        _, b = self.run(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_k_grid(self, tmp_path):
        rc = main([
            "experiment", "--output", str(tmp_path / "m.json"),
            "--k-grid", "1,4",
        ])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, where", [
        ("--k-grid", "a", "--k-grid: 'a' is not an integer"),
        ("--levels", "x,2", "--levels: 'x' is not an integer"),
        ("--levels", "0,2", "--levels: every value must be at least 1"),
        ("--methods", "foo", "--methods: unknown value 'foo'"),
        ("--shift", "bogus", "--shift: unknown value 'bogus'"),
        ("--methods", ",", "--methods: empty list"),
        ("--trials", "-1", "--trials: must be at least 0, got -1"),
        ("--test-n", "0", "--test-n: must be at least 1, got 0"),
    ])
    def test_bad_list_flag_usage_error(self, tmp_path, capsys, monkeypatch,
                                       flag, value, where):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr("dpkanon.cli.synthetic_table", no_work)
        argv = {"--k-grid": "3", "--levels": "3,3", "--methods": "resample",
                "--shift": "none", flag: value}
        rc = main(["experiment", "--output", str(tmp_path / "m.json"),
                   *[arg for item in argv.items() for arg in item]])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]

    def test_overflowing_tilt_data_error(self, tmp_path, capsys):
        # rejected before a NaN PMF is drawn from, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = self.run(tmp_path, "m.json", extra=("--tilt", "1e308"))
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "tilt 1e+308 overflows the tilted PMF" in err[0]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0"])
    def test_bad_alpha_data_error(self, tmp_path, capsys, monkeypatch, alpha):
        def no_work(*args, **kwargs):
            raise AssertionError("data drawn before alpha was checked")

        monkeypatch.setattr("dpkanon.cli.synthetic_table", no_work)
        rc, out = self.run(tmp_path, "m.json", extra=("--alpha", alpha))
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0] == f"error: alpha must be positive and finite, got {float(alpha)}"

    def test_cell_dither_rows_repeat_resample_rows(self, tmp_path, monkeypatch):
        # cell_dither is released by resample's draw: whichever of the two
        # comes first is released once per k, and both get an independent
        # run's rows
        from dpkanon.pipeline import transform

        released = []

        def counted(state, method, **kwargs):
            released.append(method)
            return transform(state, method, **kwargs)

        monkeypatch.setattr("dpkanon.cli.transform", counted)

        def rows(name, methods):
            released.clear()
            rc, out = self.run(tmp_path, name, extra=(
                "--methods", methods, "--shift", "none,nonparametric,logistic",
                "--trials", "2"))
            assert rc == 0
            return json.loads(out.read_text())["results"]

        alone = rows("alone.json", "cell-dither")
        assert all(r["reid_average"] is not None for r in alone)
        for methods, first in (("resample,cell-dither,centroid", "resample"),
                               ("cell-dither,centroid,resample", "cell_dither")):
            got = rows("both.json", methods)
            assert sorted(released) == sorted([first, "centroid"] * 2)
            for method in ("resample", "cell_dither"):
                mine = [r for r in got if r["method"] == method]
                assert [{**r, "method": "cell_dither"} for r in mine] == alone

    def test_empty_k_grid(self, tmp_path):
        rc = main([
            "experiment", "--output", str(tmp_path / "m.json"),
            "--k-grid", ",",
        ])
        assert rc == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_round_trip_through_cli_matches_library(tmp_path):
    # the CLI output should load back to exactly what the library produced
    from dpkanon.pipeline import anonymize

    t = synthetic_table(30, [3, 2], seed=41)
    p = tmp_path / "in.csv"
    with open(p, "w", newline="") as fh:
        fh.write("x0,x1,cost\n")
        for row, y in zip(t.qi, t.response):
            fh.write(f"{row[0]:g},{row[1]:g},{float(y)!r}\n")
    out = tmp_path / "out.csv"
    rc = main([
        "anonymize", "--input", str(p), "--output", str(out),
        "--qi-cols", "x0,x1", "--response-col", "cost",
        "--k", "3", "--method", "gaussian", "--seed", "9",
    ])
    assert rc == 0
    schema = TableSchema(qi=("x0", "x1"), response="cost", id_col="record_id")
    back = load_table(out, schema)
    want = anonymize(load_table(p, TableSchema(qi=("x0", "x1"), response="cost")),
                     k=3, method="gaussian", seed=9)
    assert np.array_equal(back.qi, want.qi_hat)
