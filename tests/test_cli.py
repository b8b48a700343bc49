import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_negative_seed_usage_error(self, tmp_path, input_csv, capsys):
        # numpy's generators take no negative seed; the flag is checked first
        rc = main([
            "anonymize", "--input", str(input_csv),
            "--output", str(tmp_path / "o.csv"),
            "--qi-cols", "x0,x1", "--response-col", "cost",
            "--k", "4", "--method", "resample", "--seed", "-1",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: --seed: must be at least 0, got -1\n"

    @pytest.mark.parametrize("output, sidecar, flag, other", [
        ("{input}", None, "--output", "--input"),  # the release over the microdata
        ("{dir}/./sub/../input.csv", None, "--output", "--input"),
        ("{link}", None, "--output", "--input"),  # a symbolic link to the input
        ("{hard}", None, "--output", "--input"),  # a hard link to the input
        ("{dir}/o.csv", "{dir}/o.csv", "--sidecar", "--output"),  # JSON over the CSV
        ("{dir}/o.csv", "{input}", "--sidecar", "--input"),
    ], ids=["same-path", "dot-dot", "symlink", "hard-link", "sidecar-is-output",
            "sidecar-is-input"])
    def test_overwriting_a_named_file_usage_error(self, tmp_path, input_csv, capsys,
                                                  output, sidecar, flag, other):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(input_csv)
        os.link(input_csv, tmp_path / "hard.csv")
        names = {"input": input_csv, "dir": tmp_path, "link": tmp_path / "link.csv",
                 "hard": tmp_path / "hard.csv"}
        before = input_csv.read_bytes()
        argv = ["anonymize", "--input", str(input_csv), "--output", output.format(**names),
                "--qi-cols", "x0,x1", "--response-col", "cost",
                "--k", "4", "--method", "resample"]
        if sidecar:
            argv += ["--sidecar", sidecar.format(**names)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
        assert f"names the {other} file" in err[0]
        assert input_csv.read_bytes() == before
        assert not (tmp_path / "o.csv").exists()

    def test_output_beside_input_allowed(self, tmp_path, input_csv):
        # a sidecar next to an existing file of another name is no clash
        out = tmp_path / "input.csv.out"
        (tmp_path / "meta.json").write_text("{}")
        rc = main(["anonymize", "--input", str(input_csv), "--output", str(out),
                   "--sidecar", str(tmp_path / "meta.json"), "--qi-cols", "x0,x1",
                   "--response-col", "cost", "--k", "4", "--method", "resample"])
        assert rc == 0 and json.loads((tmp_path / "meta.json").read_text())["k"] == 4

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


# sha256 of json.dumps([method, k, shift, similarity, reid_average,
# degenerate_shift]) for each row of TestExperimentCommand's sweep, in
# output order
SWEEP_ROW_DIGESTS = [
    "29032e101c495d1c6b6df977a067a2e166c8bd9737ead5f83b738e016b4a2787",
    "724e97bb8489f001878873ad35a43300d3b635909d375f6c7d513de30f48446f",
    "ecf13750f9c4ca7dee92df818d08a06b2a021b663b621394d76ac3cda2c8924c",
    "95ac4f7a60c614e643a07f46ca951829a3faa0a4cd9cb27fdc666fe56bc300cb",
    "60d725e2b16395797f03af3bc6009993b57de465c79f27979a01cf0568bb00f3",
    "ccef2bfc14d71632934b28f087e380d67c0acb39c0834b00fc98cd54356f3a34",
    "64b5d37fd4a484bd458f0fca2bb5d9832a02f169afa19ad2948aac30bd2cfce8",
    "9127d756a1e6e880de537217f43186860fda7149621afcee80f38cc1a39f2527",
    "5d1e9bf2f309e1ea9b623a4ce8a4d80ffc6e4762f965e9627e75f9758de30b79",
    "d2129507674882e931dda9f359d78e8be27348e8f7c5dc2965bdf79e81328f36",
    "5bfdd968c8e0653885252b1151363b74563482bf708bf3d52acc993b65c47172",
    "a8f5c6d2f7db1cc4b900c5ef9686a041ba387ca17580dbb5b88e0b6e9dc17644",
    "f6fac2958e2d6f920c3966e3178435fd17e9d00d33486afa3b052b8fd9ce4785",
    "948c35914b0ce5e74b5257443484ac2e24ab130e698817e4354b4bba091acb62",
    "2202115517547c00aa8b92d021eba05e7a67400543ad9e8718bcb7cd03950937",
    "6a1fc7009d47785b96f29b1f478797fe25513bd042289e6d20e9681d025ead34",
    "1a2dd020dc538df042a00383ba9603580c846a1290a0ae198bae5ef7b8db443b",
    "3560ded2f4b55217fed7226ee096b86223abc2388b6ebb40c71874cb91d42730",
    "33bb844f3c1911a1dbd610ca6a26e8a3cae8acde7d9988eba3543562352840e1",
    "59316cc00d18cd8dc2302694163ade27336ca0526648d1c39e0dce2ffc330ae1",
    "564b412d32beaaae4851d5d643bbcaa0caacf985280ade7b32e40e058338e64e",
    "533785b5ee8183a91225c7d51d83f5e8b69ab2d887da3707b3a751c0d8dacd70",
    "f08f8433c2c90ec20227b70fcf97a5c02666a9b810c836fd2304c00fdff058cd",
    "88eee15cc27b1b91d7b0015e5761e5d589768b3940c8dbe04a13a8885bee2bdc",
]


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

    def test_sweep_fields_unchanged(self, tmp_path):
        # A `risk-sweep`-shaped sweep, whose Gaussian releases inside the
        # reidentification trials run at c = 400 (k = 5). Each row's fields
        # that do not depend on the BLAS thread count, taken before the
        # cheap pass of the Gaussian forward map; relative_bias_pct and
        # r_squared are left out, as their last bits follow the thread count.
        out = tmp_path / "m.json"
        rc = main([
            "experiment", "--output", str(out), "--n", "2000", "--test-n", "2000",
            "--levels", "10,8,6", "--dep", "0.3", "--k-grid", "5,25",
            "--methods", "centroid,resample,cell-dither,gaussian",
            "--shift", "none,nonparametric,logistic", "--coding", "dummy",
            "--trials", "2", "--seed", "1",
        ])
        assert rc == 0
        fields = ("method", "k", "shift", "similarity", "reid_average", "degenerate_shift")
        got = [hashlib.sha256(json.dumps([row[f] for f in fields]).encode()).hexdigest()
               for row in json.loads(out.read_text())["results"]]
        assert got == SWEEP_ROW_DIGESTS

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
        ("--seed", "-1", "--seed: must be at least 0, got -1"),
    ])
    def test_bad_list_flag_usage_error(self, tmp_path, capsys, monkeypatch,
                                       flag, value, where):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr("dpkanon.experiment.synthetic_table", no_work)
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

        monkeypatch.setattr("dpkanon.experiment.synthetic_table", no_work)
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

        monkeypatch.setattr("dpkanon.experiment.transform", counted)

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


# The argv property: every flag gets a valid value except at most one,
# which gets a value of a kind a user may mistype, so that most runs reach
# the pipeline or the sweep.
_NAMES = ("x0", "x1", "cost", "id", "a b", "é")
_METHODS = ("centroid", "resample", "permute", "cell-dither", "gaussian")
_POSITIVE = ("0.33", "1", "2.5", "1e-300", "1e300")
_NOT_POSITIVE = ("0", "-1", "nan", "inf", "-inf", "x", "")
_NOT_INT = ("x", "1.5", "")
_CELLS_BAD = ("", "nan", "inf", "-inf", "1e308", "abc", "1,5", '"')


def _ints(low: int, high: int):
    return st.integers(low, high).map(str)


def _joined(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


def _flags(draw, flags: dict, required) -> list:
    """argv for `flags` (flag -> (valid, bad) strategies): a valid value for
    each but at most one, which gets a bad one. A flag not `required` may be
    left out; one whose valid strategy is None is left out unless bad."""
    bad = draw(st.one_of(st.none(), st.sampled_from(list(flags))))
    argv = []
    for flag, (valid, mistyped) in flags.items():
        if flag == bad:
            argv += [flag, draw(mistyped)]
        elif valid is not None and (flag in required or draw(st.booleans())):
            argv += [flag, draw(valid)]
    return argv


@st.composite
def _anonymize_case(draw):
    """argv and the text of the small CSV it reads: distinct column names,
    numeric cells and unique ids; sometimes one bad cell, one ragged row or
    a repeated column name."""
    header = draw(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=4, unique=True))
    roles = draw(st.permutations(header))
    q = draw(st.integers(1, len(header) - 1))
    id_col = roles[q + 1] if len(roles) > q + 1 else None
    n = draw(st.integers(0, 3) if draw(st.integers(0, 7)) == 0 else st.integers(6, 14))
    rows = [[f"r{i}" if name == id_col else str(draw(st.integers(-3, 3))) for name in header]
            for i in range(n)]
    if rows and draw(st.integers(0, 3)) == 0:
        r = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            rows[r][draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(_CELLS_BAD))
        else:
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["0"]
    if draw(st.integers(0, 7)) == 0:
        header = [*header[:-1], header[0]]
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    flags = {
        "--qi-cols": (st.just(",".join(roles[:q])), st.one_of(
            _joined(st.sampled_from(_NAMES)), st.sampled_from(("", ",", " , ")))),
        "--response-col": (st.just(roles[q]), st.sampled_from(_NAMES)),
        "--id-col": (st.just(id_col) if id_col else None, st.sampled_from(_NAMES)),
        "--k": (_ints(2, 6), st.one_of(_ints(-1, 1), _ints(7, 20),
                                       st.sampled_from(_NOT_INT))),
        "--method": (st.sampled_from(_METHODS), st.just("bogus")),
        "--alpha": (st.sampled_from(_POSITIVE), st.sampled_from(_NOT_POSITIVE)),
        "--w": (st.sampled_from(_POSITIVE), st.sampled_from(_NOT_POSITIVE)),
        "--seed": (_ints(0, 3), st.one_of(_ints(-2, -1), st.sampled_from(_NOT_INT))),
    }
    required = ("--qi-cols", "--response-col", "--id-col", "--k", "--method")
    return ["anonymize", *_flags(draw, flags, required)], text


@st.composite
def _experiment_argv(draw):
    def count(low, high):
        return _ints(low, high), st.one_of(_ints(low - 2, low - 1), st.sampled_from(_NOT_INT))

    return ["experiment", *_flags(draw, {
        "--k-grid": (_joined(_ints(2, 12), 2), st.one_of(
            _joined(_ints(-1, 1)), st.sampled_from((",", "x")))),
        "--n": count(1, 24),
        "--test-n": count(1, 24),
        "--levels": (_joined(_ints(1, 4)), st.one_of(_joined(_ints(-1, 0)),
                                                     st.sampled_from((",", "x")))),
        "--dep": (st.sampled_from(("0", "0.3", "1")),
                  st.sampled_from(("-0.5", "1.5", "nan", "inf", "x"))),
        "--tilt": (st.sampled_from(("0", "0.5", "-3", "40")),
                   st.sampled_from(("nan", "inf", "1e308", "x"))),
        "--methods": (_joined(st.sampled_from(_METHODS), 2),
                      st.sampled_from(("bogus", ",", "centroid,bogus"))),
        "--shift": (_joined(st.sampled_from(("none", "nonparametric", "logistic")), 2),
                    st.sampled_from(("bogus", ","))),
        "--coding": (st.sampled_from(("dummy", "numeric")), st.just("bogus")),
        "--alpha": (st.sampled_from(_POSITIVE), st.sampled_from(_NOT_POSITIVE)),
        "--w": (st.sampled_from(_POSITIVE), st.sampled_from(_NOT_POSITIVE)),
        "--seed": count(0, 3),
        "--trials": count(0, 1),
    }, required=("--k-grid",))]


def _strict_json(path):
    def refuse(name):
        raise AssertionError(f"{path} holds {name}")

    with open(path, encoding="utf-8") as fh:
        json.load(fh, parse_constant=refuse)


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(_anonymize_case(), st.tuples(_experiment_argv(), st.none())))
def test_any_argv_ends_in_an_exit_code_and_at_most_one_error_line(case):
    # every argv ends in exit code 0 (with strict JSON written), 1 or 2
    # (with one error line, from main or from argparse), never a traceback
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv" if text is not None else "m.json")
        argv = [*argv, "--output", out]
        if text is not None:
            data = os.path.join(tmp, "in.csv")
            with open(data, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            argv += ["--input", data]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert rc in (0, 1, 2)
        if rc == 0:
            assert errors == []
            _strict_json(out + ".json" if text is not None else out)
        else:
            assert len(errors) == 1
