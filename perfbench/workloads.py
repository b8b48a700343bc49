"""Workload definitions and their seeded input generators.

The generators use numpy only, never the package, so a change to
`dpkanon.synth` cannot change the benchmark's inputs. The program sees only
the CSV files written here and the CLI arguments built here.
"""
from __future__ import annotations

import csv
import os

import numpy as np

QI_COLS = ("x0", "x1", "x2")
RESPONSE = "cost"
RELEASE_K = 10
RELEASE_SEED = 0
METHODS = ("centroid", "resample", "permute", "cell-dither", "gaussian")

# Why each workload exists is recorded in BENCHMARK.json; the parameters
# are repeated in perfbench/DESIGN.json.
WORKLOADS = {
    # Ordinal QIs: 4000 rows share at most 480 distinct tuples, so the
    # clustering sees many ties and the trie many shared prefixes.
    "release-ordinal": {
        "table": {"kind": "ordinal", "n": 4000, "levels": (10, 8, 6), "dep": 0.3},
        "sweep": None,
    },
    # Same sizes with continuous QIs: nearly every tuple is distinct, so no
    # work can be shared between records.
    "release-continuous": {
        "table": {"kind": "continuous", "n": 4000, "decimals": 3,
                  "corr": ((1.0, 0.5, 0.3), (0.5, 1.0, 0.4), (0.3, 0.4, 1.0))},
        "sweep": None,
    },
    # The researcher's path: the only workload that reaches reid and
    # shiftlearn. Its release calls run on a table of the sweep's shape.
    "risk-sweep": {
        "table": {"kind": "ordinal", "n": 2000, "levels": (10, 8, 6), "dep": 0.3},
        "sweep": {"n": 2000, "test_n": 2000, "levels": (10, 8, 6), "dep": 0.3,
                  "k_grid": (5, 25),
                  "methods": ("centroid", "resample", "cell-dither", "gaussian"),
                  "shift": ("none", "nonparametric", "logistic"),
                  "coding": "dummy", "trials": 2},
    },
}


def make_table(spec: dict, seed: int):
    """Quasi-identifier matrix (n, 3) and response (n,) for a table spec."""
    rng = np.random.default_rng([seed, 0x6470])
    n = spec["n"]
    if spec["kind"] == "ordinal":
        # Each coordinate reuses a shared latent uniform with probability
        # `dep`, which makes the dimensions positively dependent.
        levels = np.asarray(spec["levels"])
        shared = rng.random(n)
        qi = np.empty((n, len(levels)))
        for j, L in enumerate(levels):
            fresh = rng.random(n)
            u = np.where(rng.random(n) < spec["dep"], shared, fresh)
            qi[:, j] = np.floor(u * L)
        noise = 1.0 + 0.5 * qi[:, 0]
    else:
        chol = np.linalg.cholesky(np.asarray(spec["corr"]))
        qi = np.round(rng.standard_normal((n, chol.shape[0])) @ chol.T,
                      spec["decimals"])
        noise = 1.0
    y = qi.sum(axis=1) + noise * rng.standard_normal(n) + 10.0
    return qi, y


def write_csv(path, qi, y):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(QI_COLS) + [RESPONSE])
        for row, v in zip(qi.tolist(), y.tolist()):
            writer.writerow([repr(x) for x in row] + [repr(v)])


def setup_inputs(name: str, seed: int, workdir):
    """Write the workload's input CSV; return (qi, y, csv path)."""
    qi, y = make_table(WORKLOADS[name]["table"], seed)
    path = os.path.join(workdir, "input.csv")
    write_csv(path, qi, y)
    return qi, y, path


def anonymize_argv(input_csv, output_csv, method):
    return ["anonymize", "--input", input_csv, "--output", output_csv,
            "--qi-cols", ",".join(QI_COLS), "--response-col", RESPONSE,
            "--k", str(RELEASE_K), "--method", method, "--seed", str(RELEASE_SEED)]


def experiment_argv(sweep: dict, k: int, output_json, seed: int):
    def join(xs):
        return ",".join(str(x) for x in xs)

    return ["experiment", "--output", output_json,
            "--n", str(sweep["n"]), "--test-n", str(sweep["test_n"]),
            "--levels", join(sweep["levels"]), "--dep", str(sweep["dep"]),
            "--k-grid", str(k), "--methods", join(sweep["methods"]),
            "--shift", join(sweep["shift"]), "--coding", sweep["coding"],
            "--trials", str(sweep["trials"]), "--seed", str(seed)]
