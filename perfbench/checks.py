"""Output gates: what every timed invocation must have produced.

Each check returns a list of problems; an empty list means the output
passed. The guarantees checked are the ones the package claims, seen only
through the files the CLI wrote.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter

import numpy as np

from dpkanon.dataset import round_sig

from workloads import QI_COLS, RESPONSE


def _tuples(qi) -> list:
    return [tuple(r) for r in np.asarray(qi).tolist()]


class ReleaseInput:
    """The facts about one input table that the release gate compares to."""

    def __init__(self, qi, y):
        self.y = y
        self.n, self.d = qi.shape
        self.multiset = Counter(_tuples(qi))
        self.rounded = set(_tuples(round_sig(qi)))


def file_digest(*paths, mask=()) -> str:
    """SHA-256 over the files; JSON files have the `mask` keys removed."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if mask:
            doc = json.loads(data)
            for key in mask:
                doc.pop(key, None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(data)
    return h.hexdigest()


def check_release(inp: ReleaseInput, out_csv, sidecar, method: str, k: int,
                  seed: int) -> list:
    problems = []
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["record_id", *QI_COLS, RESPONSE]
    if rows[0] != header:
        return [f"header {rows[0]} != {header}"]
    body = rows[1:]
    if len(body) != inp.n:
        return [f"{len(body)} rows, expected {inp.n}"]
    if [r[0] for r in body] != [str(i) for i in range(inp.n)]:
        problems.append("record_id not in input order")
    released = np.array([[float(v) for v in r[1:-1]] for r in body])
    y = np.array([float(r[-1]) for r in body])
    if not np.array_equal(y, inp.y):
        problems.append("response column differs from the input")

    with open(sidecar, encoding="utf-8") as fh:
        meta = json.load(fh)
    want = {"method": method.replace("-", "_"), "k": k, "seed": seed,
            "n": inp.n, "d": inp.d}
    got = {key: meta.get(key) for key in want}
    if got != want:
        problems.append(f"sidecar {got} != {want}")

    tuples = _tuples(released)
    if method == "centroid":
        small = [c for c in Counter(tuples).values() if c < k]
        if small:
            problems.append(f"{len(small)} released tuples occur fewer than k={k} times")
    elif method == "permute":
        if Counter(tuples) != inp.multiset:
            problems.append("released QI multiset differs from the input's")
    else:
        foreign = set(_tuples(round_sig(released))) - inp.rounded
        if foreign:
            problems.append(f"{len(foreign)} released tuples are not input tuples")
    return problems


def reid_limit(k: int, trials: int, n: int) -> float:
    """Nominal 1/k plus three binomial standard deviations over T*n matches."""
    p = 1.0 / k
    return p + 3.0 * math.sqrt(p * (1.0 - p) / (trials * n))


def check_sweep(path, sweep: dict) -> list:
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    problems = []
    want = len(sweep["methods"]) * len(sweep["shift"])
    if len(results) != want:
        problems.append(f"{len(results)} result rows, expected {want}")
    for r in results:
        tag = f"k={r['k']} {r['method']} {r['shift']}"
        limit = reid_limit(r["k"], sweep["trials"], sweep["n"])
        if r["reid_average"] is None or not r["reid_average"] <= limit:
            problems.append(f"{tag}: reid_average {r['reid_average']} > {limit:.4f}")
        if not 0.0 <= r["similarity"] <= 1.0:
            problems.append(f"{tag}: similarity {r['similarity']} outside [0, 1]")
        if r["r_squared"] is None:
            problems.append(f"{tag}: r_squared is null")
        # Centroid releases cluster means, which may all lie off the test
        # population's support; the nonparametric ratio is then zero
        # everywhere and the CLI correctly flags it as degenerate.
        off_support = r["method"] == "centroid" and r["shift"] == "nonparametric"
        if r["degenerate_shift"] and not off_support:
            problems.append(f"{tag}: shift estimator degenerated")
    return problems
