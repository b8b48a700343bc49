"""Command-line surface: `anonymize` wraps the pipeline on a CSV file,
`experiment` runs the synthetic-data metric sweep.

Exit codes: 0 success, 1 data/solver error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .dataset import TableSchema, build_empirical_joint, group_rows, load_table
from .errors import ConvergenceError, DegenerateError, DomainError, DpkError
from .dither import check_alpha
from .pipeline import (
    RELEASED_BY,
    anonymize,
    prepare,
    transform,
    write_anonymized_csv,
    write_sidecar,
)
from .reid import reid_trials
from .shiftlearn import (
    apply_design,
    build_design,
    distinct_row_least_squares,
    histogram_intersection,
    logistic_weights,
    nonparametric_weights,
    r_squared,
    relative_bias,
)
from .synth import synthetic_table

SPEC_VERSION = "1"

_METHOD_FLAGS = {
    "centroid": "centroid",
    "resample": "resample",
    "permute": "permute",
    "cell-dither": "cell_dither",
    "gaussian": "gaussian",
}

_SHIFTS = ("none", "nonparametric", "logistic")


class _UsageError(Exception):
    """A bad command-line value; main maps it to exit code 2."""


def _csv_list(text: str):
    return [item.strip() for item in text.split(",") if item.strip()]


def _int_list(flag: str, text: str, least: int) -> list:
    items = _csv_list(text)
    if not items:
        raise _UsageError(f"{flag}: empty list")
    out = []
    for item in items:
        try:
            out.append(int(item))
        except ValueError:
            raise _UsageError(f"{flag}: {item!r} is not an integer")
        if out[-1] < least:
            raise _UsageError(f"{flag}: every value must be at least {least}")
    return out


def _choice_list(flag: str, text: str, choices) -> list:
    items = _csv_list(text)
    if not items:
        raise _UsageError(f"{flag}: empty list")
    for item in items:
        if item not in choices:
            raise _UsageError(
                f"{flag}: unknown value {item!r}; expected one of {', '.join(choices)}")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkanon",
        description="Distribution-preserving k-anonymization of tabular microdata.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pa = sub.add_parser("anonymize", help="anonymize a CSV file")
    pa.add_argument("--input", required=True)
    pa.add_argument("--output", required=True)
    pa.add_argument("--sidecar", default=None,
                    help="metadata JSON path (default: OUTPUT.json)")
    pa.add_argument("--qi-cols", required=True,
                    help="comma-separated quasi-identifier columns")
    pa.add_argument("--response-col", required=True)
    pa.add_argument("--id-col", default=None)
    pa.add_argument("--k", type=int, required=True)
    pa.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    pa.add_argument("--alpha", type=float, default=1.0 / 3.0)
    pa.add_argument("--w", type=float, default=1.0)
    pa.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("experiment", help="metric sweep on synthetic populations")
    pe.add_argument("--output", required=True, help="metrics JSON path")
    pe.add_argument("--n", type=int, default=400)
    pe.add_argument("--test-n", type=int, default=400)
    pe.add_argument("--levels", default="4,3",
                    help="comma-separated level counts per quasi-identifier")
    pe.add_argument("--dep", type=float, default=0.3)
    pe.add_argument("--tilt", type=float, default=0.5,
                    help="exponential tilt of the first marginal in the test population")
    pe.add_argument("--k-grid", required=True, help="comma-separated k values")
    pe.add_argument("--methods", default="centroid,resample,gaussian",
                    help="comma-separated methods (hyphenated flags)")
    pe.add_argument("--shift", default="none",
                    help="comma-separated estimators from {none,nonparametric,logistic}")
    pe.add_argument("--coding", choices=("dummy", "numeric"), default="dummy")
    pe.add_argument("--alpha", type=float, default=1.0 / 3.0)
    pe.add_argument("--w", type=float, default=1.0)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--trials", type=int, default=0,
                    help="reidentification trials per combination (0 skips)")
    return parser


def run_anonymize(args) -> int:
    if args.k < 2:
        raise _UsageError("k must be at least 2")
    schema = TableSchema(
        qi=tuple(_csv_list(args.qi_cols)),
        response=args.response_col,
        id_col=args.id_col,
    )
    table = load_table(args.input, schema)
    anon = anonymize(table, args.k, _METHOD_FLAGS[args.method],
                     w=args.w, alpha=args.alpha, seed=args.seed)
    write_anonymized_csv(anon, args.output, response_name=args.response_col)
    sidecar = args.sidecar or (args.output + ".json")
    write_sidecar(anon, sidecar)
    return 0


def _shift_weights(tag: str, anon_qi, anon_joint, test_qi, test_joint):
    """Weights plus a flag when the estimator degenerates on this data;
    `tag` is one of _SHIFTS."""
    n = len(anon_qi)
    if tag == "none":
        return np.ones(n), False
    if tag == "nonparametric":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w = nonparametric_weights(anon_joint, test_joint)
        if w.sum() == 0:
            return np.ones(n), True
        return w, False
    try:  # logistic
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return logistic_weights(anon_qi, test_qi), False
    except ConvergenceError:
        return np.ones(n), True


def _sweep_rows(args, state, method, shifts, test, test_joint, test_pmf) -> list:
    """Similarity, reidentification average and one regression fit per
    shift estimator for one release; one result row per shift."""
    anon = transform(state, method, alpha=args.alpha)
    anon_joint = build_empirical_joint(anon.qi_hat)
    similarity = histogram_intersection(anon_joint.pmf(), test_pmf)
    reid_avg = None
    if args.trials > 0:
        reid_avg = reid_trials(state, method, args.trials, alpha=args.alpha,
                               first=anon).average
    # Every shift estimator weights a record through its QI row only, so
    # each fit runs on the release's distinct rows, encoded once.
    rows, inverse = group_rows(anon.qi_hat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design, info = build_design(rows, args.coding)
        test_design = apply_design(info, test.qi)
    out = []
    for shift in shifts:
        wts, degenerate = _shift_weights(shift, anon.qi_hat, anon_joint, test.qi, test_joint)
        try:
            model = distinct_row_least_squares(design, inverse, anon.response, wts, info=info)
            yhat = test_design @ model.coef
            bias = relative_bias(yhat, test.response)
            r2 = r_squared(yhat, test.response)
        except (DegenerateError, DomainError):
            bias, r2 = None, None
        out.append({
            "k": state.k,
            "shift": shift,
            "coding": args.coding,
            "relative_bias_pct": bias,
            "r_squared": r2,
            "similarity": similarity,
            "reid_average": reid_avg,
            "degenerate_shift": degenerate,
        })
    return out


def run_experiment(args) -> int:
    k_grid = _int_list("--k-grid", args.k_grid, least=2)
    levels = _int_list("--levels", args.levels, least=1)
    methods = [_METHOD_FLAGS[m]
               for m in _choice_list("--methods", args.methods, sorted(_METHOD_FLAGS))]
    shifts = _choice_list("--shift", args.shift, _SHIFTS)
    for flag, value, least in (("--n", args.n, 1), ("--test-n", args.test_n, 1),
                               ("--trials", args.trials, 0)):
        if value < least:
            raise _UsageError(f"{flag}: must be at least {least}, got {value}")
    check_alpha(args.alpha)

    train = synthetic_table(args.n, levels, dep=args.dep, tilt=0.0, seed=args.seed)
    test = synthetic_table(args.test_n, levels, dep=args.dep, tilt=args.tilt,
                           seed=args.seed + 1)
    test_joint = build_empirical_joint(test.qi)
    test_pmf = test_joint.pmf()

    results = []
    for k in k_grid:
        state = prepare(train, k, w=args.w, seed=args.seed)
        # a method released by another's draw repeats its rows, relabelled
        by_draw = {}
        for method in methods:
            draw = RELEASED_BY.get(method, method)
            if draw not in by_draw:
                by_draw[draw] = _sweep_rows(args, state, method, shifts,
                                            test, test_joint, test_pmf)
            results.extend({**row, "method": method} for row in by_draw[draw])

    payload = {
        "spec_version": SPEC_VERSION,
        "config": {
            "n": args.n,
            "test_n": args.test_n,
            "levels": levels,
            "dep": args.dep,
            "tilt": args.tilt,
            "k_grid": k_grid,
            "methods": methods,
            "shift": shifts,
            "coding": args.coding,
            "alpha": args.alpha,
            "w": args.w,
            "seed": args.seed,
            "trials": args.trials,
        },
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "anonymize":
            return run_anonymize(args)
        return run_experiment(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DpkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
