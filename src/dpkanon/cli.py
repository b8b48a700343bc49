"""Command-line surface: `anonymize` wraps the pipeline on a CSV file,
`experiment` runs the synthetic-data metric sweep.

Exit codes: 0 success, 1 data/solver error, 2 usage error.

Only the anonymization modules load with this one; the sweep's modules
(`experiment`, and through it `reid`, `shiftlearn` and `synth`) load when
the `experiment` subcommand runs.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .dataset import TableSchema, load_table
from .errors import DpkError
from .pipeline import anonymize, write_anonymized_csv, write_sidecar

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


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or, when
    both exist, the same file by another name (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return False


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
    if args.seed < 0:  # numpy's generators take no negative seed
        raise _UsageError(f"--seed: must be at least 0, got {args.seed}")
    sidecar = args.sidecar or (args.output + ".json")
    paths = {"--input": args.input, "--output": args.output, "--sidecar": sidecar}
    for flag, other in (("--output", "--input"), ("--sidecar", "--input"),
                        ("--sidecar", "--output")):
        if _same_file(paths[flag], paths[other]):
            raise _UsageError(f"{flag} {paths[flag]!r} names the {other} file, "
                              "which the release would overwrite")
    schema = TableSchema(
        qi=tuple(_csv_list(args.qi_cols)),
        response=args.response_col,
        id_col=args.id_col,
    )
    table = load_table(args.input, schema)
    anon = anonymize(table, args.k, _METHOD_FLAGS[args.method],
                     w=args.w, alpha=args.alpha, seed=args.seed)
    write_anonymized_csv(anon, args.output, response_name=args.response_col)
    write_sidecar(anon, sidecar)
    return 0


def experiment_config(args) -> dict:
    """The sweep's config from the experiment flags: lists parsed, methods
    in their underscored names. A bad value is a usage error."""
    k_grid = _int_list("--k-grid", args.k_grid, least=2)
    levels = _int_list("--levels", args.levels, least=1)
    methods = [_METHOD_FLAGS[m]
               for m in _choice_list("--methods", args.methods, sorted(_METHOD_FLAGS))]
    shifts = _choice_list("--shift", args.shift, _SHIFTS)
    for flag, value, least in (("--n", args.n, 1), ("--test-n", args.test_n, 1),
                               ("--trials", args.trials, 0), ("--seed", args.seed, 0)):
        if value < least:
            raise _UsageError(f"{flag}: must be at least {least}, got {value}")
    return {
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
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "anonymize":
            return run_anonymize(args)
        config = experiment_config(args)
        from .experiment import run_experiment

        return run_experiment(config, args.output)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DpkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
