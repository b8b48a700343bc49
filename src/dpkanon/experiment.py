"""The `experiment` subcommand's metric sweep on synthetic populations:
per k, one clustering of a training population, then per method its
release's similarity to a shifted test population, its reidentification
average and one regression fit per shift estimator.

The command line checks the flags and builds the sweep's config; only the
`experiment` subcommand imports this module.
"""
from __future__ import annotations

import json
import warnings

import numpy as np

from .dataset import build_empirical_joint, group_rows
from .dither import check_alpha
from .errors import ConvergenceError, DegenerateError, DomainError
from .pipeline import RELEASED_BY, prepare, transform
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


def _shift_weights(tag: str, anon_qi, anon_joint, test_qi, test_joint):
    """Weights plus a flag when the estimator degenerates on this data;
    `tag` is "none", "nonparametric" or "logistic"."""
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


def _sweep_rows(config, state, method, test, test_joint, test_pmf) -> list:
    """Similarity, reidentification average and one regression fit per
    shift estimator for one release; one result row per shift."""
    anon = transform(state, method, alpha=config["alpha"])
    anon_joint = build_empirical_joint(anon.qi_hat)
    similarity = histogram_intersection(anon_joint.pmf(), test_pmf)
    reid_avg = None
    if config["trials"] > 0:
        reid_avg = reid_trials(state, method, config["trials"], alpha=config["alpha"],
                               first=anon).average
    # Every shift estimator weights a record through its QI row only, so
    # each fit runs on the release's distinct rows, encoded once.
    rows, inverse = group_rows(anon.qi_hat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design, info = build_design(rows, config["coding"])
        test_design = apply_design(info, test.qi)
    out = []
    for shift in config["shift"]:
        wts, degenerate = _shift_weights(shift, anon.qi_hat, anon_joint, test.qi, test_joint)
        try:
            coef = distinct_row_least_squares(design, inverse, anon.response, wts)
            yhat = test_design @ coef
            bias = relative_bias(yhat, test.response)
            r2 = r_squared(yhat, test.response)
        except (DegenerateError, DomainError):
            bias, r2 = None, None
        out.append({
            "k": state.k,
            "shift": shift,
            "coding": config["coding"],
            "relative_bias_pct": bias,
            "r_squared": r2,
            "similarity": similarity,
            "reid_average": reid_avg,
            "degenerate_shift": degenerate,
        })
    return out


def run_experiment(config: dict, output) -> int:
    """Run the sweep `config` describes and write its metrics JSON to
    `output`. `config` holds the experiment's flags, with its lists parsed
    and its methods in their underscored names; it is written back as the
    payload's "config"."""
    check_alpha(config["alpha"])
    levels, seed = config["levels"], config["seed"]
    train = synthetic_table(config["n"], levels, dep=config["dep"], tilt=0.0, seed=seed)
    test = synthetic_table(config["test_n"], levels, dep=config["dep"],
                           tilt=config["tilt"], seed=seed + 1)
    test_joint = build_empirical_joint(test.qi)
    test_pmf = test_joint.pmf()

    results = []
    for k in config["k_grid"]:
        state = prepare(train, k, w=config["w"], seed=seed)
        # a method released by another's draw repeats its rows, relabelled
        by_draw = {}
        for method in config["methods"]:
            draw = RELEASED_BY.get(method, method)
            if draw not in by_draw:
                by_draw[draw] = _sweep_rows(config, state, method, test, test_joint, test_pmf)
            results.extend({**row, "method": method} for row in by_draw[draw])

    payload = {"spec_version": SPEC_VERSION, "config": config, "results": results}
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0
