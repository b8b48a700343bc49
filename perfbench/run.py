"""dpkanon benchmark: drives `dpkanon.cli.main` in-process on seeded inputs.

    python3 perfbench/run.py --workload release-ordinal --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. A closed loop runs one invocation at a time: a round is
one `anonymize` per method, plus one `experiment` per k on workloads that
define a sweep. After one untimed warm-up round, rounds repeat until the
next one would overrun `--seconds` (at least MIN_ROUNDS). Every output is
checked; the last stdout line is the JSON result. With `--trace 1` the
rounds alternate untraced and traced, and the per-layer metrics are
reported instead of the end-to-end ones.

Every reported time is in calibrated seconds (see calibrate.py): the wall
time of an interval divided by the reference kernel's time measured just
before and just after it, times the kernel's nominal time; setup time uses a
fresh-process reference instead. The uncalibrated medians are printed on the
`raw` line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 9

sys.path.insert(0, SRC)

from calibrate import (  # noqa: E402
    NOMINAL_REF_S, NOMINAL_START_S, START_CMD, reference_seconds,
)
from workloads import (  # noqa: E402
    METHODS, RELEASE_K, RELEASE_SEED, WORKLOADS,
    anonymize_argv, experiment_argv, setup_inputs,
)

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "round_s": "s",
    **{f"anonymize_s.{m.replace('-', '_')}": "s" for m in METHODS},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, write the inputs, and exit "
                        "(one sample of setup_s)")
    return p.parse_args(argv)


def import_package():
    """Import dpkanon from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "dpkanon", "cli.py")):
        sys.exit(f"error: no dpkanon sources under {SRC}; run from a source checkout")
    import dpkanon.cli

    if not os.path.abspath(dpkanon.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported dpkanon from {dpkanon.__file__}, not {SRC}")
    return dpkanon.cli


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Clock:
    """Stopwatch that brackets every interval with the reference kernel."""

    def __init__(self):
        self.refs = [reference_seconds()]

    def time(self, fn):
        """Run fn(); return (its result, calibrated s, raw s). If fn raises,
        the reference kernel still runs before the exception propagates."""
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - t0
            self.refs.append(reference_seconds())
        ref = (self.refs[-2] + self.refs[-1]) / 2.0
        return result, raw * NOMINAL_REF_S / ref, raw


def _process_seconds(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(args):
    """Median calibrated and raw wall time of fresh processes that start the
    interpreter, import the package and write the workload's inputs. Each is
    calibrated by START_CMD run just before and just after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    refs, cal, raw = [_process_seconds(START_CMD)], [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(_process_seconds(cmd))
        refs.append(_process_seconds(START_CMD))
        cal.append(raw[-1] * NOMINAL_START_S / ((refs[-2] + refs[-1]) / 2.0))
    return statistics.median(cal), statistics.median(raw), statistics.median(refs)


class Bench:
    """One workload's inputs, its round of invocations, and their checks."""

    def __init__(self, cli, workload: str, seed: int, workdir: str):
        from checks import ReleaseInput

        self.cli = cli
        self.sweep = WORKLOADS[workload]["sweep"]
        qi, y, input_csv = setup_inputs(workload, seed, workdir)
        self.input = ReleaseInput(qi, y)
        self.calls = []  # (key, argv, output paths)
        for m in METHODS:
            out = os.path.join(workdir, f"{m}.csv")
            self.calls.append((f"anonymize_s.{m.replace('-', '_')}",
                               anonymize_argv(input_csv, out, m), (out, out + ".json")))
        # The sweep runs as one experiment per k: the same work as one call
        # over the whole grid, in pieces short enough for the calibration.
        for k in self.sweep["k_grid"] if self.sweep else ():
            out = os.path.join(workdir, f"sweep-k{k}.json")
            self.calls.append((f"experiment.k{k}",
                               experiment_argv(self.sweep, k, out, seed), (out,)))
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def _check(self, key, outputs) -> list:
        from checks import check_release, check_sweep, file_digest

        if key.startswith("experiment"):
            problems = check_sweep(outputs[0], self.sweep)
            digest = file_digest(outputs[0])
        else:
            method = key.split(".")[1].replace("_", "-")
            problems = check_release(self.input, *outputs, method,
                                     RELEASE_K, RELEASE_SEED)
            digest = file_digest(outputs[0]) + file_digest(outputs[1], mask=("timestamp",))
        if self.digests.setdefault(key, digest) != digest:
            problems.append("output differs from the first run with the same seed")
        return problems

    def run_round(self, clock: Clock, tracer=None):
        """Run every call once; return calibrated and raw seconds per call key."""
        cal, raw = {}, {}
        for key, argv, outputs in self.calls:
            self.attempted += 1
            if tracer is None:
                def call(argv=argv):
                    return self.cli.main(argv)
            else:
                def call(argv=argv):
                    tracer.invocation += 1
                    with tracer.span("cli.main"):
                        return self.cli.main(argv)
            try:
                rc, cal[key], raw[key] = clock.time(call)
                problems = [f"exit code {rc}"] if rc != 0 else self._check(key, outputs)
            except Exception as exc:  # any crash is a failed operation
                cal[key] = raw[key] = float("nan")
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append(f"{key}: {'; '.join(problems)}")
        return cal, raw


def loop(seconds: float, step, min_calls: int):
    """Call step() until another call would overrun `seconds`, at least
    `min_calls` times; return the results."""
    out, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(out) >= min_calls and elapsed + statistics.median(walls) > seconds:
            return out


def _medians(rounds) -> dict:
    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    for key in [k for k in values if k.startswith("experiment")]:
        del values[key]
    values["round_s"] = statistics.median(sum(r.values()) for r in rounds)
    return values


def end_to_end(bench: Bench, clock: Clock, seconds: float, setup) -> dict:
    rounds = loop(seconds, lambda: bench.run_round(clock), MIN_ROUNDS)
    values = {**_medians([cal for cal, _ in rounds]), "setup_s": setup[0],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    raw = {**_medians([r for _, r in rounds]), "setup_s": setup[1],
           "start_ref_s": setup[2], "ref_s": statistics.median(clock.refs)}
    print("raw", json.dumps(raw, sort_keys=True))
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def per_layer(bench: Bench, clock: Clock, seconds: float, spans_path: str) -> dict:
    import layertrace

    plain, traced, layers, spans = [], [], [], []
    units = layer_units()

    def pair():
        plain.append(sum(bench.run_round(clock)[0].values()))
        first_ref = len(clock.refs) - 1
        tracer = layertrace.Tracer()
        with tracer.installed():
            traced.append(sum(bench.run_round(clock, tracer)[0].values()))
        # layer times are scaled by the reference kernel's median over the round
        scale = NOMINAL_REF_S / statistics.median(clock.refs[first_ref:])
        m = layertrace.layer_metrics(tracer.spans, tracer.models)
        layers.append({k: v * scale if units[k] == "s" else v for k, v in m.items()})
        spans.append(tracer.spans)

    loop(seconds, pair, MIN_TRACED_PAIRS)
    values = layertrace.median_metrics(layers)
    values["trace_overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    values["ref_s"] = statistics.median(clock.refs)
    peaks = {}
    with layertrace.memory_probe(peaks):
        bench.run_round(clock)
    for key in units:
        if ".peak_mb" in key:
            values[key] = peaks.get(key, 0.0)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rounds": spans}, fh)
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_package()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            setup_inputs(args.workload, args.seed, workdir)
            return 0
        setup = None if args.trace else measure_setup(args)
        clock = Clock()
        bench = Bench(cli, args.workload, args.seed, workdir)
        # One untimed (but checked) round first, so lazy imports and first
        # allocations fall outside the timed rounds; it counts against --seconds.
        t0 = time.perf_counter()
        bench.run_round(clock)
        seconds = args.seconds - (time.perf_counter() - t0)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = per_layer(bench, clock, seconds, spans_path)
        else:
            metrics = end_to_end(bench, clock, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine", json.dumps(machine_facts(), sort_keys=True))
    print("digests", json.dumps(bench.digests, sort_keys=True))
    for failure in bench.failures:
        print("FAILED", failure)
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
