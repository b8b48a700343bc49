"""Reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of the same code drifts by 20-30% over
minutes (measured on a 2-core virtual machine shared with other tenants;
wall and CPU time drift alike), which would swamp any regression bound.
The kernel below does the same kinds of work as the program, written
independently of it: small-array numpy scans, numpy generator
construction, tuple counting and CSV text formatting. Dividing a measured
time by the kernel's time, taken just before and after it, cancels most of
the drift.

This kernel must never change: every calibrated figure depends on it.
"""
from __future__ import annotations

import csv
import io
import sys
import time
from collections import Counter

import numpy as np

# Calibrated seconds = wall seconds * NOMINAL_REF_S / measured kernel seconds.
NOMINAL_REF_S = 0.07

# Process start-up drifts with file-system and import costs, which the
# kernel does not track, so setup time has its own reference: a fresh
# interpreter that imports numpy. Calibrated setup seconds =
# wall seconds * NOMINAL_START_S / measured START_CMD seconds.
START_CMD = [sys.executable, "-c", "import numpy"]
NOMINAL_START_S = 0.15


def _kernel():
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((4000, 3))
    y = rng.standard_normal(4000)
    free = np.ones(4000, dtype=bool)
    c, cy = x[0].copy(), y[0]
    for step in range(1, 500):
        diff = x - c
        d2 = np.einsum("ij,ij->i", diff, diff) + (y - cy) ** 2
        d2[~free] = np.inf
        i = int(np.argmin(d2))
        free[i] = False
        c = c + (x[i] - c) / (step + 1)
        cy = cy + (y[i] - cy) / (step + 1)
    for r in range(1000):
        g = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0, r)))
        g.uniform(0.0, 1.0)
    idx = np.floor(np.abs(x) * 3).astype(int)
    Counter(map(tuple, idx.tolist()))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in x.tolist():
        writer.writerow([repr(v) for v in row])


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
