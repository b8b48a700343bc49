from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dpkanon.dataset import DataTable, round_sig


def make_table(qi, y=None):
    qi = np.atleast_2d(np.asarray(qi, dtype=float))
    if qi.shape[0] == 1 and qi.shape[1] > 1 and np.asarray(qi).ndim == 1:
        qi = qi.T
    if y is None:
        y = np.zeros(qi.shape[0])
    cols = tuple(f"x{j}" for j in range(qi.shape[1]))
    return DataTable(qi, np.asarray(y, dtype=float), cols, tuple(range(qi.shape[0])))


def index_rows(qi) -> np.ndarray:
    """(n, d) position of each value among the sorted distinct values of its
    column after round_sig, found without the package's grouping."""
    rows = round_sig(np.asarray(qi, dtype=float))
    return np.column_stack([np.searchsorted(np.unique(col), col) for col in rows.T])


def cluster_members(model) -> list:
    """Each cluster's records in ascending order, cut from model.segments."""
    order, starts, _ = model.segments
    return np.split(order, starts[1:])


def resample_pmf(state) -> dict:
    """Analytic output PMF of the resample method over the joint's index
    tuples, in exact rational arithmetic: sum_l (n_l/n)(n_l(v)/n_l)."""
    n = state.model.n
    cells = index_rows(state.standardizer.apply_qi(state.table.qi))
    out = {}
    for members in cluster_members(state.model):
        for cell, cnt in Counter(map(tuple, cells[members].tolist())).items():
            out[cell] = out.get(cell, Fraction(0)) + Fraction(cnt, n)
    return out


def empirical_pmf_exact(joint) -> dict:
    return {tuple(t): Fraction(c, joint.total)
            for t, c in zip(joint.keys.tolist(), joint.counts.tolist())}


@pytest.fixture
def table_3rows():
    return make_table([[1, 1], [1, 2], [2, 1]])
