"""The batched inverse conditional-CDF chain against a scalar reference that
walks `joint.cond_table` one uniform vector at a time."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon.dataset import _U_TOL, build_empirical_joint, round_sig
from dpkanon.rosenblatt import inverse_empirical_indices


def reference_inverse(u, joint):
    """Inverse conditional CDF chain of one uniform vector."""
    prefix = ()
    for j in range(joint.d):
        idx, cumfrac, _ = joint.cond_table(prefix)
        uj = max(float(u[j]), np.finfo(float).tiny)
        pos = int(np.searchsorted(cumfrac, uj - _U_TOL, side="left"))
        prefix += (int(idx[min(pos, len(idx) - 1)]),)
    return prefix


def upper_edges(cell, joint):
    """Cumulative fraction at the top of the cell's own entry at every level:
    the uniform the cell's forward map sends the cell's upper corner to."""
    u = []
    for j in range(joint.d):
        idx, cumfrac, _ = joint.cond_table(tuple(cell[:j]))
        u.append(float(cumfrac[np.searchsorted(idx, cell[j])]))
    return u


@st.composite
def tables(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):  # ordinal
        qi = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)).astype(float)
    else:  # continuous
        qi = rng.normal(size=(n, d))
    return qi, rng


@settings(max_examples=60, deadline=None)
@given(tables())
def test_batched_inverse_matches_scalar_reference(case):
    qi, rng = case
    joint = build_empirical_joint(qi)
    rows = round_sig(qi)
    cells = np.column_stack([np.searchsorted(joint.values[j], rows[:, j])
                             for j in range(joint.d)])
    edges = np.array([upper_edges(cell, joint) for cell in cells.tolist()])
    assert np.array_equal(inverse_empirical_indices(edges, joint), cells)

    for u in (edges, np.clip(edges - _U_TOL, 0.0, 1.0),
              np.clip(edges + _U_TOL, 0.0, 1.0), rng.random((len(qi), joint.d))):
        got = inverse_empirical_indices(u, joint)
        want = np.array([reference_inverse(row, joint) for row in u])
        assert np.array_equal(got, want)
