"""The flat prefix tree against a dict-of-Counters reference tallied from
the records' index rows, found without the joint's grouping: its
conditional CDF tables, and the batched inverse conditional CDF chain
against a scalar walk over the reference tables."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon.dataset import _U_TOL, build_empirical_joint
from dpkanon.rosenblatt import inverse_empirical_indices

from conftest import index_rows, reference_inverse, reference_tables


def trie_tables(joint):
    """{index prefix: (next indices, cumulative fractions)} read off
    joint.flat_trie by walking it level by level from the root."""
    tables, nodes = {}, {(): 0}
    for idx, cumfrac, starts, lengths in joint.flat_trie:
        children = {}
        for prefix, node in nodes.items():
            s, e = starts[node], starts[node] + lengths[node]
            tables[prefix] = (idx[s:e], cumfrac[s:e])
            children.update((prefix + (int(idx[i]),), i) for i in range(s, e))
        nodes = children
    return tables


def upper_edges(cell, ref):
    """Cumulative fraction at the top of the cell's own entry at every level:
    the uniform the cell's forward map sends the cell's upper corner to."""
    u = []
    for j in range(len(cell)):
        idx, cumfrac = ref[tuple(cell[:j])]
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
def test_cond_table_equals_reference(case):
    qi, _ = case
    joint = build_empirical_joint(qi)
    ref = reference_tables(qi)
    got = trie_tables(joint)
    assert got.keys() == ref.keys()  # no prefix that no record has
    for prefix, (idx, cumfrac) in ref.items():
        assert np.array_equal(got[prefix][0], idx)
        assert np.array_equal(got[prefix][1], cumfrac)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_batched_inverse_matches_scalar_reference(case):
    qi, rng = case
    joint = build_empirical_joint(qi)
    ref = reference_tables(qi)
    cells = index_rows(qi)
    edges = np.array([upper_edges(cell, ref) for cell in cells.tolist()])
    assert np.array_equal(inverse_empirical_indices(edges, joint), cells)

    for u in (edges, np.clip(edges - _U_TOL, 0.0, 1.0),
              np.clip(edges + _U_TOL, 0.0, 1.0), rng.random((len(qi), joint.d))):
        got = inverse_empirical_indices(u, joint)
        want = np.array([reference_inverse(row, ref, joint.d) for row in u])
        assert np.array_equal(got, want)
