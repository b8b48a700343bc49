"""The batched dither -> forward -> inverse chain against a scalar reference
that walks `joint.cond_table` one record at a time."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpkanon.dataset import _U_TOL, build_empirical_joint
from dpkanon.dither import build_cell_partition, merge_cells_1d, sample_intra_cluster
from dpkanon.kmember import greedy_k_member
from dpkanon.rosenblatt import forward_cell_uniform, inverse_empirical_indices

from conftest import make_table


def _frac(x, lo, hi):
    if hi <= lo:
        return 1.0
    return min(max((x - lo) / (hi - lo), 1e-15), 1.0)


def reference_forward(x, partition, joint):
    """Forward map of one dither sample, one dimension at a time."""
    if partition.merged:
        m = int(partition.locate(0, x[0]))
        counts = [partition.cell_counts[(i,)] for i in range(partition.n_cells(0))]
        frac = _frac(x[0], partition.lo[0][m], partition.hi[0][m])
        return [(sum(counts[:m]) + counts[m] * frac) / sum(counts)]
    u, prefix = [], ()
    for j in range(partition.d):
        i = int(partition.locate(j, x[j]))
        idx, cumfrac, _ = joint.cond_table(prefix)
        pos = int(np.searchsorted(idx, i))
        assert idx[pos] == i
        f_prev = float(cumfrac[pos - 1]) if pos > 0 else 0.0
        p_i = float(cumfrac[pos]) - f_prev
        u.append(min(f_prev + p_i * _frac(x[j], partition.lo[j][i],
                                          partition.hi[j][i]), 1.0))
        prefix += (i,)
    return u


def reference_inverse(u, joint):
    """Inverse conditional CDF chain of one uniform vector."""
    prefix = ()
    for j in range(joint.d):
        idx, cumfrac, _ = joint.cond_table(prefix)
        uj = max(float(u[j]), np.finfo(float).tiny)
        pos = int(np.searchsorted(cumfrac, uj - _U_TOL, side="left"))
        prefix += (int(idx[min(pos, len(idx) - 1)]),)
    return prefix


@st.composite
def fitted_tables(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 40))
    k = draw(st.integers(2, n // 2))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # ordinal
        qi = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)).astype(float)
    else:  # continuous
        qi = rng.normal(size=(n, d))
    t = make_table(qi, rng.normal(size=n))
    joint = build_empirical_joint(t.qi)
    model = greedy_k_member(t, k=k, seed=seed % 100)
    part = build_cell_partition(joint, model)
    if d == 1 and draw(st.booleans()):
        part = merge_cells_1d(part, model)
    return joint, model, part, rng


@settings(max_examples=60, deadline=None)
@given(fitted_tables())
def test_batched_chain_matches_scalar_reference(case):
    joint, model, part, rng = case
    records = np.tile(np.arange(model.n), 3)
    xt = sample_intra_cluster(model, part, records, rng)
    u = forward_cell_uniform(xt, part, joint)
    want_u = np.array([reference_forward(x, part, joint) for x in xt])
    assert np.array_equal(u, want_u)

    # the uniforms the forward map produced, plus random ones and the
    # first-level cumulative fractions with their tolerance neighbours
    _, cumfrac, _ = joint.cond_table(())
    edges = np.concatenate([cumfrac, cumfrac - _U_TOL, cumfrac + _U_TOL, [0.0, 1.0]])
    extra = rng.random((len(edges), joint.d))
    extra[:, 0] = np.clip(edges, 0.0, 1.0)
    for uu in (u, extra):
        got = inverse_empirical_indices(uu, joint)
        want = np.array([reference_inverse(row, joint) for row in uu])
        assert np.array_equal(got, want)
