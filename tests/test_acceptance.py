"""End-to-end acceptance checks, one per guarantee the package makes.

Each test prints a single pass/fail line so the suite output doubles as an
acceptance report.
"""
import time
import warnings
from itertools import combinations

import numpy as np
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from dpkanon.cli import main
from dpkanon.dataset import (
    DataTable,
    build_empirical_joint,
    standardize,
)
from dpkanon.dither import sample_gaussian_batch
from dpkanon.kmember import (
    ClusterModel,
    greedy_k_member,
    total_distortion,
    validate_k_anonymous,
)
from dpkanon.pipeline import prepare, transform
from dpkanon.reid import reid_trials
from dpkanon.rosenblatt import forward_gaussian, inverse_empirical_indices
from dpkanon.shiftlearn import (
    apply_design,
    build_design,
    histogram_intersection,
    nonparametric_weights,
    r_squared,
    weighted_least_squares,
)
from dpkanon.synth import synthetic_table

from conftest import cluster_members, empirical_pmf_exact, resample_pmf


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {desc} ... {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _small_table(rng, n, d):
    qi = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    cols = tuple(f"x{j}" for j in range(d))
    return DataTable(qi, y, cols, tuple(range(n)))


def test_01_cell_dither_releases_resample_law():
    """The dither -> forward -> inverse chain lands back in the cell it drew,
    and it draws cell v with probability n_l(v)/n_l: resample's law. So the
    pipeline releases cell_dither with resample's draw, byte for byte, and
    every released tuple is a tuple of the record's own cluster."""
    start = time.time()
    rng = np.random.default_rng(1)
    trials = same = total = inside = 0
    for inst in range(20):
        n = int(rng.integers(30, 501))
        d = int(rng.integers(1, 4))
        levels = [int(rng.integers(2, 9)) for _ in range(d)]
        t = synthetic_table(n, levels, dep=float(rng.uniform(0, 0.6)),
                            seed=int(rng.integers(10_000)))
        k = int(rng.integers(2, min(10, n // 2) + 1))
        state = prepare(t, k, seed=int(rng.integers(100)))
        for trial in range(3):
            got = transform(state, "cell_dither", trial=trial).qi_hat
            want = transform(state, "resample", trial=trial).qi_hat
            trials += 1
            same += got.tobytes() == want.tobytes()
            for idx in cluster_members(state.model):
                rows = set(map(tuple, t.qi[idx].tolist()))
                inside += sum(tuple(r) in rows for r in got[idx].tolist())
            total += t.n
    elapsed = time.time() - start
    _report(1, "cell-dither releases resample's law, byte for byte",
            same == trials and inside == total and elapsed < 10.0,
            f"{same}/{trials} trials equal to resample, {inside}/{total} "
            f"tuples from the own cluster, {elapsed:.1f}s")


def test_02_resample_pmf_exactly_preserved():
    """Within-cluster resampling leaves the joint PMF unchanged, shown in
    exact rational arithmetic."""
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(10):
        n = int(rng.integers(6, 51))
        d = int(rng.integers(1, 3))
        levels = [int(rng.integers(2, 5)) for _ in range(d)]
        t = synthetic_table(n, levels, dep=float(rng.uniform(0, 0.8)),
                            seed=int(rng.integers(10_000)))
        k = int(rng.integers(2, n // 2 + 1))
        state = prepare(t, k, seed=int(rng.integers(100)))
        ok = ok and resample_pmf(state) == empirical_pmf_exact(state.joint)
    _report(2, "resample output PMF equals input PMF as exact rationals", ok)


def test_03_gaussian_forward_uniformity():
    """Gaussian forward transform: coordinates are Uniform(0,1) and pairwise
    uncorrelated when the dither comes from the fitted mixture."""
    t = synthetic_table(300, [4, 3, 3], dep=0.4, seed=3)
    std, _ = standardize(t)
    model = greedy_k_member(std, k=15, seed=0)
    alpha = 1 / 3

    rng = np.random.default_rng(4)
    recs = rng.integers(0, t.n, size=10_000)
    u = forward_gaussian(sample_gaussian_batch(model, alpha, recs, rng),
                         model, alpha)
    pvals = [stats.kstest(u[:, j], "uniform").pvalue for j in range(3)]

    recs = rng.integers(0, t.n, size=100_000)
    u = forward_gaussian(sample_gaussian_batch(model, alpha, recs, rng),
                         model, alpha)
    corrs = [abs(np.corrcoef(u[:, a], u[:, b])[0, 1])
             for a, b in combinations(range(3), 2)]
    _report(3, "gaussian forward coordinates uniform and uncorrelated",
            min(pvals) > 0.01 and max(corrs) < 0.02,
            f"min KS p={min(pvals):.3f}, max |corr|={max(corrs):.4f}")


def test_04_gaussian_end_to_end_total_variation():
    """Gaussian dither, forward, inverse approximately reproduces the joint
    PMF: total variation below 0.02 at 1e5 draws."""
    t = synthetic_table(300, [5, 4], dep=0.4, seed=2)
    std, _ = standardize(t)
    joint = build_empirical_joint(std.qi)
    model = greedy_k_member(std, k=10, seed=0)
    assert len(joint.counts) <= 20
    N = 100_000
    rng = np.random.default_rng(3)
    recs = rng.integers(0, t.n, size=N)
    u = forward_gaussian(sample_gaussian_batch(model, 1 / 3, recs, rng),
                         model, 1 / 3)
    cells, hits = np.unique(inverse_empirical_indices(u, joint), axis=0,
                            return_counts=True)
    counts = dict(zip(map(tuple, cells.tolist()), hits.tolist()))
    emp = dict(zip(map(tuple, joint.keys.tolist()), joint.counts / joint.total))
    tv = 0.5 * sum(abs(counts.get(key, 0) / N - emp.get(key, 0.0))
                   for key in set(counts) | set(emp))
    _report(4, "gaussian end-to-end PMF within 0.02 total variation",
            tv < 0.02, f"TV={tv:.4f} on {len(joint.counts)} cells")


def test_05_gaussian_conditioning_matches_integration():
    """On a one-cluster mixture, forward_gaussian's u_j agrees to 1e-6 with
    the conditional CDF of dimension j given the ones before it, integrated
    numerically along the slice of the joint Gaussian density."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        A = rng.normal(size=(d, d))
        cov = A @ A.T
        alpha = float(rng.uniform(0.1, 1.0))
        mu = rng.normal(size=d)
        model = ClusterModel(
            assignment=np.zeros(1, dtype=int),
            centroids=mu[None, :],
            centroids_y=np.zeros(1),
            covariances=cov[None, :, :],
            k=1,
            w=1.0,
        )
        lam = cov + alpha * np.eye(d)
        j = int(rng.integers(1, d))
        x = mu + np.linalg.cholesky(lam) @ rng.normal(size=d)
        u = forward_gaussian(x[None, :], model, alpha)[0, j]

        # the slice's sd is 1/sqrt(Si[j, j]); x is a draw from the model, so
        # a grid of +-14 sds around x_j, its midpoint, holds the slice's mass
        Si = np.linalg.inv(lam[:j + 1, :j + 1])
        xs = x[j] + np.linspace(-14, 14, 200_001) / np.sqrt(Si[j, j])
        z = np.empty((len(xs), j + 1))
        z[:, :j] = x[:j] - mu[:j]
        z[:, j] = xs - mu[j]
        logd = -0.5 * np.einsum("ni,ij,nj->n", z, Si, z)
        cdf = cumulative_trapezoid(np.exp(logd - logd.max()), xs, initial=0.0)
        worst = max(worst, abs(u - cdf[len(xs) // 2] / cdf[-1]))
    _report(5, "gaussian forward map matches the integrated conditional CDF",
            worst < 1e-6, f"worst |err|={worst:.2e}")


def test_06_reidentification_below_nominal():
    """Average reidentification frequency stays at or below 1/k plus a
    3-sigma binomial band, and the gaussian method beats resample at k=5."""
    table = synthetic_table(100, [4, 3], dep=0.3, seed=50)
    T = 500
    ok = True
    details = []
    averages = {}
    for k in (5, 10, 25):
        band = 3.0 * np.sqrt((1 / k) * (1 - 1 / k) / T)
        state = prepare(table, k, seed=0)
        for method in ("resample", "centroid"):
            rep = reid_trials(state, method, T=T)
            averages[(k, method)] = rep.average
            ok = ok and rep.average <= 1 / k + band
            details.append(f"k={k} {method}:{rep.average:.3f}<={1/k + band:.3f}")
    state = prepare(table, 5, seed=0)
    gauss = reid_trials(state, "gaussian", T=T)
    ok = ok and gauss.average < averages[(5, "resample")]
    details.append(f"gaussian@5:{gauss.average:.3f}")
    _report(6, "reidentification frequency within the nominal 1/k band",
            ok, "; ".join(details))


def test_07_nonparametric_reweighting_identity():
    """Density-ratio weights turn source averages into target averages
    exactly, for arbitrary bounded test functions."""
    rng = np.random.default_rng(7)
    src_rows = rng.integers(0, 4, size=(80, 2)).astype(float)
    tgt_rows = src_rows[rng.integers(0, 80, size=120)]
    src = build_empirical_joint(src_rows)
    tgt = build_empirical_joint(tgt_rows)
    w = nonparametric_weights(src, tgt)
    worst = 0.0
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        f = lambda rows: np.cos(a * rows[:, 0] + b * rows[:, 1] + c)
        lhs = float(np.mean(w * f(src_rows)))
        rhs = float(np.mean(f(tgt_rows)))
        worst = max(worst, abs(lhs - rhs))
    _report(7, "nonparametric reweighting matches target expectations",
            worst < 1e-10, f"worst |err|={worst:.2e}")


def test_08_similarity_and_utility_across_k():
    """Across two orders of magnitude of k: centroid similarity to a shifted
    test population strictly decays, the distribution-preserving methods hold
    steady, and centroid utility collapses at large k."""
    start = time.time()
    n = 800
    kgrid = [2, 5, 10, 25, 50, 100, 200]
    train = synthetic_table(n, [4, 3], dep=0.9, tilt=0.0, noise=0.3, seed=0)
    test = synthetic_table(n, [4, 3], dep=0.9, tilt=0.5, noise=0.3, seed=1)
    test_pmf = build_empirical_joint(test.qi).pmf()

    sims = {m: [] for m in ("centroid", "resample", "gaussian")}
    r2 = {}
    for k in kgrid:
        state = prepare(train, k, seed=0)
        for method in sims:
            anon = transform(state, method)
            pmf = build_empirical_joint(anon.qi_hat).pmf()
            sims[method].append(histogram_intersection(pmf, test_pmf))
            if k == kgrid[-1] and method in ("centroid", "resample"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    X, info = build_design(anon.qi_hat, "dummy")
                    coef = weighted_least_squares(X, anon.response, np.ones(n))
                    r2[method] = r_squared(apply_design(info, test.qi) @ coef,
                                           test.response)
    cen = sims["centroid"]
    strictly_dec = all(a > b for a, b in zip(cen, cen[1:]))
    stable = all(
        max(abs(s - sims[m][0]) for s in sims[m]) < 0.05
        for m in ("resample", "gaussian")
    )
    utility = r2["centroid"] < r2["resample"]
    elapsed = time.time() - start
    _report(8, "centroid similarity decays while dither methods hold steady",
            strictly_dec and stable and utility and elapsed < 120.0,
            f"centroid {cen[0]:.2f}->{cen[-1]:.2f}, "
            f"R2 {r2['centroid']:.2f} vs {r2['resample']:.2f}, {elapsed:.1f}s")


def _cluster_cost(table, idx, w):
    rows = table.qi[list(idx)]
    ys = table.response[list(idx)]
    cx = rows.mean(axis=0)
    cy = ys.mean()
    return float(((rows - cx) ** 2).sum() + w * ((ys - cy) ** 2).sum())


def _brute_force_optimum(table, k, w=1.0):
    """Exact minimum total distortion over all partitions into floor(n/k)
    blocks of size >= k; blocks are canonicalized by their smallest member."""
    n = table.n
    c = n // k
    best = [np.inf]

    def rec(remaining, blocks_left, acc):
        if acc >= best[0]:
            return
        if blocks_left == 1:
            tot = acc + _cluster_cost(table, remaining, w)
            best[0] = min(best[0], tot)
            return
        first, rest = remaining[0], remaining[1:]
        maxsize = len(remaining) - (blocks_left - 1) * k
        for size in range(k, maxsize + 1):
            for combo in combinations(rest, size - 1):
                blk = (first,) + combo
                cost = _cluster_cost(table, blk, w)
                if acc + cost >= best[0]:
                    continue
                rem = tuple(x for x in rest if x not in combo)
                rec(rem, blocks_left - 1, acc + cost)

    rec(tuple(range(n)), c, 0.0)
    return best[0]


def test_09_solver_near_optimal_and_always_feasible():
    """Greedy clustering is within 2x of the exact optimum on small
    instances and never violates the minimum cluster size."""
    rng = np.random.default_rng(0)
    worst_ratio = 1.0
    for _ in range(15):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, max(3, n // 2 + 1)))
        t = _small_table(rng, n, 2)
        model = greedy_k_member(t, k=k, seed=int(rng.integers(100)))
        greedy = total_distortion(model, t)
        opt = _brute_force_optimum(t, k)
        if opt > 1e-12:
            worst_ratio = max(worst_ratio, greedy / opt)

    feasible = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(4, 31))
        k = int(rng.integers(2, n + 1))
        t = _small_table(rng, n, 2)
        model = greedy_k_member(t, k=k, seed=int(rng.integers(1000)))
        ok, _ = validate_k_anonymous(model)
        feasible += ok
    _report(9, "greedy solver near-optimal on small instances and feasible",
            worst_ratio <= 2.0 and feasible == trials,
            f"worst ratio {worst_ratio:.2f}, {feasible}/{trials} feasible")


def test_10_experiment_runs_are_byte_identical(tmp_path):
    """The same seed reproduces the experiment output byte for byte."""
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "experiment", "--output", str(out),
            "--n", "120", "--test-n", "120", "--levels", "3,3",
            "--k-grid", "3,6,12", "--methods", "centroid,resample,gaussian",
            "--shift", "none,nonparametric", "--trials", "5", "--seed", "11",
        ])
        assert rc == 0
        paths.append(out)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(10, "repeated experiment runs with one seed are byte-identical",
            identical)
