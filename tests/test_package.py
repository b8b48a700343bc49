import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import dpkanon


def test_every_exported_name_resolves():
    assert [name for name in dpkanon.__all__ if not hasattr(dpkanon, name)] == []


def _names(tree) -> Counter:
    """How often each identifier is named in a syntax tree: as a variable,
    an attribute or an imported name."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def _src_modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(pathlib.Path(dpkanon.__file__).parent.glob("*.py"))}


def _src_trees() -> list:
    return list(_src_modules().values())


# module-level functions that Python itself calls: the package's attribute
# and dir() hooks (PEP 562)
_CALLED_BY_PYTHON = {"__getattr__", "__dir__"}


def test_every_src_name_has_a_caller():
    # a module-level function or class that no other code in the package
    # names, and that the package does not export, is dead code
    trees = _src_trees()
    named = sum(map(_names, trees), Counter())
    dead = [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and named[node.name] == _names(node)[node.name]
            and node.name not in dpkanon.__all__
            and node.name not in _CALLED_BY_PYTHON]
    assert dead == []


# exports that no code in the package names: library entry points that no
# command reaches
LIBRARY_ONLY = {"forward_gaussian", "inverse_empirical_indices", "match_min_distance",
                "total_distortion", "validate_k_anonymous"}


def test_every_export_has_a_caller_or_is_library_only():
    # an export is named by package code outside its own definition, or is
    # listed in LIBRARY_ONLY; a listed name that gains a caller leaves the list
    trees = _src_trees()
    named = sum(map(_names, trees), Counter())
    own = {node.name: _names(node)[node.name] for tree in trees for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    called = {name for name in dpkanon.__all__ if named[name] > own.get(name, 0)}
    assert LIBRARY_ONLY <= set(dpkanon.__all__)
    assert sorted(set(dpkanon.__all__) - called - LIBRARY_ONLY) == []
    assert sorted(called & LIBRARY_ONLY) == []


def _is_dataclass(node) -> bool:
    return any(getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None)
               == "dataclass" for dec in node.decorator_list)


def test_every_unexported_dataclass_field_is_read():
    # a field of a dataclass the package does not export, that no attribute
    # access in the package reads, is state that nothing uses
    trees = _src_trees()
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = [f"{cls.name}.{stmt.target.id}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            and cls.name not in dpkanon.__all__
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]
    assert dead == []


def test_rows_are_grouped_only_by_group_rows():
    # np.unique(..., axis=...) and collections.Counter each group rows a
    # second way beside dataset.group_rows
    found = [name for name, tree in _src_modules().items()
             if "Counter" in _names(tree)
             or any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique"
                    and any(kw.arg == "axis" for kw in node.keywords)
                    for node in ast.walk(tree))]
    assert found == []


def test_records_are_grouped_by_label_only_by_segments():
    # a stable argsort or np.split rebuilds the (order, starts, sizes) of a
    # grouping beside dataset.segments
    def hand_built(node) -> bool:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr == "argsort":
            return any(kw.arg == "kind" for kw in node.keywords)
        return node.func.attr == "split" and getattr(node.func.value, "id", None) == "np"

    modules = _src_modules()
    allowed = {id(node) for fn in modules["dataset.py"].body
               if isinstance(fn, ast.FunctionDef) and fn.name == "segments"
               for node in ast.walk(fn)}
    found = [f"{name} line {node.lineno}" for name, tree in modules.items()
             for node in ast.walk(tree) if hand_built(node) and id(node) not in allowed]
    assert found == []


# numpy and scipy functions that hand their work to BLAS or LAPACK
_BLAS_FUNCS = {
    "dot", "matmul", "inner", "vdot", "tensordot", "multi_dot", "matrix_power",
    "solve", "lstsq", "inv", "pinv", "qr", "svd", "cholesky", "eig", "eigh",
    "eigvals", "eigvalsh", "det", "slogdet", "lu", "lu_factor", "lu_solve",
    "cho_factor", "cho_solve", "solve_triangular",
}

# Every BLAS or LAPACK use left in the package, keyed by (module, top-level
# function, operation), with its count and the reason it stays.
BLAS_ALLOWED = {
    ("shiftlearn.py", "logistic_weights", "@"): (
        4, "the IRLS fit's linear predictor, gradient and Hessian; the "
           "weights feed only the regression fields, which ROADMAP item 8 "
           "makes independent of the BLAS build"),
    ("shiftlearn.py", "logistic_weights", "solve"): (
        1, "the IRLS Newton step's p x p system, as above"),
    ("shiftlearn.py", "weighted_least_squares", "lstsq"): (
        1, "the ridge WLS fit (LAPACK gelsd); its last bits follow the BLAS "
           "thread count, ROADMAP item 8"),
    ("experiment.py", "_sweep_rows", "@"): (
        1, "test_design @ coef, the held-out predictions scored by relative "
           "bias and R^2; no release reads them"),
    ("reid.py", "_match", "matmul"): (
        1, "the candidate pairs' inner products, summed as a BLAS dot so that "
           "they round as the dense distance matrix did"),
}


def _blas_uses(tree) -> Counter:
    """(top-level function, operation) of each BLAS or LAPACK use in a
    module: a reference to one of _BLAS_FUNCS (as an attribute, an imported
    name or a called name), an @ product, or an einsum with optimize=, which
    may hand a product to BLAS."""
    found = Counter()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        called = {id(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
        for node in ast.walk(top):
            if isinstance(node, (ast.Attribute, ast.alias)) or (
                    isinstance(node, ast.Name) and id(node) in called):
                name = getattr(node, "attr", getattr(node, "name", getattr(node, "id", None)))
                if name in _BLAS_FUNCS:
                    found[owner, name] += 1
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found[owner, "@"] += 1
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                    and any(kw.arg == "optimize" for kw in node.keywords)):
                found[owner, "einsum optimize="] += 1
    return found


def test_forward_map_calls_no_blas_product():
    # A BLAS product's last bits depend on the BLAS build and on a row's
    # place in its block, so the Gaussian forward map, and the clustering
    # whose covariances give its Cholesky factors, and the factorization
    # itself sum with einsum (without optimize) and reductions. So does the
    # synthetic generator, whose response every experiment regresses on.
    # The scan covers every module: a BLAS or LAPACK use that BLAS_ALLOWED
    # does not list with its reason, or one more of a listed kind, fails.
    found = {(name, owner, op): count for name, tree in _src_modules().items()
             for (owner, op), count in _blas_uses(tree).items()}
    assert found == {key: count for key, (count, _) in BLAS_ALLOWED.items()}


_PROPERTY_THEN_PLAIN_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    pass
"""


def test_failing_property_does_not_hide_later_tests(tmp_path):
    # under this checkout's pytest configuration, which turns warnings into
    # errors, a failing hypothesis test is reported as a failure and the
    # session goes on to run the tests after it
    (tmp_path / "test_two.py").write_text(_PROPERTY_THEN_PLAIN_TEST, encoding="utf-8")
    config = pathlib.Path(dpkanon.__file__).parents[2] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def _run_fresh(code: str, *argv) -> str:
    """stdout of a fresh interpreter that runs `code` with `argv` as
    sys.argv[1:], importing the package from this checkout."""
    src = os.path.dirname(os.path.dirname(dpkanon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


_PRINT_MODULES = "\nimport sys\nprint(' '.join(sys.modules))"
_RUN_CLI = "import sys\nfrom dpkanon.cli import main\nassert main(sys.argv[1:]) == 0"
_BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
_SWEEP_MODULES = {f"dpkanon.{name}" for name in ("experiment", "reid", "shiftlearn", "synth")}


def _loaded_by_anonymize(tmp_path, method: str) -> set:
    """The modules a fresh `anonymize --method METHOD` run has loaded."""
    data = tmp_path / "in.csv"
    data.write_text("x0,x1,cost\n" + "".join(
        f"{i % 3},{i % 5},{i * 0.5}\n" for i in range(12)))
    out = _run_fresh(_RUN_CLI + _PRINT_MODULES, "anonymize", "--input", str(data),
                     "--output", str(tmp_path / "out.csv"), "--qi-cols", "x0,x1",
                     "--response-col", "cost", "--k", "3", "--method", method)
    return set(out.split())


def test_cli_import_loads_only_the_anonymize_modules():
    # the sweep's modules, the Gaussian forward map (with its thread pool)
    # and scipy load on first use, so a fresh start of the command line
    # compiles and runs none of them
    loaded = set(_run_fresh("import dpkanon.cli" + _PRINT_MODULES).split())
    assert {m for m in loaded if m.startswith("dpkanon")} == {
        "dpkanon", "dpkanon.cli", "dpkanon.dataset", "dpkanon.dither",
        "dpkanon.errors", "dpkanon.kmember", "dpkanon.pipeline"}
    assert [m for m in loaded
            if m.split(".")[0] in ("scipy", "logging")
            or m.startswith("concurrent.futures")] == []


def test_centroid_run_loads_no_sweep_forward_map_or_scipy(tmp_path):
    loaded = _loaded_by_anonymize(tmp_path, "centroid")
    assert loaded & (_SWEEP_MODULES | {"dpkanon.rosenblatt"}) == set()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_gaussian_run_loads_the_forward_map_only(tmp_path):
    # the forward map's normal CDF is rosenblatt._phi, in numpy alone
    loaded = _loaded_by_anonymize(tmp_path, "gaussian")
    assert "dpkanon.rosenblatt" in loaded
    assert loaded & _SWEEP_MODULES == set()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_gaussian_run_without_scipy(tmp_path):
    # with every scipy import blocked, `anonymize --method gaussian` writes
    # the bytes of a run that may import it; on these 300 rows the
    # interpolant, the cheap pass and the exact redo all run
    data = tmp_path / "in.csv"
    data.write_text("x0,x1,x2,cost\n" + "".join(
        f"{i * 7919 % 40 / 7:.4f},{i * 104729 % 9 / 4:.4f},{i % 4},{i * 0.5}\n"
        for i in range(300)))
    written = []
    for name, code in [("free", _RUN_CLI), ("blocked", _BLOCK_SCIPY + _RUN_CLI)]:
        out = tmp_path / f"{name}.csv"
        _run_fresh(code, "anonymize", "--input", str(data), "--output", str(out),
                   "--qi-cols", "x0,x1,x2", "--response-col", "cost", "--k", "3",
                   "--method", "gaussian", "--seed", "4")
        written.append(out.read_bytes())
    assert written[0] == written[1] and len(written[0].splitlines()) == 301


_EXPERIMENT = ("experiment", "--n", "200", "--test-n", "200", "--k-grid", "5",
               "--shift", "none,nonparametric,logistic", "--trials", "2")


def test_experiment_run_loads_no_scipy(tmp_path):
    # the sweep's reidentification matcher is numpy code, as the forward map is
    loaded = set(_run_fresh(_RUN_CLI + _PRINT_MODULES, *_EXPERIMENT,
                            "--output", str(tmp_path / "m.json")).split())
    assert _SWEEP_MODULES | {"dpkanon.rosenblatt"} <= loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_experiment_run_without_scipy(tmp_path):
    # with every scipy import blocked, `experiment` writes the bytes of a run
    # that may import it
    written = []
    for name, code in [("free", _RUN_CLI), ("blocked", _BLOCK_SCIPY + _RUN_CLI)]:
        out = tmp_path / f"{name}.json"
        _run_fresh(code, *_EXPERIMENT, "--output", str(out))
        written.append(out.read_bytes())
    assert written[0] == written[1] and b'"reid_average": null' not in written[0]


def test_exports_resolve_on_first_access():
    code = ("import json, dpkanon; from dpkanon import *; "
            "print(json.dumps([sorted(set(dpkanon.__all__) - set(dir(dpkanon))), "
            "[n for n in dpkanon.__all__ if n not in globals()]]))")
    assert _run_fresh(code).strip() == "[[], []]"
    # each export is the object its submodule defines
    from dpkanon import _SUBMODULE

    for name in dpkanon.__all__:
        module = __import__(f"dpkanon.{_SUBMODULE[name]}", fromlist=[name])
        assert getattr(dpkanon, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="module 'dpkanon' has no attribute 'nope'"):
        dpkanon.nope
