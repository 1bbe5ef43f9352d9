"""The package holds what its commands run; the independent oracles the
tests compare it against live in ``tests/oracles.py`` alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qpascal
import qpascal.cli

TESTS = Path(__file__).resolve().parent


def _defined_names(source: str) -> set[str]:
    """The functions, classes and module-level assignments of a module."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return defined


def test_oracles_stay_out_of_the_package():
    defined = _defined_names((TESTS / "oracles.py").read_text())
    assert {"ROOT", "TRUNCATION_TERMS", "TRUNCATION_TARGET", "Vertex"} <= defined
    modules = [qpascal] + [
        importlib.import_module("qpascal." + info.name)
        for info in pkgutil.iter_modules(qpascal.__path__)
    ]
    for module in modules:
        assert not defined & set(vars(module)), module.__name__
    for path in Path(qpascal.__file__).parent.rglob("*.py"):
        assert "oracles" not in path.read_text(), path


def test_moved_accessors_are_gone():
    assert not hasattr(qpascal.BinaryWord, "endpoint")
    assert not hasattr(qpascal.BinaryWord, "zeros")
    assert not hasattr(qpascal.VArray, "first_column")
    assert not hasattr(qpascal, "q_difference")
    assert not hasattr(qpascal.boundary, "q_difference")
    arrays = ["extreme_array", "theta_array", "polya_array"]  # read off the chains
    moved = {
        qpascal.ForwardChain: ["law"],
        qpascal.FiniteLaw: ["to_jsonable"],
        qpascal.VArray: ["from_jsonable"],
        qpascal.Subspace: ["spanned", "full", "contains", "vectors", "_trusted",
                           "__post_init__", "pivots"],
        qpascal.galois: ["rref_canonicalize", "_grown"],
        qpascal.FieldSpec: ["sub"],
        qpascal.BinaryWord: ["inversions", "__iter__"],
        qpascal.BoundaryMeasure: ["mass"],
        qpascal.exactq: ["q_integer", "gaussian_rows"],
        qpascal: ["q_integer", "rref_canonicalize", *arrays],
        qpascal.boundary: arrays,
        qpascal.processes: arrays,
        qpascal.laws: ["_float_level"],
        qpascal.cli: ["_process_args", "_make_sampler"],
    }
    for owner, names in moved.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)


def test_growth_and_the_runs_sampler_read_the_extreme_chain():
    """The extreme stay is built in boundary.extreme_chain alone: growth
    imports nothing from boundary, and the runs sampler only the chain."""
    for module in (qpascal.galois, qpascal.processes):
        assert not {"extreme_stay", "_check_kappa"} & set(vars(module)), module.__name__
    source = Path(qpascal.galois.__file__).read_text()
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "boundary"
        for node in ast.walk(ast.parse(source))
    )


def _formula_imports(source: str) -> set[str]:
    """Names an oracle file imports from qpascal that are the package's own
    formulas: ``extreme_stay`` and every ``_``-prefixed name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpascal"):
            found |= {
                alias.name
                for alias in node.names
                if alias.name == "extreme_stay" or alias.name.startswith("_")
            }
    return found


def test_oracles_do_not_import_the_formulas_they_check():
    assert _formula_imports("from qpascal.boundary import _check_kappa, extreme_stay") == {
        "_check_kappa",
        "extreme_stay",
    }
    assert _formula_imports((TESTS / "oracles.py").read_text()) == set()
