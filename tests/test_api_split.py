"""The package holds what its commands run; the independent oracles the
tests compare it against live in ``tests/oracles.py`` alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qpascal

TESTS = Path(__file__).resolve().parent


def test_oracles_stay_out_of_the_package():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined
    modules = [qpascal] + [
        importlib.import_module("qpascal." + info.name)
        for info in pkgutil.iter_modules(qpascal.__path__)
    ]
    for module in modules:
        assert not defined & set(vars(module)), module.__name__
    for path in Path(qpascal.__file__).parent.rglob("*.py"):
        assert "oracles" not in path.read_text(), path


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
