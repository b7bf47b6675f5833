"""Module-level facts of the package source: only the propagator imports
scipy, for ``expm`` and ``dgesv``, and only ``states`` defines a tolerance
constant (``*_ATOL``), so physicality has one slack."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mechmbqc"


def imported_modules(tree: ast.AST):
    """Top-level names of every module an ``import`` or ``from`` statement
    anywhere in ``tree`` loads, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_only_the_propagator_imports_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in sources} >= {"dynamics.py", "states.py", "cli.py"}
    importers = {path.name for path in sources
                 if "scipy" in imported_modules(ast.parse(path.read_text()))}
    assert importers == {"dynamics.py"}


def test_import_scan_sees_every_import_form():
    source = ("import scipy\nimport scipy.linalg as sla\nfrom scipy import constants\n"
              "from .states import fidelity\n"
              "def f():\n    from scipy.linalg.lapack import dgesv\n")
    assert list(imported_modules(ast.parse(source))) == ["scipy"] * 4


def atol_constants(tree: ast.Module):
    """Names ending in ``_ATOL`` that a module-level assignment binds."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.endswith("_ATOL"):
                    yield name.id


def test_only_states_defines_a_tolerance_constant():
    source = ("A_ATOL = 1e-6\nB_ATOL: float = 1e-6\nC_ATOL, other = 1, 2\n"
              "def f():\n    LOCAL_ATOL = 1\n")
    assert list(atol_constants(ast.parse(source))) == ["A_ATOL", "B_ATOL", "C_ATOL"]
    owners = {path.name: sorted(atol_constants(ast.parse(path.read_text())))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, found in owners.items() if found} == {"states.py"}
    assert "PHYSICALITY_ATOL" in owners["states.py"]
