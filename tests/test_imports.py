"""Which package modules import scipy: only the propagator does, for
``expm`` and ``dgesv``. A new scipy import anywhere else fails here."""

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
