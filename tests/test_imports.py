"""Module-level facts of the package source: only the propagator imports
scipy, for ``expm`` and ``dgesv``, only ``states`` defines a tolerance
constant (``*_ATOL``), so physicality has one slack, only
``states.is_index`` checks that an index is in range, and no module imports
a private (``_``-prefixed) name of another."""

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


def hand_written_index_checks(tree: ast.AST):
    """Line numbers of each ``0 <= x < n`` chained comparison on the int
    literal 0 and each ``set(range(...))`` in ``tree``, outside a function
    named ``is_index``."""
    skipped = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == "is_index"
               for node in ast.walk(func)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if (isinstance(node, ast.Compare) and len(node.ops) > 1
                and isinstance(node.ops[0], ast.LtE) and isinstance(node.left, ast.Constant)
                and type(node.left.value) is int and node.left.value == 0):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "set" and node.args
              and isinstance(node.args[0], ast.Call) and isinstance(node.args[0].func, ast.Name)
              and node.args[0].func.id == "range"):
            yield node.lineno


def test_only_is_index_checks_an_index_range():
    source = ("a = 0 <= i < n\nb = not 0 <= j < len(x)\nc = set(range(n))\n"
              "d = 0.0 <= t < inf\ne = 1 <= k <= 2\nf = 0 <= i\ng = set(x)\n"
              "def is_index(v, n):\n    return 0 <= v < n\n")
    assert sorted(hand_written_index_checks(ast.parse(source))) == [1, 2, 3]
    found = {path.name: sorted(hand_written_index_checks(ast.parse(path.read_text())))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def private_imports(tree: ast.AST):
    """``module.name`` of each ``_``-prefixed name, not a dunder, that a
    relative ``from`` import anywhere in ``tree`` loads; ``from . import _x``
    gives ``._x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    # Sampling policy lives behind dynamics.sample_step, so optomech needs no
    # private name of dynamics.
    source = ("from .dynamics import _sample_flow, sample_step\n"
              "from . import _private, __version__\nfrom numpy import _core\n"
              "def f():\n    from .states import _check\n")
    assert sorted(private_imports(ast.parse(source))) == [
        "._private", "dynamics._sample_flow", "states._check"]
    found = {path.name: sorted(private_imports(ast.parse(path.read_text())))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
