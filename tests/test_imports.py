"""The package imports scipy only where a norm is taken.

A static scan of the source, parsed with ast and never run.  Every import
statement of a todalab module that names scipy, in any form (`import
scipy.x`, `from scipy import x`, `from scipy.x import y`), is recorded with
the top-level function or method that holds it.  The one allowed is
scipy.linalg, inside state.jacobi_norm and state.jacobi_norm_within, where
eigvalsh_tridiagonal takes the norm: every other scipy module costs a run
megabytes of resident memory and tens of milliseconds of import
(scipy.special alone adds 3.7 MB to a soliton run's peak).
tests/test_cli.py checks the same at run time, on the modules a run loads.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todalab"
ALLOWED = {("state", "jacobi_norm", "scipy.linalg"),
           ("state", "jacobi_norm_within", "scipy.linalg")}


def _imported(node):
    """The scipy modules an import statement loads: the dotted name of each
    `import`, the module of a `from`, and for `from scipy import x` the
    submodule scipy.x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level or node.module is None:
        return []
    if node.module == "scipy":
        return [f"scipy.{alias.name}" for alias in node.names]
    return [node.module]


def scipy_imports(module, tree):
    """(module, holder, scipy module) of each scipy import in the tree;
    holder is the top-level function, or Class.method, whose body holds the
    statement, and None at module level."""
    found = []

    def visit(node, holder):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((module, holder, name) for name in _imported(node)
                         if name == "scipy" or name.startswith("scipy."))
        for child in ast.iter_child_nodes(node):
            if holder is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if not isinstance(node, ast.ClassDef)
                      else f"{node.name}.{child.name}")
            else:
                visit(child, holder)

    visit(tree, None)
    return found


def test_the_scan_sees_every_import_form():
    src = """
import scipy
import numpy, scipy.special as sp
from scipy import integrate, linalg
from scipy.optimize import brentq
from . import state

def f():
    def g():
        from scipy.linalg import eigvalsh
class C:
    def m(self):
        import scipy.sparse
"""
    assert scipy_imports("x", ast.parse(src)) == [
        ("x", None, "scipy"), ("x", None, "scipy.special"),
        ("x", None, "scipy.integrate"), ("x", None, "scipy.linalg"),
        ("x", None, "scipy.optimize"), ("x", "f", "scipy.linalg"),
        ("x", "C.m", "scipy.sparse")]


def test_scipy_linalg_inside_the_two_norms_is_the_only_scipy_import():
    found = {hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in scipy_imports(path.stem, ast.parse(path.read_text()))}
    assert found <= ALLOWED, f"scipy imported outside the norms: {sorted(found - ALLOWED, key=str)}"
