"""The package holds only what a run or a demo reaches.

A static closure over the source, parsed with ast and never run.  The roots
are the module-level statements of every todalab module, every definition
in cli.py and the demo scripts.  A reached definition reaches every
top-level function or class, of any module, whose name its body uses as a
name or an attribute.  Code that only the tests call belongs in
tests/oracles.py.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todalab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    """Every name and attribute the nodes use."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached():
    """(module, name) of each public top-level function or class of the
    package that no root reaches, in source order."""
    defined = {}                    # name -> [(module, definition)]
    roots = [ast.parse(p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                roots.append(node)
            elif path.stem == "cli":
                roots.append(node)
            else:
                defined.setdefault(node.name, []).append((path.stem, node))
    seen, todo = set(), _names(roots)
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= _names(node for _, node in defined.get(name, ())) - seen
    return [(module, name) for name, defs in defined.items() for module, _ in defs
            if name not in seen and not name.startswith("_")
            and module not in ("__init__", "__main__")]


def test_every_public_definition_is_reached_by_a_run_or_a_demo():
    missing = unreached()
    assert not missing, f"no run or demo reaches {missing}: move it to tests/oracles.py"
