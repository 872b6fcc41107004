"""The package holds only what a run or a demo reaches.

A static closure over the source, parsed with ast and never run.  The roots
are the module-level statements of every todalab module, every definition
in cli.py and the demo scripts.  A reached definition reaches every
top-level function or class, of any module, whose name its body uses as a
name or an attribute.  A reached class reaches its bases, its decorators,
the statements of its body that define no function, and its dunder
methods, which Python calls by itself; each other method or property of it
is reached when a reached body uses its name.  Code that only the tests
call belongs in tests/oracles.py.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "todalab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _names(nodes):
    """Every name and attribute the nodes use."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _uses(node):
    """The names a definition reaches: a function's whole body, a class's
    all but its methods."""
    if not isinstance(node, ast.ClassDef):
        return _names([node])
    return _names([*node.bases, *node.keywords, *node.decorator_list,
                   *(item for item in node.body if not isinstance(item, FUNCTIONS))])


def _definitions(module, tree):
    """(module, owner, definition) of each top-level function and class of
    the module's tree (owner None) and of each method of its classes (owner
    the class name)."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield module, None, node
        if isinstance(node, ast.ClassDef):
            yield from ((module, node.name, item) for item in node.body
                        if isinstance(item, FUNCTIONS))


def _reached(definition, seen) -> bool:
    """Whether a root or a reached body uses the definition's name and, for
    a method, its class's; a dunder method needs its class only."""
    _, owner, node = definition
    dunder = node.name.startswith("__") and node.name.endswith("__")
    return (owner is None or owner in seen) and (node.name in seen or dunder)


def unreached():
    """(module, name) of each public top-level function or class, and
    (module, "Class.member") of each public method of a reached class, of
    the package that no root reaches, in source order."""
    roots = [ast.parse(p.read_text()) for p in sorted((ROOT / "demos").glob("*.py"))]
    left = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            roots.append(tree)
        else:
            roots += [node for node in tree.body if not isinstance(node, DEFINITIONS)]
            left += _definitions(path.stem, tree)
    seen = _names(roots)
    while now := [d for d in left if _reached(d, seen)]:
        left = [d for d in left if not _reached(d, seen)]
        seen = seen.union(*(_uses(node) for _, _, node in now))
    return [(module, node.name if owner is None else f"{owner}.{node.name}")
            for module, owner, node in left
            if not node.name.startswith("_") and module not in ("__init__", "__main__")
            and (owner is None or owner in seen)]


def test_every_public_definition_is_reached_by_a_run_or_a_demo():
    missing = unreached()
    assert not missing, f"no run or demo reaches {missing}: move it to tests/oracles.py"
