"""Every top-level function, class and assigned name in ``src/detcouple`` is
used in ``src`` or exported by the package: code and constants only their own
tests use belong under ``tests/``.  Every name a module imports is used in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "detcouple"


def _names(node):
    """Every name, attribute and imported name that ``node`` refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _defined(stmt):
    """The names a module-level statement defines: a function's or class's, or the
    names it assigns; dunder names such as ``__version__`` are exempt."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def test_every_definition_has_a_src_caller_or_is_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    uncalled = []
    for module, tree in trees.items():
        for defn in tree.body:
            for name in _defined(defn):
                # a reference from anywhere in src but the defining statement itself
                if not any(name in _names(stmt) for stmt in statements if stmt is not defn):
                    uncalled.append(f"{module}: {name}")
    assert not uncalled, f"defined in src, used by no src code and not exported: {uncalled}"


def test_every_import_is_used():
    # __init__.py imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # "import a.b" binds a, "import a as b" and "from a import c as b" bind b
                unused += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"imported in src and never used: {unused}"
