"""Every top-level function and class in ``src/detcouple`` has a caller in
``src`` or is exported by the package: code only its own tests use belongs
under ``tests/``.  Every name a module imports is used in it."""

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


def test_every_definition_has_a_src_caller_or_is_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    uncalled = []
    for module, tree in trees.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # a reference from anywhere in src but the definition's own body
            if not any(defn.name in _names(stmt) for stmt in statements if stmt is not defn):
                uncalled.append(f"{module}: {defn.name}")
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
