"""Source hygiene, checked with the standard library's ast module.

Two kinds of dead code fail here: an import that its module in
``src/``, ``tests/`` or ``tools/`` never uses (``__future__`` imports and
the re-exports of ``__init__.py`` aside), and a module-level private
name in ``src/`` that no module in ``src/`` reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
TOOLS = sorted((ROOT / "tools").rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree):
    """Every name the module reads: bare names, attributes and the names
    a `from` import takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    assert TOOLS
    for path in SRC + TESTS + TOOLS:
        if path.name != "__init__.py":
            unused += _unused_imports(path)
    assert unused == []


def _private_definitions(tree):
    """Module-level private names: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_name_in_src_is_read_in_src():
    trees = {path: _tree(path) for path in SRC}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    unread = sorted(
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    )
    assert unread == []
