"""Every name that a module of the package imports is read in that module;
an import that nothing reads is dead code."""

import ast
from pathlib import Path

import masure

PACKAGE = Path(masure.__file__).parent


def _imported(tree):
    """(bound name, line) for each import of the module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        unread += [f"{path.name}:{line}:{name}" for name, line in _imported(tree)
                   if name not in read]
    assert unread == []
