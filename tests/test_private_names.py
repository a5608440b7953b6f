"""Every private name defined at module or class level in the package is used
somewhere in the package; a private name that nothing reads is dead code."""

import ast
from pathlib import Path

import masure

PACKAGE = Path(masure.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(body):
    """The names that the statements of a module or class body define."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _definitions_and_uses():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for body in scopes:
            for name in _defined(body):
                if _is_private(name):
                    defined.setdefault(name, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_private_name_is_used():
    defined, used = _definitions_and_uses()
    assert defined, "no private names found: the package path is wrong"
    dead = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert dead == []
