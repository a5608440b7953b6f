"""Every private name defined at module or class level in the package, and
every public function, class or method of a module-level class, is read
somewhere in the package; a name that nothing reads is dead code.  A method
counts as read when any attribute of its name is, whatever the class."""

import ast
from pathlib import Path

import masure

PACKAGE = Path(masure.__file__).parent

# public names that only the test suite reads, with the reason each stays
TEST_REFERENCES = {
    "point_on_segment": "the reference for the breakpoints of tree.retract_segment",
    "one_minus_rtn": "builds the factors 1 - r t^k that check the product parameters",
    # benchmarks/test_benchmark.py expects lattices.tail_reduce, the alias
    # that only this function reads
    "column_normal_form": "the only reader of lattices.tail_reduce, which the benchmark wraps",
    "RootSet.find": "benchmarks/workloads.py reads it",
    "rank1_data": "benchmarks/workloads.py reads it",
}


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
    """The private names, the public module-level functions and classes and
    the public methods of those classes (as Class.method), each with its
    module, and every name the package reads."""
    private, public, used = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for body in scopes:
            for name in _defined(body):
                if _is_private(name):
                    private.setdefault(name, path.name)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.setdefault(node.name, path.name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not sub.name.startswith("_")):
                        public.setdefault(f"{node.name}.{sub.name}", path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return private, public, used


def test_every_private_name_is_used():
    private, _, used = _definitions_and_uses()
    assert private, "no private names found: the package path is wrong"
    dead = sorted(f"{module}:{name}" for name, module in private.items() if name not in used)
    assert dead == []


def test_every_public_name_has_a_caller():
    _, public, used = _definitions_and_uses()
    assert {"act", "TreePoint", "main", "WeylElement.length"} <= set(public)
    unread = sorted(f"{module}:{name}" for name, module in public.items()
                    if name.rsplit(".", 1)[-1] not in used)
    assert unread == sorted(f"{public[name]}:{name}" for name in TEST_REFERENCES)
