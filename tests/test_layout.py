"""Source layout guards: every name src/ defines is used somewhere in src/.

A function, class or module-level name that only tests reach belongs in
tests/helpers.py. Dunder names are left out: the interpreter calls them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Every function and class, nested or not, and every module-level
    assignment target, as (name, line)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    yield leaf.id, node.lineno


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def unreferenced_src_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    return [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if name not in used and not _is_dunder(name)
    ]


def test_every_src_name_has_a_src_reference():
    assert unreferenced_src_names() == []


def test_guard_sees_definitions_and_references():
    tree = ast.parse(
        "import os.path\nA = 1\nB: int = A\nclass C:\n    def m(self):\n        return self.n\n"
        "def f():\n    def g():\n        pass\n"
    )
    assert sorted(name for name, _ in _definitions(tree)) == ["A", "B", "C", "f", "g", "m"]
    assert {"path", "A", "self", "n"} <= set(_references(tree))


def test_raw_event_stays_inside_ingest():
    """RawEvent is ingest's parse record; sessions and everything after them
    read a Session's columns instead."""
    users = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "RawEvent" in set(_references(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert users == ["shopstream/ingest.py"]
