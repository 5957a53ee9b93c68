"""Source guards: every imported name is used, every export exists, and
no module asserts.

An `assert` vanishes under `python -O`, and an `AssertionError` would
reach the CLI as malformed input; internal checks raise `InternalDefect`.
A name left in a package's `__all__` after its definition is deleted
breaks `from package import *`.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import qsheaf

PACKAGE = Path(qsheaf.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
PACKAGES = [
    ".".join((PACKAGE.name, *path.parent.relative_to(PACKAGE).parts))
    for path in SOURCES
    if path.name == "__init__.py"
]


def unused_imports(tree) -> list:
    """Imported names never read in the module; `__all__` entries count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def assert_lines(tree) -> list:
    """Line numbers of the `assert` statements in a module."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def test_guard_sees_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    tree = ast.parse(source)
    assert unused_imports(tree) == ["field (line 1)"]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_guard_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(ast.parse(source)) == [3]


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_asserts(path):
    assert assert_lines(ast.parse(path.read_text())) == []


def stale_exports(module) -> list:
    """Names in a module's `__all__` that the module does not define."""
    return [
        name for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]


def test_guard_sees_a_stale_export():
    module = types.ModuleType("pkg")
    exec("__all__ = ['kept', 'gone']\nkept = 1\n", module.__dict__)
    assert stale_exports(module) == ["gone"]


@pytest.mark.parametrize("name", PACKAGES)
def test_no_stale_exports(name):
    assert stale_exports(importlib.import_module(name)) == []
