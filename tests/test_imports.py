"""Source guards: every imported name is used, every public function is
called by the program, every export exists, and no module asserts.

An `assert` vanishes under `python -O`, and an `AssertionError` would
reach the CLI as malformed input; internal checks raise `InternalDefect`.
A name left in a package's `__all__` after its definition is deleted
breaks `from package import *`.
"""

import ast
import importlib
import types
from collections import Counter
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


def public_api(tree) -> dict:
    """Public module-level functions and classmethods -> their definitions.

    A classmethod is named `Class.method`.
    """
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in item.decorator_list
                    )
                ):
                    defs[f"{node.name}.{item.name}"] = item
    return defs


def names_read(tree) -> Counter:
    """How often each name is read, as a `Name` or as an `Attribute`."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def unused_api(program, callers) -> list:
    """Public functions of the `program` trees read nowhere outside their
    own bodies, in the program or in the `callers` trees."""
    reads = sum(map(names_read, [*program, *callers]), Counter())
    unused = []
    for tree in program:
        for name, node in public_api(tree).items():
            short = name.rsplit(".", 1)[-1]
            if reads[short] == names_read(node)[short]:
                unused.append(name)
    return sorted(unused)


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


# Public functions that neither the program nor the benchmark calls, each
# kept for the reason given; a name that gains a caller must leave the list.
UNUSED_API = {
    "corpus_dir": "the README shell recipe prints the corpus path with it",
    "trivial_coverage": "the smallest lawful coverage, a base case for the"
    " coverage enumeration and site catalogue of ROADMAP items 14, 15, 17",
    "ThinCategory.from_ordered_monoid": "the down-set completions that"
    " generate sites in ROADMAP item 5",
    "sheaf_tensor": "the tensor of sheaves whose closed structure ROADMAP"
    " item 6 checks",
    "probe_pullback_preservation": "the non-lexness witness search of"
    " ROADMAP item 8",
    "product_sheaf": "the product-site sheaves of ROADMAP item 10",
}
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_guard_sees_an_unused_function():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive():\n    return recursive()\n\n"
        "class K:\n    @classmethod\n    def make(cls):\n        return cls()\n\n"
        "    def method(self):\n        return used()\n"
    )
    caller = "import m\nm.K.make()\n"
    assert unused_api([ast.parse(source)], []) == ["K.make", "recursive"]
    assert unused_api([ast.parse(source)], [ast.parse(caller)]) == ["recursive"]


def test_no_unused_api():
    program = [ast.parse(path.read_text()) for path in SOURCES]
    bench = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]
    assert bench
    assert unused_api(program, bench) == sorted(UNUSED_API)


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
