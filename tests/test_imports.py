"""Every name a package module imports is used in that module, and every
module-level private helper is used somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import betheperm

PACKAGE = Path(betheperm.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os.path\nos.sep\n"
    assert unused_imports(source) == ["line 2: math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes taken and names imported anywhere in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private_definitions(node: ast.stmt) -> list[str]:
    """The private functions and constants a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and constants of ``sources`` (module
    name to source) that no code references outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items() for node in tree.body
            for name in _private_definitions(node) if used[name] == _references(node)[name]]


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": ("_LIMIT = 3\n_UNUSED: int = 4\n__all__ = ['public']\n"
              "def _used():\n    return _LIMIT\n"
              "def _loop(k):\n    return _loop(k - 1)\n"
              "def _shared():\n    pass\n"
              "def public():\n    return _used()\n"),
        "b": "from .a import _shared\n",
    }
    assert dead_helpers(sources) == ["a: _UNUSED", "a: _loop"]


def test_no_dead_helpers():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(sources) == []
