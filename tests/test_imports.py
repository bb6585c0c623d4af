"""Every name a module of the lab imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "celab"


def _unused_imports(source: str) -> list:
    """Names bound by the module's imports that it never reads, in order.
    A name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]
    assert _unused_imports("from . import x\n__all__ = ['x']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
