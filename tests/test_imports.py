"""Every name a module of the lab or of its tests imports is used in that
module, and every public function and class of the lab is used by the lab,
the benchmark or the acceptance ledger."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "celab"
# The code whose references keep a public name of the lab alive: a name that
# only unit tests call is an API nobody runs.
USERS = (sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])
# Public names none of USERS references, each kept for the reason given.
UNREFERENCED = [
    "harness.read_csv",  # the inverse of write_csv, for reading a sweep's CSV back
]
# Test modules whose imports are not checked, each for the reason given.
UNCHECKED_TESTS = {
    "test_acceptance.py",  # the acceptance ledger stays byte-unchanged
}


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


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(p for p in (ROOT / "tests").glob("*.py")
                                      if p.name not in UNCHECKED_TESTS),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _referenced(source: str) -> set:
    """Names a module reads, imports or takes as attributes, and its string
    constants (perfbench wraps functions by attribute name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unreferenced(modules: dict, users: list) -> list:
    """`module.name` of each public top-level function and class of the
    modules ({module: source}) that no source in users references."""
    used = set().union(*map(_referenced, users))
    return [f"{module}.{node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_unreferenced_name_is_found():
    lib = "def f(): pass\ndef g(): pass\nclass C: pass\ndef _h(): pass\n"
    user = "from lib import f\nwrap(lib, 'C')\n"
    assert _unreferenced({"lib": lib}, [lib, user]) == ["lib.g"]


def test_public_names_are_used():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    assert _unreferenced(modules, users) == UNREFERENCED
