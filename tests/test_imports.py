"""Import checks over the package and its tests.

Every import is used or exported (read with the standard library's ``ast``),
and every name a module exports in ``__all__`` exists once it is imported.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fockflow"
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
MODULES = sorted(
    ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts).removesuffix(".__init__")
    for path in PACKAGE.rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in ``__all__``.

    ``from __future__`` imports are compiler directives and are skipped, and
    so is a name imported on a line marked ``# noqa: F401`` (an import kept
    for its side effect).  An attribute chain such as ``np.eye`` reads its
    leading name.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        imported |= {name for a, name in names if "# noqa: F401" not in lines[a.lineno - 1]}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def missing_exports(module) -> list[str]:
    """Names in the module's ``__all__`` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def _source_id(path: Path) -> str:
    return str(path.relative_to(PACKAGE if path.is_relative_to(PACKAGE) else ROOT))


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    assert missing_exports(importlib.import_module(name)) == []


def test_export_check_sees_a_stale_name():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "gone"]
    assert missing_exports(module) == ["gone"]


def test_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .algebra import Mode, Label\n"
        "__all__ = ['Label']\nx = np.eye(2)\n"
    )
    assert unused_imports(source) == ["Mode", "os"]


def test_check_honours_noqa_on_the_imported_name():
    source = "import os  # noqa: F401\nfrom .algebra import (\n    Mode,  # noqa: F401\n    Label,\n)\n"
    assert unused_imports(source) == ["Label"]


@pytest.mark.parametrize("name", ["elements.py", "algebra.py"])
def test_the_engine_imports_no_numpy(name):
    tree = ast.parse((PACKAGE / name).read_text())
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
