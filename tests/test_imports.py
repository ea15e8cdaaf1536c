"""Import checks over the package and its tests.

Every import is used or exported (read with the standard library's ``ast``),
and every name a module exports in ``__all__`` exists once it is imported
and is read by package code other than its own definition, so the package
ships no name that only the tests call.
No ``Record`` subclass writes a constructor that only stores its
``_fields``, which ``Record.__init__`` already does, and no class but
``Record`` writes its own ``__eq__`` or ``__repr__``.
No package module imports numpy or ``dataclasses`` when it is loaded, and
each CLI command but ``chsh --search`` and a ``signal --mc`` run past
``MAX_PURE_MC_DRAWS`` runs, in a fresh interpreter, without loading numpy,
``dataclasses`` or ``inspect``.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def package_reads(source: str) -> set[str]:
    """Names a module reads outside their own top-level definition.

    A read is a loaded ``Name``, a name imported with ``from ... import``,
    or an attribute of an imported name (``module.attr``).  A top-level
    ``def`` or ``class`` reading its own name does not count.
    """
    tree = ast.parse(source)
    imported = {
        a.asname or a.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    reads = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in imported:
                    names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        reads |= names
    return reads


# a package ``__init__`` only re-exports, so its imports are not reads
READ_IN_PACKAGE = set().union(
    *(package_reads(p.read_text()) for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
)
# exported names that no package code reads, each with the reason it stays
UNREAD_EXPORTS = {
    "run_circuit": "the state-level reference criterion 9 compares the bundled files with; "
    "bench/spans.py times it",
    "verify_unitary": "the unitarity residual a run trace is to report; tests call it until then",
}


def _source_id(path: Path) -> str:
    return str(path.relative_to(PACKAGE if path.is_relative_to(PACKAGE) else ROOT))


@pytest.mark.parametrize("path", SOURCES, ids=_source_id)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    assert missing_exports(importlib.import_module(name)) == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_read_in_the_package(name):
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exported if n not in READ_IN_PACKAGE and n not in UNREAD_EXPORTS] == []


def test_unread_exports_are_exported_and_unread():
    exported = {n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", ())}
    assert {n for n in UNREAD_EXPORTS if n in exported and n not in READ_IN_PACKAGE} == set(UNREAD_EXPORTS)


def test_read_check_skips_a_name_inside_its_own_definition():
    source = (
        "from .algebra import Mode\nimport math\n"
        "def f(n):\n    return f(n - 1) + g()\n"
        "def g():\n    return math.pi\n"
        "class C:\n    def m(self):\n        return C(), self.x\n"
        "x = f\n"
    )
    assert package_reads(source) == {"Mode", "f", "g", "n", "math", "pi", "self"}


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


def imports_at_load(source: str) -> set[str]:
    """Top-level packages a module imports when it is itself imported.

    An import inside a function body runs only when the function is called,
    so it is skipped; relative imports name the package itself.
    """
    found = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_load_check_skips_function_bodies():
    source = (
        "import os.path\nfrom . import algebra\nclass A:\n    import json\n"
        "def f():\n    import numpy as np\nif True:\n    from math import pi\n"
    )
    assert imports_at_load(source) == {"os", "json", "math"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_source_id)
def test_no_module_imports_numpy_at_load(path):
    assert "numpy" not in imports_at_load(path.read_text())


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_source_id)
def test_no_module_imports_dataclasses_at_load(path):
    assert "dataclasses" not in imports_at_load(path.read_text())


def copied_constructors(source: str) -> list[str]:
    """``Record`` subclasses whose ``__init__`` only does what ``Record.__init__`` does.

    Such a constructor takes exactly its ``_fields`` as parameters, in order
    and without defaults, and its body is nothing but assignments: each
    value is one of those parameters (or ``self.__dict__``, read into an
    alias), and the keys it writes are the fields and nothing else.
    """
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or "Record" not in [getattr(b, "id", None) for b in cls.bases]:
            continue
        fields, init = (), None
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["_fields"]:
                fields = ast.literal_eval(stmt.value)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                init = stmt
        if init is None:
            continue
        a = init.args
        params = [arg.arg for arg in a.args[1:]]
        if params != list(fields) or a.defaults or a.vararg or a.kwonlyargs or a.kwarg:
            continue
        written, copies = set(), True
        for stmt in init.body:
            if not isinstance(stmt, ast.Assign):
                copies = False
                break
            values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) else [stmt.value]
            copies &= all(
                (isinstance(v, ast.Name) and v.id in params)
                or (isinstance(v, ast.Attribute) and v.attr == "__dict__")
                for v in values
            )
            for target in stmt.targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Constant):
                        written.add(t.slice.value)
        if copies and written == set(fields):
            found.append(cls.name)
    return found


def test_copy_check_sees_only_a_constructor_that_copies():
    source = (
        "class Copy(Record):\n    _fields = ('a', 'b')\n"
        "    def __init__(self, a, b):\n        d = self.__dict__\n        d['a'], d['b'] = a, b\n"
        "class One(Record):\n    _fields = ('a',)\n"
        "    def __init__(self, a):\n        self.__dict__['a'] = a\n"
        "class Default(Record):\n    _fields = ('a',)\n"
        "    def __init__(self, a=0):\n        self.__dict__['a'] = a\n"
        "class Extra(Record):\n    _fields = ('a',)\n"
        "    def __init__(self, a, line):\n        d = self.__dict__\n        d['a'], d['line'] = a, line\n"
        "class Cache(Record):\n    _fields = ('a',)\n"
        "    def __init__(self, a):\n        d = self.__dict__\n        d['a'], d['_hash'] = a, hash(a)\n"
        "class Check(Record):\n    _fields = ('a',)\n"
        "    def __init__(self, a):\n        if a < 0:\n            raise ValueError\n"
        "        self.__dict__['a'] = a\n"
        "class Plain:\n    _fields = ('a',)\n"
        "    def __init__(self, a):\n        self.__dict__['a'] = a\n"
    )
    assert copied_constructors(source) == ["Copy", "One"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_source_id)
def test_no_record_copies_the_shared_constructor(path):
    assert copied_constructors(path.read_text()) == []


def value_classes(source: str) -> list[str]:
    """The classes that define their own ``__eq__`` or ``__repr__``."""
    return [
        cls.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__repr__") for f in cls.body)
    ]


# classes besides ``Record`` that keep their own equality and repr, each with the reason
OWN_VALUE_METHODS = {
    "fockflow.cdl.lexer.Token": "mutable, with ``__slots__`` for lexing speed, which a record is not",
}


def test_value_check_sees_a_class_with_its_own_equality_or_repr():
    source = (
        "class Eq:\n    def __eq__(self, other):\n        return True\n"
        "class Repr:\n    def __repr__(self):\n        return ''\n"
        "class Plain(Record):\n    _fields = ('a',)\n    def __str__(self):\n        return ''\n"
    )
    assert value_classes(source) == ["Eq", "Repr"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=_source_id)
def test_only_record_defines_equality_and_repr(path):
    module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    found = {f"{module}.{name}" for name in value_classes(path.read_text())}
    assert sorted(found - {"fockflow._record.Record", *OWN_VALUE_METHODS}) == []


# numpy loads only for ``chsh --search`` and for ``signal --mc`` runs of more
# than experiments.MAX_PURE_MC_DRAWS draws (4 x 40,000 = 160,000 here)
WITHOUT_NUMPY = [
    ["table", "hh"],
    ["table", "swap"],
    ["chsh", "hh", "--dials", "0,1,2,3"],
    ["sweep", "hh", "--steps", "2"],
    ["check", str(PACKAGE / "examples" / "hh_fermion.cdl")],
    ["cascade"],
    ["signal", "--dofs", "3"],
    ["signal", "--dofs", "3", "--mc", "10"],
]
WITH_NUMPY = [["signal", "--copies", "4", "--mc", "40000"], ["chsh", "hh", "--search"]]
# modules a command is to leave unloaded; what the interpreter loads before
# the probe's first line (``site`` and its ``.pth`` files) does not count
PROBED = ("numpy", "dataclasses", "inspect")
_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import contextlib, io\n"
    "from fockflow.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    f"print(code, *sorted(set({PROBED!r}) & (set(sys.modules) - before)))\n"
)


def _loaded(argv) -> set[str]:
    """The ``PROBED`` modules that running ``argv`` in a fresh interpreter loads."""
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, *loaded = done.stdout.split()
    assert code == "0", done.stderr
    return set(loaded)


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_command_runs_without_numpy(argv):
    assert _loaded(argv) == set()


@pytest.mark.parametrize("argv", WITH_NUMPY, ids=" ".join)
def test_probe_sees_numpy_where_it_loads(argv):
    assert "numpy" in _loaded(argv)
