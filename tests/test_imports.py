"""No module of the package or of its tests imports a name it never uses,
the package holds no public code that only its own tests call, no package
module imports a private name of another, no package module binds a
mutable container at module level, the package imports nothing from
outside the standard library, and start-up imports neither ``dataclasses``
nor ``datetime``.

No linter ships with the project, so the checks walk each module's syntax
tree: every name an import binds must be read somewhere in that module.
``__init__.py`` is skipped, since its imports are the package's exports,
and so is ``tests/test_acceptance.py``, the acceptance gate, which is kept
byte for byte and imports ``pytest`` without using it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import legrack

MODULES = sorted(p for p in Path(legrack.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py")
               if p.name != "test_acceptance.py")
# Callers from outside the package that count as real users: the acceptance
# gate and the benchmark harness.  Both are read here, never edited.
OUTSIDE = [Path(__file__).parent / "test_acceptance.py",
           *sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))]
# The write half of the documented ``.rack`` and ``.front`` formats: the
# CLI only reads those files, but a user writes them with these.
TEST_ONLY_ALLOWED = {"save_rack", "save_front"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read there."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_sees_dead_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\n"
              "from .a import b, c as d\n"
              "def f(x: b) -> None:\n    return re.sub(x)\n")
    assert unused_imports(source) == ["d", "os"]


def test_no_unused_imports():
    found = {f"{p.parent.name}/{p.name}":
             unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES + TESTS}
    assert {"legrack/coloring.py", "legrack/fourleg.py", "legrack/racks.py",
            "tests/conftest.py", "tests/test_coloring.py",
            "tests/test_perms.py"} <= found.keys()
    assert "tests/test_acceptance.py" not in found
    assert {name: names for name, names in found.items() if names} == {}


def names_read(source: str) -> set[str]:
    """Names ``source`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_public_code_only_tests_call():
    """Every public top-level function and class of the package is read by
    its own module beyond its definition, by another package module, by
    the acceptance gate or by perfbench; tests alone do not keep it."""
    assert {"run.py", "test_acceptance.py"} <= {p.name for p in OUTSIDE}
    read = set().union(*(names_read(p.read_text(encoding="utf-8"))
                         for p in MODULES + OUTSIDE))
    unread = set()
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in read):
                unread.add(node.name)
    assert unread == TEST_ONLY_ALLOWED


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names that ``source`` imports from a module of the
    package, by a relative import or one from ``legrack``; dunders such as
    ``__version__`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "legrack"):
            found.extend(a.name for a in node.names
                         if a.name.startswith("_")
                         and not (a.name.startswith("__")
                                  and a.name.endswith("__")))
    return sorted(found)


def test_private_import_check_sees_planted_imports():
    source = ("from . import __version__\n"
              "from .fourleg import _structure, make_fourleg\n"
              "from os import _exit\n"
              "from legrack.racks import _iso_search as search\n"
              "def f():\n    from .census import _tables\n")
    assert private_imports(source) == ["_iso_search", "_structure", "_tables"]
    coloring = Path(legrack.__file__).parent / "coloring.py"
    planted = coloring.read_text(encoding="utf-8").replace(
        "from .fourleg import ", "from .fourleg import _down_maps, ", 1)
    assert private_imports(planted) == ["_down_maps"]


def test_no_private_cross_module_imports():
    """A module's ``_``-names are its own: another module that needs one
    should get a public name for it."""
    found = {f"legrack/{p.name}": private_imports(
        p.read_text(encoding="utf-8"))
        for p in sorted(Path(legrack.__file__).parent.glob("*.py"))}
    assert {"legrack/__init__.py", "legrack/cli.py",
            "legrack/coloring.py"} <= found.keys()
    assert {name: names for name, names in found.items() if names} == {}


# A module-level dict, list or set would be a cache that outlives the
# objects it describes: perfbench clears only ``lru_cache``s between passes,
# so such a memo would time a warm program.  Memos live on instances.
# ``_CUSP_OPERATOR`` is a constant table that nothing writes.
MODULE_CONTAINERS_ALLOWED = {"_CUSP_OPERATOR"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set,
                    ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}


def module_containers(source: str) -> list[str]:
    """Names bound at module level (outside any function or class) to a
    dict, list or set display, comprehension or constructor call."""
    found = []

    def is_container(value) -> bool:
        if isinstance(value, _CONTAINER_NODES):
            return True
        if isinstance(value, ast.Call):
            f = value.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            return name in _CONTAINER_CALLS
        return False

    def walk(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if node.value is not None and is_container(node.value):
                    found.extend(n.id for t in targets for n in ast.walk(t)
                                 if isinstance(n, ast.Name))
            for field in ("body", "orelse", "finalbody", "handlers"):
                walk(getattr(node, field, []))

    walk(ast.parse(source).body)
    return sorted(found)


def test_module_container_check_sees_planted_memos():
    source = ("import collections\n"
              "_MEMO = {}\n"
              "SEEN: list[int] = []\n"
              "if True:\n    _BY_KEY = collections.defaultdict(list)\n"
              "NAMES = ('a', 'b')\n"
              "def f():\n    local = {}\n    return local\n"
              "class C:\n    field = set()\n")
    assert module_containers(source) == ["SEEN", "_BY_KEY", "_MEMO"]
    coloring = Path(legrack.__file__).parent / "coloring.py"
    planted = coloring.read_text(encoding="utf-8") + "\n_MEMO = {}\n"
    assert module_containers(planted) == ["_MEMO"]


def test_no_module_level_containers():
    found = {f"legrack/{p.name}": module_containers(
        p.read_text(encoding="utf-8"))
        for p in sorted(Path(legrack.__file__).parent.glob("*.py"))}
    assert "legrack/__init__.py" in found
    assert found["legrack/front.py"] == ["_CUSP_OPERATOR"]
    bad = {name: [n for n in names if n not in MODULE_CONTAINERS_ALLOWED]
           for name, names in found.items()}
    assert {name: names for name, names in bad.items() if names} == {}


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules that ``source`` imports by an absolute import, at
    any depth, other than ``__future__``, ``legrack`` and the standard
    library (``sys.stdlib_module_names``, Python >= 3.10)."""
    allowed = {"__future__", "legrack"} | sys.stdlib_module_names
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - allowed)


def test_stdlib_check_sees_planted_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from . import racks\n"
              "from .census import enumerate_racks\n"
              "from legrack.perms import compose\n"
              "from scipy.linalg import expm\n"
              "def f():\n    import yaml\n")
    assert non_stdlib_imports(source) == ["numpy", "scipy", "yaml"]
    coloring = Path(legrack.__file__).parent / "coloring.py"
    planted = coloring.read_text(encoding="utf-8").replace(
        "from .fourleg import ", "import sympy\nfrom .fourleg import ", 1)
    assert non_stdlib_imports(planted) == ["sympy"]


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependencies (``dependencies = []`` in
    ``pyproject.toml``)."""
    found = {f"legrack/{p.name}": non_stdlib_imports(
        p.read_text(encoding="utf-8"))
        for p in sorted(Path(legrack.__file__).parent.glob("*.py"))}
    assert {"legrack/__init__.py", "legrack/cli.py",
            "legrack/census.py"} <= found.keys()
    assert {name: names for name, names in found.items() if names} == {}


def test_start_up_imports_neither_dataclasses_nor_datetime():
    """A fresh interpreter that imports the package and its command line
    loads neither ``dataclasses``, whose decorators generate code at
    import, nor ``datetime``, which only the timestamped header reads."""
    code = ("import sys; before = set(sys.modules); import legrack, "
            "legrack.cli; print(*sorted({'dataclasses', 'datetime'} & "
            "(set(sys.modules) - before)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(legrack.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.split() == []
