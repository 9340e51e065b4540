"""No module of the package or of its tests imports a name it never uses,
and the package holds no public code that only its own tests call.

No linter ships with the project, so the checks walk each module's syntax
tree: every name an import binds must be read somewhere in that module.
``__init__.py`` is skipped, since its imports are the package's exports,
and so is ``tests/test_acceptance.py``, the acceptance gate, which is kept
byte for byte and imports ``pytest`` without using it.
"""
import ast
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
