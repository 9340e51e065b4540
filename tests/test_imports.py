"""No module of the package or of its tests imports a name it never uses.

No linter ships with the project, so the check walks each module's syntax
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
