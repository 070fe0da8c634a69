"""Every imported name is used somewhere in its module.

No linter ships with the project, so this parses the package modules,
the scripts and the tests with ``ast`` and fails on any imported name
that the module never references.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "su3geom").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))

#: Deliberate re-exports, as (file name, imported name): benchmark/tracing.py
#: resolves ``tangent_frames.partial_derivatives``.
REEXPORTS = {("tangent_frames.py", "partial_derivatives")}


def unused_imports(source):
    """Names bound by the import statements of source and never referenced."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "from a import b as c, d\nprint(os, d)\n")
    assert unused_imports(source) == ["c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.name, name) not in REEXPORTS]
    assert unused == []
