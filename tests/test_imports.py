"""Every imported name is used somewhere in its module, and every derived
seed goes through ``haar.sub_seed``.

No linter ships with the project, so this parses the package modules,
the scripts and the tests with ``ast`` and fails on any imported name
that the module never references, and on any ``seed + k`` written by hand
in the package or the scripts: such a sum can leave [0, 2^64).
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


SEED_FILES = sorted(list((ROOT / "src" / "su3geom").glob("*.py"))
                    + list((ROOT / "scripts").glob("*.py")))


def _is_seed(node):
    return (isinstance(node, ast.Name) and node.id == "seed"
            or isinstance(node, ast.Attribute) and node.attr == "seed")


def seed_additions(source):
    """Lines of source that add to a name or attribute called seed, outside
    the body of ``sub_seed``."""
    tree = ast.parse(source)
    exempt = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "sub_seed"
              for n in ast.walk(f)}
    found = []
    for n in ast.walk(tree):
        if id(n) in exempt:
            continue
        if (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
                and (_is_seed(n.left) or _is_seed(n.right))
                or isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
                and _is_seed(n.target)):
            found.append(n.lineno)
    return sorted(found)


def test_seed_additions_are_found():
    source = ("def sub_seed(seed, k):\n    return seed + k\n"
              "a = seed + 100 + k\nb = 2 + args.seed\nseed += 1\n"
              "c = sub_seed(seed, 3) + seed_count\n")
    assert seed_additions(source) == [3, 4, 5]


@pytest.mark.parametrize("path", SEED_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_derived_seeds_go_through_sub_seed(path):
    assert seed_additions(path.read_text()) == []
