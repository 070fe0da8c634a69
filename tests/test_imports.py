"""Every imported name is used somewhere in its module, every private
name of the package is used somewhere in the package, every derived
seed goes through ``haar.sub_seed``, all randomness comes from
``haar._sample_rows``, only ``cli.main`` maps errors to exit codes, and
every defaulted parameter of a public function has a caller that passes
it.

No linter ships with the project, so this parses the package modules
and the tests with ``ast`` and fails on any imported name that the
module never references, on any module-level private name that no
package module loads, on any ``seed + k`` written by hand in the
package (such a sum can leave [0, 2^64)), on any use of
``numpy.random`` in the package outside ``haar._sample_rows``, the one
Philox stream that the sampler draws from, and on any load of
``EXIT_USAGE``, ``EXIT_NUMERIC`` or ``EXIT_BROKEN_PIPE`` or use of
``sys.stderr`` in ``cli.py`` outside ``main``, and on any defaulted
parameter of a public package function that no call in the package or
in ``benchmark/`` passes.  It also pins which package modules each
module imports (``LAYERS``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "su3geom").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


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
    assert unused_imports(path.read_text()) == []


SEED_FILES = sorted((ROOT / "src" / "su3geom").glob("*.py"))


def unreferenced_private_names(sources):
    """Module-level private names (``_name`` functions, classes and
    assignments, not dunders) that none of the sources loads, by name,
    attribute or import."""
    defined, loaded = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                loaded.add(n.attr)
            elif isinstance(n, ast.alias):
                loaded.add(n.name)
    return sorted(n for n in defined - loaded
                  if n.startswith("_") and not (n.startswith("__") and n.endswith("__")))


def test_unreferenced_private_names_are_found():
    sources = ("_A = 1\n_B, _C = 2, 3\n_D: int = 4\n__all__ = []\n"
               "def _f():\n    return _A\n\nclass _K:\n    _E = 5\n"
               "def _g():\n    _F = 6\n    return _F\nPUBLIC = 7\n",
               "from m import _B\nprint(m._C, _f)\n")
    assert unreferenced_private_names(sources) == ["_D", "_K", "_g"]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(p.read_text() for p in SEED_FILES) == []


def _is_seed(node):
    return (isinstance(node, ast.Name) and node.id == "seed"
            or isinstance(node, ast.Attribute) and node.attr == "seed")


def nodes_outside(source, function):
    """The ast nodes of source that are not inside the named function."""
    tree = ast.parse(source)
    exempt = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == function
              for n in ast.walk(f)}
    return [n for n in ast.walk(tree) if id(n) not in exempt]


def seed_additions(source):
    """Lines of source that add to a name or attribute called seed, outside
    the body of ``sub_seed``."""
    found = []
    for n in nodes_outside(source, "sub_seed"):
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


def random_uses(source):
    """Lines of source that reach ``numpy.random``, by attribute or import,
    outside the body of ``_sample_rows``."""
    found = []
    for n in nodes_outside(source, "_sample_rows"):
        if (isinstance(n, ast.Attribute) and n.attr == "random"
                and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")
                or isinstance(n, ast.Import)
                and any(a.name.startswith("numpy.random") for a in n.names)
                or isinstance(n, ast.ImportFrom)
                and (n.module or "").startswith("numpy.random")
                or isinstance(n, ast.ImportFrom) and n.module == "numpy"
                and any(a.name == "random" for a in n.names)):
            found.append(n.lineno)
    return sorted(found)


def test_random_uses_are_found():
    source = ("def _sample_rows(seed):\n    return np.random.Philox(seed)\n"
              "rng = np.random.default_rng(0)\nimport numpy.random\n"
              "from numpy.random import Generator\nfrom numpy import random\n"
              "x = numpy.random.random()\ny = rng.random()\n")
    assert random_uses(source) == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("path", SEED_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_randomness_only_in_sample_rows(path):
    assert random_uses(path.read_text()) == []


def exit_policy_uses(source):
    """Lines of source that load ``EXIT_USAGE``, ``EXIT_NUMERIC`` or
    ``EXIT_BROKEN_PIPE`` or name ``sys.stderr``, outside the body of ``main``."""
    found = []
    for n in nodes_outside(source, "main"):
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                and n.id in ("EXIT_USAGE", "EXIT_NUMERIC", "EXIT_BROKEN_PIPE")
                or isinstance(n, ast.Attribute) and n.attr == "stderr"
                and isinstance(n.value, ast.Name) and n.value.id == "sys"):
            found.append(n.lineno)
    return sorted(found)


def test_exit_policy_uses_are_found():
    source = ("EXIT_USAGE = 2\nEXIT_NUMERIC = 3\n"
              "def main():\n    print(file=sys.stderr)\n    return EXIT_USAGE\n"
              "def cmd(args):\n    return EXIT_NUMERIC\n"
              "def cmd2(args):\n    sys.stderr.write('x')\n    return EXIT_OK\n"
              "codes = (EXIT_USAGE, sys.stdout)\n"
              "def cmd3(args):\n    return EXIT_BROKEN_PIPE\n")
    assert exit_policy_uses(source) == [7, 9, 11, 13]


def test_only_main_maps_errors_to_exit_codes():
    assert exit_policy_uses((ROOT / "src" / "su3geom" / "cli.py").read_text()) == []


def _called_name(func):
    """The name a call's function expression ends in, or None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def defaults_never_passed(defining, calling, exempt=()):
    """"function.parameter" for every defaulted parameter of a public
    module-level function of the ``defining`` sources that no call in the
    ``calling`` sources passes, by position or keyword.  Functions match by
    name; ``ops.call(fn, ...)`` counts as a call of ``fn``, and a ``*`` or
    ``**`` argument passes every position or keyword from it on."""
    defaults = {}
    for source in defining:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                taken = defaults.setdefault(node.name, {})
                for index in range(len(positional) - len(a.defaults), len(positional)):
                    taken[positional[index]] = index
                taken.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)
    passed = set()
    for source in calling:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name, args = _called_name(call.func), call.args
            if name == "call" and args and _called_name(args[0]) is not None:
                name, args = _called_name(args[0]), args[1:]
            if name not in defaults:
                continue
            starred = [i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)]
            reach = min(starred) if starred else len(args)
            keywords = {k.arg for k in call.keywords}
            for param, index in defaults[name].items():
                if (None in keywords or param in keywords
                        or index is not None and (index < reach or starred)):
                    passed.add((name, param))
    return sorted(f"{fn}.{param}" for fn, params in defaults.items() for param in params
                  if (fn, param) not in passed and f"{fn}.{param}" not in exempt)


def test_never_passed_defaults_are_found():
    defining = ("def f(x, y=1, *, z=2, w=3):\n    pass\n"
                "def g(a=0, b=1):\n    pass\n"
                "def h(c=0):\n    pass\n"
                "def _private(d=0):\n    pass\n"
                "class K:\n    def method(self, e=0):\n        pass\n",)
    calling = ("f(0, w=4)\nm.g(*rest)\nops.call(h, 1)\nf(0, **options)\n",
               "f(1)\n")
    assert defaults_never_passed(defining, calling) == []
    calling = ("f(0, w=4)\nf(1)\ng(a=1)\nops.call(h)\nh\n",)
    assert defaults_never_passed(defining, calling) == ["f.y", "f.z", "g.b", "h.c"]
    assert defaults_never_passed(defining, calling, exempt=("f.z",)) == [
        "f.y", "g.b", "h.c"]


#: Defaulted parameters that only the tests pass.  ``cli.main(argv)`` is
#: the tests' in-process entry point; the console script passes nothing.
ONLY_TESTS_PASS = ("main.argv",)


def test_every_default_has_a_caller():
    # a parameter that no caller passes is a branch that only the tests reach
    defining = [p.read_text() for p in SEED_FILES]
    calling = defining + [p.read_text() for p in sorted((ROOT / "benchmark").glob("*.py"))]
    assert defaults_never_passed(defining, calling, exempt=ONLY_TESTS_PASS) == []


PACKAGE = ROOT / "src" / "su3geom"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}

#: The package modules each module imports: the layering of the package.
#: The measure layer ``haar`` stands on the group layer alone.
LAYERS = {
    "__init__": {"euler", "gellmann", "haar", "invariant_forms", "tangent_frames"},
    "cli": {"__init__", "euler", "haar", "serialize", "tangent_frames", "verify"},
    "euler": {"gellmann"},
    "gellmann": set(),
    "haar": {"euler"},
    "invariant_forms": {"euler", "gellmann", "tangent_frames"},
    "serialize": {"euler"},
    "tangent_frames": {"euler", "gellmann"},
    "verify": {"euler", "gellmann", "haar", "invariant_forms", "tangent_frames"},
}


def package_imports(source):
    """The package modules that source imports by ``from`` statements,
    relative or from ``su3geom``; a name imported from the package itself
    counts as its module, or as ``__init__`` if it is not one."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module == "su3geom"
                                              or (n.module or "").startswith("su3geom.")):
            module = (n.module or "").removeprefix("su3geom").lstrip(".")
            if module:
                found.add(module)
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in n.names)
    return found


def test_package_imports_are_found():
    source = ("from . import __version__, haar\nfrom .euler import compose\n"
              "from su3geom.gellmann import LAMBDA\nfrom su3geom import verify\n"
              "import numpy\nfrom numpy import linalg\n"
              "def f():\n    from .tangent_frames import partial_derivatives\n")
    assert package_imports(source) == {"__init__", "haar", "euler", "gellmann",
                                       "verify", "tangent_frames"}


def test_package_layering():
    assert {p.stem: package_imports(p.read_text())
            for p in PACKAGE.glob("*.py")} == LAYERS
