import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quadrature_convergence_stated_box_rows():
    script = load_script("quadrature_convergence")
    rows = script.stated_box_characters(3)
    assert len(rows) == 4
    for name, value, se, target in rows:
        assert isinstance(name, str) and se is None
        assert np.isfinite(value) and np.isfinite(target)


def test_benchmark_trace_targets_exist():
    # a traced benchmark run wraps each of these names; a missing one
    # would only show up there
    tracing = load_script("tracing", ROOT / "benchmark")
    for module, function, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"su3geom.{module}"),
                                function)), (module, function)
