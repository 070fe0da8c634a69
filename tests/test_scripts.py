import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
