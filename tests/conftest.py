import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_module(name, directory=ROOT / "benchmark"):
    """A module of the repository loaded by path, outside the package."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The benchmark's references, which do not use su3geom: ``qr_haar_su3(n, rng)``
#: (Mezzadri's QR sampler) and ``factor(k, t)`` (scipy's matrix exponential).
references = load_module("references")


def gauss_legendre_volume(ranges, nodes=48):
    """The density integral by a full per-axis Gauss-Legendre product.

    A reference for ``haar.group_volume`` that shares no code with it: the
    nodes lie in the raw angles, with the density factors in the weights.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    factors = {1: lambda x: np.sin(2 * x), 5: lambda x: np.sin(2 * x),
               3: lambda x: np.sin(2 * x) * np.sin(x) ** 2}
    vol = 1.0
    for dim, (lo, hi) in enumerate(ranges.as_tuples()):
        x = lo + (hi - lo) * (t + 1) / 2
        vol *= float(np.sum(w * (hi - lo) / 2 * factors.get(dim, np.ones_like)(x)))
    return vol


@pytest.fixture(scope="session")
def interior_points():
    from su3geom.verify import haar_interior_points

    return haar_interior_points(100, seed=2024)
