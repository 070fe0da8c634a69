"""Wire formats shared by the CLI: JSON matrices/angles and the sample CSV."""

from __future__ import annotations

import json

import numpy as np

from .euler import COORD_NAMES, EulerAngles


def matrix_to_json(M):
    """Complex matrix as {"re": [[...]], "im": [[...]]}, row-major floats."""
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj):
    """The 3x3 complex matrix written by ``matrix_to_json``."""
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ValueError('expected an object with "re" and "im" matrices')
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (3, 3) or im.shape != (3, 3):
        raise ValueError(f"expected (3, 3) matrices, got {re.shape} / {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im


def angles_to_json(x):
    if isinstance(x, EulerAngles):
        x = x.as_array()
    return {name: float(v) for name, v in zip(COORD_NAMES, x)}


def dumps(obj):
    """Canonical JSON emission: sorted keys, full-precision floats."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


CSV_HEADER = "alpha,beta,gamma,theta,a,b,c,phi,weight"


def sample_csv_lines(angles_rows, weights):
    """CSV rows for sampled angles, 17 significant digits."""
    yield CSV_HEADER
    for row, w in zip(angles_rows, weights):
        yield ",".join(f"{v:.17g}" for v in [*row, w])
