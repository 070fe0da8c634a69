import json

import numpy as np
import pytest

from su3geom.euler import COORD_NAMES, EulerAngles
from su3geom.haar import density, sample_angles
from su3geom.serialize import (CSV_HEADER, angles_to_json, dumps,
                               matrix_from_json, matrix_to_json,
                               sample_csv_lines)


def test_matrix_roundtrip():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(json.loads(dumps(matrix_to_json(M))))
    assert np.array_equal(back, M)


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"re": [[1, 2], [3, 4]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json([1, 2, 3])


def test_angles_roundtrip():
    x = EulerAngles(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    obj = angles_to_json(x)
    assert list(obj) == list(COORD_NAMES)
    assert all(type(v) is float for v in obj.values())
    assert json.loads(dumps(obj)) == dict(zip(COORD_NAMES, x.as_array()))


def test_json_emission_is_stable():
    payload = matrix_to_json(np.eye(3) * (1 / 3))
    text = dumps(payload)
    assert dumps(json.loads(text)) == text


def test_csv_lines():
    xs = sample_angles(3, 9)
    lines = list(sample_csv_lines(xs, density(xs)))
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 9
        row = np.array([float(p) for p in parts])
        assert np.isfinite(row).all()
    # 17 significant digits reproduce the doubles exactly
    row0 = np.array([float(p) for p in lines[1].split(",")])
    assert np.array_equal(row0[:8], xs[0])
