import math

import numpy as np
import pytest

from su3geom import euler, haar, verify
from su3geom.euler import compose
from su3geom.gellmann import SQRT3
from su3geom.haar import density, density_from_coframe, sample_angles
from su3geom.invariant_forms import (left_coframe, left_coframe_closed,
                                     right_coframe, right_coframe_closed)
from su3geom.tangent_frames import (ChartSingularityError,
                                    maurer_cartan_coefficients)
from su3geom.verify import (_STEP, _central_difference, _stencil,
                            compare_table, defining_relation_residual,
                            divergence_residual, duality_residual,
                            frame_bracket_residuals,
                            _translation_pullback_residual,
                            haar_interior_points)


def test_duality_both_chiralities(interior_points):
    for x in interior_points[:30]:
        assert duality_residual(x, "left") <= 1e-9
        assert duality_residual(x, "right") <= 1e-9


@pytest.mark.parametrize("check", [
    lambda p: compare_table(p, "left", "frame"),
    lambda p: duality_residual(p, "lft"),
    lambda p: defining_relation_residual(p, "Left"),
    lambda p: divergence_residual(p, "up"),
], ids=["compare_table", "duality", "defining_relation", "divergence"])
def test_unknown_table_or_chirality_is_rejected(interior_points, check):
    with pytest.raises(ValueError):
        check(interior_points[:4])


@pytest.mark.parametrize("residual", [
    lambda p: defining_relation_residual(p, "left"),
    lambda p: defining_relation_residual(p, "right"),
    lambda p: duality_residual(p, "left"),
    lambda p: duality_residual(p, "right"),
    lambda p: divergence_residual(p, "left"),
    lambda p: divergence_residual(p, "right"),
    frame_bracket_residuals,
    lambda p: compare_table(p, "left", "field"),
    lambda p: compare_table(p, "right", "form"),
], ids=["defining_left", "defining_right", "duality_left", "duality_right",
        "divergence_left", "divergence_right", "brackets", "compare_table_field",
        "compare_table_form"])
def test_residuals_take_one_point_or_a_batch(interior_points, residual):
    # one input contract: an (8,) point is a batch of one
    assert residual(interior_points[0]) == residual(interior_points[:1])


def test_left_coframe_row3_dalpha(interior_points):
    for x in interior_points[:10]:
        b = left_coframe(x).entries
        assert abs(b[2, 0] - 1.0) <= 1e-12


def test_left_coframe_row8_structure():
    x = np.array([0.4, 0.7, 1.1, math.pi / 3, 0.9, math.pi / 5, 0.8, 2.2])
    b = left_coframe(x).entries
    st2 = math.sin(math.pi / 3) ** 2
    expected = np.zeros(8)
    expected[4] = -(SQRT3 / 2) * st2
    expected[6] = -(SQRT3 / 2) * math.cos(2 * math.pi / 5) * st2
    expected[7] = 1.0 - 1.5 * st2
    assert np.max(np.abs(b[7] - expected)) <= 1e-12


def test_right_coframe_rows(interior_points):
    for x in interior_points[:10]:
        b = right_coframe(x).entries
        assert abs(b[2, 6] - 1.0) <= 1e-12  # omega^3_r carries dc
        # omega^8_r: dphi coefficient 1, dalpha coefficient from the
        # hypercharge projection
        assert abs(b[7, 7] - 1.0) <= 1e-12
        expected_alpha = -(SQRT3 / 2) * math.cos(2 * x[1]) * math.sin(x[3]) ** 2
        assert abs(b[7, 0] - expected_alpha) <= 1e-12


def test_coframe_entries_real(interior_points):
    for x in interior_points[:10]:
        assert np.isrealobj(left_coframe(x).entries)
        assert np.isrealobj(right_coframe(x).entries)


def test_left_closed_table_single_typo(interior_points):
    diff = compare_table(interior_points[:40], "left", "form")
    flagged = {(e.row, e.column) for e in diff.entries}
    # one stable defect: the dphi term of the third form carries a spurious
    # factor 1/2 in the transcribed source
    assert flagged == {(3, "dphi")}
    assert diff.stable
    entry = diff.entries[0]
    ratio = entry.closed_sample / entry.constructive_sample
    assert abs(ratio - 0.5) <= 1e-9


def test_right_closed_table_garbled_but_stable(interior_points):
    diff = compare_table(interior_points[:40], "right", "form")
    assert not diff.clean
    assert diff.stable
    # the transcribed right-form table is systematically garbled: these 35
    # entries are wrong at every point, and no other is (dc and dphi are
    # clean in every form)
    expected = ({(row, col) for row in range(1, 9) for col in ("dbeta", "dgamma", "dtheta")}
                | {(row, "da") for row in range(1, 8)}
                | {(row, "dalpha") for row in (1, 4, 7)} | {(1, "db")})
    assert len(expected) == 35
    assert {(e.row, e.column) for e in diff.entries} == expected
    assert all(e.mismatch_fraction == 1.0 for e in diff.entries)


def test_right_closed_good_entries_match(interior_points):
    for x in interior_points[:10]:
        closed = right_coframe_closed(x).entries
        constructive = right_coframe(x).entries
        assert abs(closed[2, 6] - constructive[2, 6]) <= 1e-12   # dc of form 3
        assert abs(closed[7, 0] - constructive[7, 0]) <= 1e-12   # dalpha of form 8
        assert abs(closed[7, 7] - constructive[7, 7]) <= 1e-12   # dphi of form 8


def test_left_closed_evaluates_omega8():
    x = np.array([0.4, 0.7, 1.1, math.pi / 3, 0.9, math.pi / 5, 0.8, 2.2])
    closed = left_coframe_closed(x).entries
    st2 = math.sin(math.pi / 3) ** 2
    assert abs(closed[7, 4] + (SQRT3 / 2) * st2) <= 1e-14
    assert abs(closed[7, 6] + (SQRT3 / 2) * math.cos(2 * math.pi / 5) * st2) <= 1e-14
    assert abs(closed[7, 7] - (1.0 - 1.5 * st2)) <= 1e-14


def test_maurer_cartan_coefficients_determinant(interior_points):
    ratios = []
    for x in interior_points[:20]:
        c = maurer_cartan_coefficients(x, "left").real
        ratios.append(abs(np.linalg.det(c)) / density(x))
    ratios = np.array(ratios)
    assert np.ptp(ratios) / ratios.mean() <= 1e-10
    c_r = maurer_cartan_coefficients(interior_points[0], "right").real
    assert abs(abs(np.linalg.det(c_r)) / density(interior_points[0])
               - ratios.mean()) <= 1e-10


def test_maurer_cartan_coefficients_near_identity():
    x = np.full(8, 1e-3)
    c = maurer_cartan_coefficients(x, "right").real
    slots = (3, 2, 3, 5, 3, 2, 3, 8)
    for k, g in enumerate(slots):
        row = np.abs(c[k])
        assert row[g - 1] > 0.99
        others = np.delete(row, g - 1)
        assert np.max(others) < 0.01


def test_coframe_singular_guard():
    with pytest.raises(ChartSingularityError):
        left_coframe(np.zeros(8))
    with pytest.raises(ChartSingularityError):
        right_coframe(np.zeros(8))


def test_density_ratio_half(interior_points):
    for x in interior_points[:20]:
        assert abs(density_from_coframe(x) / density(x) - 0.5) <= 1e-10


def test_divergence_free_fields(interior_points):
    for chirality in ("left", "right"):
        assert divergence_residual(interior_points[:20], chirality) <= 1e-8


def test_divergence_check_rejects_a_wrong_density(interior_points, monkeypatch):
    # a density off by a non-constant factor is not preserved by the fields
    monkeypatch.setattr(haar, "density",
                        lambda x: density(x) * (1 + 0.1 * np.cos(x[..., 3])))
    for chirality in ("left", "right"):
        assert divergence_residual(interior_points[:20], chirality) > 1e-8


def test_central_difference_of_a_quadratic_is_its_gradient():
    # f(x) = x . A x with A symmetric has gradient 2 A x; a central
    # difference is exact on it up to roundoff
    rng = np.random.default_rng(2024)
    A = rng.normal(size=(8, 8))
    A = A + A.T
    points = rng.normal(size=(3, 8))
    rows = _stencil(points, _STEP)
    values = np.einsum("ri,ij,rj->r", rows, A, rows).reshape(3, 17)
    grad = _central_difference(values, _STEP)
    assert np.max(np.abs(grad - 2 * points @ A)) <= 1e-8


def test_covariance_check_needs_the_adjoint_mixing(monkeypatch):
    # without R(g) the left-translation law fails; the right-translation
    # law does not read R and still holds
    monkeypatch.setattr(verify, "adjoint_matrix", lambda g: np.eye(8))
    checks = {c.name: c for c in verify.run_suites("forms", points=4)["forms"]}
    assert not checks["forms.covariance_left_translation"].passed
    assert checks["forms.invariance_right_translation"].passed


def test_translation_checks_fail_on_a_decompose_defect(monkeypatch):
    # alpha off by 1e-6 makes decompose raise on every stencil element; the
    # two translation checks report an infinite residual instead of ending
    # the run, and every other forms check still holds
    analytic = euler._analytic_decompose

    def off(U):
        x = analytic(U)
        x[0] += 1e-6
        return x

    monkeypatch.setattr(euler, "_analytic_decompose", off)
    checks = list(verify.suite_forms(20, 7))
    assert len(checks) == 11
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["forms.invariance_right_translation",
                                        "forms.covariance_left_translation"]
    assert all(c.residual == math.inf for c in failed)


def test_pullback_invariance_right_translation():
    done = 0
    tries = 0
    rng = np.random.default_rng(5150)
    while done < 4 and tries < 60:
        tries += 1
        x = haar_interior_points(1, 900 + tries, margin=0.2)[0]
        g = compose(sample_angles(1, int(rng.integers(1 << 31)))[0])
        res = _translation_pullback_residual(x, g, "right")
        if res is None:
            continue
        assert res <= 1e-6
        done += 1
    assert done == 4


def test_pullback_skips_a_stencil_across_the_box_edge():
    # alpha = 5e-7 puts alpha - h of the h = 1e-6 stencil below 0, where
    # decompose wraps alpha to near pi; one step further in, nothing wraps
    x = np.array([5e-7, 0.6, 1.1, 0.7, 0.9, 0.5, 0.3, 2.0])
    identity = np.eye(3, dtype=complex)
    for side in ("right", "left"):
        assert _translation_pullback_residual(x, identity, side) is None
    x[0] = 0.4
    for side in ("right", "left"):
        assert _translation_pullback_residual(x, identity, side) <= 1e-6


def test_pullback_covariance_left_translation():
    done = 0
    tries = 0
    rng = np.random.default_rng(6160)
    while done < 4 and tries < 60:
        tries += 1
        x = haar_interior_points(1, 700 + tries, margin=0.2)[0]
        g = compose(sample_angles(1, int(rng.integers(1 << 31)))[0])
        res = _translation_pullback_residual(x, g, "left")
        if res is None:
            continue
        assert res <= 1e-6
        done += 1
    assert done == 4
