import math
from functools import partial, reduce

import numpy as np
import pytest

from su3geom.euler import (EulerAngles, canonicalize, compose, compose_many,
                           factor_exponential)
from su3geom.gellmann import SQRT3, gell_mann_matrix
from su3geom.haar import character, sample_angles
from su3geom.invariant_forms import (left_coframe, left_coframe_closed,
                                     right_coframe, right_coframe_closed)
from su3geom.tangent_frames import (ChartSingularityError, adjoint_matrix,
                                    check_interior, left_field_frame,
                                    left_field_frame_closed,
                                    maurer_cartan_coefficients,
                                    partial_derivatives, right_field_frame,
                                    right_field_frame_closed)
from su3geom import tangent_frames, verify
from su3geom.verify import (compare_table, defining_relation_residual,
                            frame_bracket_residuals, haar_interior_points)

GEN_SLOTS = (3, 2, 3, 5, 3, 2, 3, 8)


def fd_partials(x, h=1e-6):
    out = np.empty((8, 3, 3), dtype=complex)
    for k in range(8):
        xp, xm = np.array(x, float), np.array(x, float)
        xp[k] += h
        xm[k] -= h
        out[k] = (compose(xp) - compose(xm)) / (2 * h)
    return out


def test_partials_match_finite_differences():
    x = sample_angles(3, 8)[0]
    exact = partial_derivatives(x)
    approx = fd_partials(x)
    assert np.max(np.abs(exact - approx)) <= 1e-8


def test_partial_alpha_is_left_lambda3():
    for x in sample_angles(5, 9):
        D = compose(x)
        dD = partial_derivatives(x)
        assert np.max(np.abs(dD[0] - 1j * gell_mann_matrix(3) @ D)) <= 1e-13


def test_partial_phi_is_right_lambda8():
    for x in sample_angles(5, 10):
        D = compose(x)
        dD = partial_derivatives(x)
        assert np.max(np.abs(dD[7] - 1j * D @ gell_mann_matrix(8))) <= 1e-13


def test_partials_at_origin_are_generators():
    dD = partial_derivatives(np.zeros(8))
    for k, g in enumerate(GEN_SLOTS):
        assert np.max(np.abs(dD[k] - 1j * gell_mann_matrix(g))) <= 1e-15


def test_partials_antihermitian_translate():
    x = sample_angles(1, 11)[0]
    D = compose(x)
    for A in partial_derivatives(x) @ D.conj().T:
        assert np.max(np.abs(A + A.conj().T)) <= 1e-13


def test_maurer_cartan_alpha_row():
    for x in sample_angles(5, 12):
        c = maurer_cartan_coefficients(x, "left").real
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.max(np.abs(c[0] - expected)) <= 1e-13


def test_maurer_cartan_beta_row():
    for x in sample_angles(5, 13):
        c = maurer_cartan_coefficients(x, "left").real
        expected = np.zeros(8)
        expected[0] = math.sin(2 * x[0])
        expected[1] = math.cos(2 * x[0])
        assert np.max(np.abs(c[1] - expected)) <= 1e-13


def test_maurer_cartan_right_rows():
    for x in sample_angles(5, 14):
        c = maurer_cartan_coefficients(x, "right").real
        e3 = np.zeros(8)
        e3[2] = 1.0
        e8 = np.zeros(8)
        e8[7] = 1.0
        assert np.max(np.abs(c[6] - e3)) <= 1e-13  # c-row: diagonal generator
        assert np.max(np.abs(c[7] - e8)) <= 1e-13  # phi-row: hypercharge


def maurer_cartan_reference(x, chirality):
    """c_kj = tr(A_k lam_j) / 2 from the factor matrices, one trace at a time.

    A_k = P_k lam_{g_k} P_k^dag (left) or S_k^dag lam_{g_k} S_k (right),
    with P_k the product of the factors before k and S_k of those from k on.
    """
    factors = [factor_exponential(g, t) for g, t in zip(GEN_SLOTS, x)]
    c = np.empty((8, 8), dtype=complex)
    for k, g in enumerate(GEN_SLOTS):
        if chirality == "left":
            P = reduce(np.matmul, factors[:k], np.eye(3))
            A = P @ gell_mann_matrix(g) @ P.conj().T
        else:
            S = reduce(np.matmul, factors[k:], np.eye(3))
            A = S.conj().T @ gell_mann_matrix(g) @ S
        for j in range(8):
            c[k, j] = np.trace(A @ gell_mann_matrix(j + 1)) / 2
    return c


@pytest.mark.parametrize("chirality", ["left", "right"])
def test_maurer_cartan_coefficients_match_traces(chirality):
    xs = haar_interior_points(50, seed=91)
    want = np.array([maurer_cartan_reference(x, chirality) for x in xs])
    assert np.max(np.abs(want.imag)) <= 1e-14
    one = maurer_cartan_coefficients(xs[0], chirality)
    assert one.real.shape == (8, 8)
    assert np.max(np.abs(one.real - want[0].real)) <= 1e-14
    assert np.max(np.abs(one.imag)) <= 1e-12
    batch = maurer_cartan_coefficients(xs, chirality)
    assert batch.real.shape == (50, 8, 8)
    assert np.max(np.abs(batch.real - want.real)) <= 1e-14
    assert np.max(np.abs(batch.imag)) <= 1e-12


def test_maurer_cartan_real(interior_points):
    for x in interior_points[:20]:
        assert np.max(np.abs(maurer_cartan_coefficients(x, "left").imag)) <= 1e-12
        assert np.max(np.abs(maurer_cartan_coefficients(x, "right").imag)) <= 1e-12


def test_left_frame_fixed_rows(interior_points):
    for x in interior_points[:20]:
        a = left_field_frame(x).entries
        row3 = np.zeros(8, dtype=complex)
        row3[0] = 1j
        assert np.max(np.abs(a[2] - row3)) <= 1e-12
        row8 = np.zeros(8, dtype=complex)
        row8[2] = 1j * SQRT3
        row8[4] = -1j * SQRT3
        row8[7] = 1j
        assert np.max(np.abs(a[7] - row8)) <= 1e-12


def test_right_frame_fixed_rows(interior_points):
    for x in interior_points[:20]:
        a = right_field_frame(x).entries
        row3 = np.zeros(8, dtype=complex)
        row3[6] = 1j
        assert np.max(np.abs(a[2] - row3)) <= 1e-12
        row8 = np.zeros(8, dtype=complex)
        row8[7] = 1j
        assert np.max(np.abs(a[7] - row8)) <= 1e-12


def test_defining_relations(interior_points):
    for x in interior_points[:30]:
        assert defining_relation_residual(x, "left") <= 1e-9
        assert defining_relation_residual(x, "right") <= 1e-9


def test_left_closed_row1_printed_expression():
    x = np.array([math.pi / 5, math.pi / 5, 0.9, 0.8, 1.0, 0.7, 0.3, 1.1])
    a = left_field_frame_closed(x).entries
    al, be = x[0], x[1]
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1j * math.cos(2 * al) * math.cos(2 * be) / math.sin(2 * be)
    expected[1] = 1j * math.sin(2 * al)
    expected[2] = -1j * math.cos(2 * al) / math.sin(2 * be)
    assert np.max(np.abs(a[0] - expected)) <= 1e-14
    constructive = left_field_frame(x).entries
    assert np.max(np.abs(a[0] - constructive[0])) <= 1e-12


def test_left_closed_table_matches_constructive(interior_points):
    diff = compare_table(interior_points[:40], "left", "field")
    assert diff.clean, diff.describe()


def test_right_closed_table_known_typos(interior_points):
    diff = compare_table(interior_points[:40], "right", "field")
    flagged = {(e.row, e.column) for e in diff.entries}
    # stable transcription defects: sign-flipped hypercharge tails on rows
    # 4..7 and the d/da term of row 6 printed without its i
    assert flagged == {(4, "phi"), (5, "phi"), (6, "phi"), (7, "phi"),
                       (6, "a")}
    assert diff.stable


def test_right_closed_rows_1238_match(interior_points):
    for x in interior_points[:20]:
        closed = right_field_frame_closed(x).entries
        constructive = right_field_frame(x).entries
        for row in (0, 1, 2, 7):
            assert np.max(np.abs(closed[row] - constructive[row])) <= 1e-12


def test_singular_chart_error_names_factor():
    with pytest.raises(ChartSingularityError, match=r"sin\(2\*beta\)"):
        left_field_frame(np.zeros(8))
    x = np.array([0.3, 0.4, 0.2, math.pi / 2, 0.1, 0.5, 0.2, 0.3])
    with pytest.raises(ChartSingularityError, match=r"sin\(2\*theta\)"):
        right_field_frame(x)
    with pytest.raises(ChartSingularityError):
        check_interior(np.array([0.3, 0.4, 0.2, 0.6, 0.1, 0.0, 0.2, 0.3]))


def test_ill_conditioned_coefficients_raise_past_check_interior():
    # sin 2beta = sin theta = 1e-6 clear SINGULAR_THRESHOLD, but together
    # they make cond(c) about 2.6e12, above CONDITION_LIMIT
    x = np.array([0.3, math.asin(1e-6) / 2, 0.2, math.asin(1e-6),
                  0.1, 0.5, 0.2, 0.3])
    check_interior(x)
    for frame in (left_field_frame, right_field_frame):
        with pytest.raises(ChartSingularityError) as err:
            frame(x)
        assert err.value.factor == "cond(maurer_cartan_coefficients)"


def test_check_interior_names_first_singular_point():
    xs = np.tile([0.3, 0.4, 0.2, 0.6, 0.1, 0.5, 0.2, 0.3], (6, 1))
    xs[3, 5] = 0.0   # b = 0 at row 3
    xs[4, 1] = 0.0   # beta = 0 at a later row, first in factor order
    with pytest.raises(ChartSingularityError, match=r"sin\(2\*b\)"):
        check_interior(xs)
    with pytest.raises(ChartSingularityError, match=r"sin\(2\*b\)"):
        left_field_frame(xs)


BATCHED = {
    "partial_derivatives": partial_derivatives,
    "maurer_cartan_left": lambda x: maurer_cartan_coefficients(x, "left").real,
    "maurer_cartan_right": lambda x: maurer_cartan_coefficients(x, "right").real,
    "left_field_frame": lambda x: left_field_frame(x).entries,
    "right_field_frame": lambda x: right_field_frame(x).entries,
    "left_coframe": lambda x: left_coframe(x).entries,
    "right_coframe": lambda x: right_coframe(x).entries,
}


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batch_equals_points_one_at_a_time(name):
    fn = BATCHED[name]
    xs = haar_interior_points(200, seed=77)
    batch = fn(xs)
    assert batch.shape[0] == len(xs)
    assert np.all(batch == np.array([fn(x) for x in xs]))


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_objects_reject_other_shapes(name):
    with pytest.raises(ValueError):
        BATCHED[name](np.zeros((3, 7)))
    with pytest.raises(ValueError):
        BATCHED[name](np.zeros((2, 3, 8)))


#: Group-element functions taking (3, 3) or (n, 3, 3), by name.
ELEMENTWISE = {
    "adjoint_matrix": adjoint_matrix,
    "character_fundamental": partial(character, rep="fundamental"),
    "character_adjoint": partial(character, rep="adjoint"),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_element_batch_equals_elements_one_at_a_time(name):
    fn = ELEMENTWISE[name]
    us = compose_many(haar_interior_points(200, seed=77))
    batch = fn(us)
    assert batch.shape[0] == len(us)
    assert np.all(batch == np.array([fn(u) for u in us]))


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
@pytest.mark.parametrize("shape", [(3,), (9,), (3, 4), (2, 3, 4), (2, 2, 3, 3)])
def test_elementwise_functions_reject_other_shapes(name, shape):
    with pytest.raises(ValueError, match="shape"):
        ELEMENTWISE[name](np.zeros(shape, dtype=complex))


def test_adjoint_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        adjoint_matrix(np.full((3, 3), np.nan))
    us = compose_many(sample_angles(4, 9))
    us[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        adjoint_matrix(us)


@pytest.mark.parametrize("fn", [compose, canonicalize, left_field_frame_closed,
                                right_field_frame_closed, left_coframe_closed,
                                right_coframe_closed])
def test_single_point_functions_reject_batches_and_nonfinite(fn):
    x = haar_interior_points(2, seed=5)
    with pytest.raises(ValueError, match="expected 8 angles"):
        fn(x)
    with pytest.raises(ValueError, match=r"got shape \(7,\)"):
        fn(x[0, :7])
    for t in (np.nan, np.inf):
        bad = x[0].copy()
        bad[3] = t
        with pytest.raises(ValueError, match="finite"):
            fn(bad)
        with pytest.raises(ValueError, match="finite"):
            fn(EulerAngles(*bad))


def test_adjoint_identity():
    assert np.allclose(adjoint_matrix(np.eye(3, dtype=complex)), np.eye(8),
                       atol=1e-14)


def test_adjoint_orthogonal_and_homomorphism():
    us = compose_many(sample_angles(12, 15))
    for i in range(0, 12, 2):
        U, V = us[i], us[i + 1]
        R_u, R_v = adjoint_matrix(U), adjoint_matrix(V)
        assert np.linalg.norm(R_u @ R_u.T - np.eye(8)) <= 1e-10
        assert abs(np.linalg.det(R_u) - 1.0) <= 1e-10
        assert np.linalg.norm(adjoint_matrix(U @ V) - R_u @ R_v) <= 1e-10


def test_adjoint_orthogonal_check_fails_on_a_reflection(monkeypatch):
    # negating lam_1's column negates row 0 of R: still orthogonal, so
    # adjoint_matrix does not raise, but det R = -1
    flipped = tangent_frames._LAMBDA_VEC_H.copy()
    flipped[:, 0] *= -1
    monkeypatch.setattr(tangent_frames, "_LAMBDA_VEC_H", flipped)
    checks = {c.name: c for c in verify.run_suites("frames", points=4)["frames"]}
    check = checks["frames.adjoint_orthogonal"]
    assert not check.passed
    assert abs(check.residual - 2.0) <= 1e-10


@pytest.mark.parametrize("scale,residual", [
    # R times s: det R - 1 = s^8 - 1 exceeds ||R R^T - I||_F = (s^2 - 1) sqrt(8)
    (1.001, 1.001 ** 8 - 1.0),
    # rows 0 and 1 of R scaled by 1.001 and 1 / 1.001 keep det R = 1, so
    # only the orthogonality half sees ||diag(s^2) - I||_F
    (np.r_[1.001, 1 / 1.001, np.ones(6)], math.hypot(1.001 ** 2 - 1, 1.001 ** -2 - 1)),
], ids=["uniform", "det_preserving"])
def test_adjoint_orthogonal_check_fails_on_a_scaled_basis(monkeypatch, scale, residual):
    # a scaled _LAMBDA_VEC_H scales the rows of R; adjoint_matrix does not
    # raise, so the suite completes and the check reports the defect
    monkeypatch.setattr(tangent_frames, "_LAMBDA_VEC_H",
                        tangent_frames._LAMBDA_VEC_H * scale)
    checks = {c.name: c for c in verify.run_suites("frames", points=4)["frames"]}
    check = checks["frames.adjoint_orthogonal"]
    assert not check.passed
    assert check.residual == pytest.approx(residual, rel=1e-6)


def test_adjoint_links_left_right_frames(interior_points):
    for x in interior_points[:20]:
        R = adjoint_matrix(compose(x))
        aL = left_field_frame(x).entries
        aR = right_field_frame(x).entries
        assert np.max(np.abs(aR - R.T @ aL)) <= 1e-9


def test_adjoint_of_hypercharge_phase_fixes_block():
    R = adjoint_matrix(factor_exponential(8, 1.234))
    for idx in (0, 1, 2, 7):  # lam1, lam2, lam3, lam8 commute with lam8
        e = np.zeros(8)
        e[idx] = 1.0
        assert np.max(np.abs(R[:, idx] - e)) <= 1e-12
        assert np.max(np.abs(R[idx, :] - e)) <= 1e-12


def test_frame_brackets():
    pts = haar_interior_points(2, 303, margin=0.2)
    res_l, res_r, res_c = frame_bracket_residuals(pts)
    assert res_l <= 1e-6
    assert res_r <= 1e-6
    assert res_c <= 1e-6
