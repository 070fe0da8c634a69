import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3geom.euler import (PHI_PERIOD, canonicalize, compose, compose_many,
                           decompose, factor_exponential, unitarity_defect)
from su3geom.gellmann import SQRT3, gell_mann_matrix
from su3geom.haar import sample_angles

from conftest import expm_series, qr_haar_su3

angles8 = st.lists(st.floats(-8.0, 8.0), min_size=8, max_size=8).map(np.array)


def test_factor_identity_at_zero():
    for g in (2, 3, 5, 8):
        assert np.allclose(factor_exponential(g, 0.0), np.eye(3), atol=0)


def test_factor_lambda5_quarter_turn():
    expected = np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=complex)
    assert np.allclose(factor_exponential(5, math.pi / 2), expected, atol=1e-15)


def test_factor_lambda8_sqrt3_pi():
    got = factor_exponential(8, SQRT3 * math.pi)
    assert np.allclose(got, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)
    # phi's full period is twice that
    assert PHI_PERIOD == pytest.approx(2 * SQRT3 * math.pi)


@given(st.sampled_from([2, 3, 5, 8]), st.floats(-7.0, 7.0))
def test_factor_matches_series(g, t):
    got = factor_exponential(g, t)
    want = expm_series(1j * gell_mann_matrix(g) * t)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_factor_bad_generator():
    for g in (1, 4, 6, 7, 0):
        with pytest.raises(ValueError):
            factor_exponential(g, 0.3)


def test_factor_nonfinite():
    with pytest.raises(ValueError):
        factor_exponential(3, float("nan"))


def test_compose_zeros_is_identity():
    assert np.allclose(compose(np.zeros(8)), np.eye(3), atol=0)


def test_compose_su2_block():
    x = np.zeros(8)
    x[:3] = (0.7, 0.4, 1.9)
    U = compose(x)
    # [[x, y], [-conj(y), conj(x)]] with x = cos(beta) e^{i(alpha+gamma)},
    # y = sin(beta) e^{i(alpha-gamma)}
    bx, by = math.cos(0.4) * np.exp(2.6j), math.sin(0.4) * np.exp(-1.2j)
    V = np.array([[bx, by, 0], [-np.conj(by), np.conj(bx), 0], [0, 0, 1]])
    assert np.allclose(U, V, atol=1e-15)
    assert abs(U[2, 2] - 1.0) <= 1e-15
    assert np.max(np.abs([U[0, 2], U[1, 2], U[2, 0], U[2, 1]])) <= 1e-15


@given(angles8)
@settings(max_examples=60)
def test_compose_special_unitary(x):
    du, dd = unitarity_defect(compose(x))
    assert du <= 1e-12
    assert dd <= 1e-12


def test_compose_special_unitary_bulk():
    rng = np.random.default_rng(2718)
    xs = rng.uniform(-8, 8, size=(10_000, 8))
    us = compose_many(xs)
    eye = np.eye(3)
    defects = np.linalg.norm(
        np.einsum("nba,nbc->nac", us.conj(), us) - eye, axis=(1, 2))
    assert defects.max() <= 1e-12
    assert np.max(np.abs(np.linalg.det(us) - 1.0)) <= 1e-12


def test_compose_many_matches_scalar():
    xs = sample_angles(40, 5)
    us = compose_many(xs)
    for row, u in zip(xs, us):
        assert np.max(np.abs(u - compose(row))) <= 1e-14

    # the closed form against the ordered product off the box, one factor
    # at a time, at the chart's special angles and at phi lattice points
    base = np.array([0.3, 0.7, 1.9, 0.4, 2.6, 1.1, 0.8, 4.2])
    edges = []
    for slot, t in itertools.product((1, 3, 5), (0.0, math.pi / 2)):
        row = base.copy()
        row[slot] = t
        edges.append(row)
    for k in range(-2, 5):
        row = base.copy()
        row[7] = k * SQRT3 * math.pi
        edges.append(row)
    xs = np.concatenate([
        np.random.default_rng(8).uniform(-8.0, 8.0, (1000, 8)),
        np.diag([0.9, -1.3, 2.2, 0.6, -2.7, 1.4, 3.5, 5.1]),
        edges,
    ])
    us = compose_many(xs)
    for row, u in zip(xs, us):
        assert np.max(np.abs(u - compose(row))) <= 1e-13


@pytest.mark.parametrize("slot", range(8))
def test_single_angle_homomorphism(slot):
    t, s = 0.61, -1.13
    x1, x2, x12 = np.zeros(8), np.zeros(8), np.zeros(8)
    x1[slot], x2[slot], x12[slot] = t, s, t + s
    assert np.max(np.abs(compose(x1) @ compose(x2) - compose(x12))) <= 1e-12


def test_su2_subelement_quarter_turn():
    # the SU(2) block element is compose with the last five angles zero
    got = compose([0.0, math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
    assert np.allclose(got, expected, atol=1e-15)


@given(st.floats(-6, 6), st.floats(-6, 6), st.floats(-6, 6))
def test_su2_subelement_block_structure(alpha, beta, gamma):
    U = compose([alpha, beta, gamma, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert abs(abs(U[2, 2]) - 1.0) <= 1e-12
    assert np.max(np.abs([U[0, 2], U[1, 2], U[2, 0], U[2, 1]])) == 0.0
    assert unitarity_defect(U)[0] <= 1e-12


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_identity():
    rep = decompose(np.eye(3, dtype=complex), full_output=True)
    assert np.allclose(rep.angles.as_array(), np.zeros(8), atol=1e-12)
    assert rep.residual <= 1e-12
    assert not rep.gamma_extended and not rep.phi_extended


def test_decompose_single_theta_factor():
    rep = decompose(factor_exponential(5, 0.7), full_output=True)
    x = rep.angles.as_array()
    assert abs(x[3] - 0.7) <= 1e-12
    mask = np.ones(8, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(x[mask])) <= 1e-12


def test_decompose_roundtrip_haar():
    us = qr_haar_su3(300, 99)
    worst = 0.0
    n_gamma_ext = 0
    for u in us:
        rep = decompose(u, full_output=True)
        worst = max(worst, rep.residual)
        n_gamma_ext += rep.gamma_extended
        assert rep.angles.is_canonical(tol=1e-12)
    assert worst <= 1e-9
    # about half of the group lives in the gamma >= pi sheet
    assert 0.35 < n_gamma_ext / len(us) < 0.65


def test_decompose_recovers_sampler_angles():
    xs = sample_angles(200, 13)
    interior = (np.abs(np.sin(2 * xs[:, 1])) > 1e-3) \
        & (np.abs(np.sin(2 * xs[:, 5])) > 1e-3) \
        & (np.abs(np.sin(2 * xs[:, 3])) > 1e-3)
    for row in xs[interior]:
        got = decompose(compose(row)).as_array()
        assert np.max(np.abs(got - row)) <= 1e-8


def boundary_cases():
    base = np.array([0.9, 0.6, 1.3, 0.7, 1.1, 0.8, 0.5, 2.0])
    out = []
    for idx, vals in ((3, (0.0, math.pi / 2)), (1, (0.0, math.pi / 2)),
                      (5, (0.0, math.pi / 2))):
        for v in vals:
            x = base.copy()
            x[idx] = v
            out.append(x)
    # combined degeneracies
    for pair in (((3, 0.0), (1, 0.0)), ((3, math.pi / 2), (5, math.pi / 2)),
                 ((1, math.pi / 2), (5, 0.0))):
        x = base.copy()
        for idx, v in pair:
            x[idx] = v
        out.append(x)
    return out


@pytest.mark.parametrize("x", boundary_cases())
def test_decompose_boundary_elements(x):
    U = compose(x)
    rep = decompose(U, full_output=True)
    assert rep.residual <= 1e-9
    assert rep.angles.is_canonical(tol=1e-12)


def signed_permutations():
    """All 24 signed permutation matrices with determinant +1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            P = np.zeros((3, 3), dtype=complex)
            P[range(3), perm] = signs
            if np.linalg.det(P).real > 0:
                out.append(P)
    return out


@pytest.mark.parametrize("P", signed_permutations(),
                         ids=lambda P: ",".join(str(int(v)) for v in P.real.ravel()))
def test_decompose_signed_permutations_canonical(P):
    rep = decompose(P, full_output=True)
    assert rep.angles.is_canonical(tol=0)
    assert rep.residual <= 1e-9


def test_decompose_real_rotations():
    # real input puts every phase on the +-pi branch cut or at +-1e-16
    rng = np.random.default_rng(2007)
    for _ in range(500):
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q * np.sign(np.diag(R))
        Q = Q * np.sign(np.linalg.det(Q))
        rep = decompose(Q.astype(complex), full_output=True)
        assert rep.angles.is_canonical(tol=0)
        assert rep.residual <= 1e-9


@pytest.mark.parametrize("vals", [
    [0.0, 0.0, 0.0, -0.0625, 0.0, 6.4375, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.21783268208617113, 0.0, -2.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 8.0, 0.0, -0.0625, 0.0, -math.pi],
])
def test_canonicalize_branch_cut_examples(vals):
    x = np.array(vals)
    y = canonicalize(x)
    assert y.is_canonical(tol=0)
    assert np.linalg.norm(compose(y.as_array()) - compose(x)) <= 1e-9


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        decompose(np.eye(3) * 1.01)
    bad_det = np.diag([1.0, 1.0, np.exp(0.5j)])
    with pytest.raises(ValueError, match="det"):
        decompose(bad_det)


def test_decompose_rejects_nonfinite_and_stacks():
    with pytest.raises(ValueError, match="finite"):
        decompose(np.full((3, 3), np.nan))
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        decompose(bad)
    with pytest.raises(ValueError, match="shape"):
        decompose(compose_many(sample_angles(2, 5)))


def test_decompose_near_gimbal_lock():
    # beta, b or theta moved to within 1e-6 .. 1e-17 of 0 or pi/2, on
    # either side: the band where the closed-form extraction loses most
    rng = np.random.default_rng(31)
    xs = sample_angles(3000, 31)
    rows = np.arange(len(xs))
    slots = rng.choice([1, 3, 5], size=len(xs))
    edges = rng.choice([0.0, math.pi / 2], size=len(xs))
    signs = rng.choice([-1.0, 1.0], size=len(xs))
    xs[rows, slots] = edges + signs * 10.0 ** -rng.uniform(6, 17, len(xs))
    worst = 0.0
    for U in compose_many(xs):
        rep = decompose(U, full_output=True)
        assert rep.residual <= 1e-9
        assert rep.angles.is_canonical(tol=1e-12)
        worst = max(worst, rep.residual)
    assert worst <= 1e-11


def test_decompose_flags_extended_phi():
    x = np.zeros(8)
    x[7] = 2 * math.pi + 0.1  # no gamma sheet involved; phi folds mod sqrt3 pi
    rep = decompose(compose(x), full_output=True)
    assert rep.residual <= 1e-12
    assert np.max(np.abs(compose(rep.angles.as_array()) - compose(x))) <= 1e-12


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------


def test_canonicalize_alpha_shift():
    x = np.zeros(8)
    x[0] = math.pi + 0.3
    y = canonicalize(x)
    assert y.is_canonical()
    assert np.max(np.abs(compose(y.as_array()) - compose(x))) <= 1e-12


def test_canonicalize_idempotent_on_canonical():
    xs = sample_angles(50, 21)
    for row in xs:
        y = canonicalize(row)
        assert np.max(np.abs(y.as_array() - row)) <= 1e-15


def test_canonicalize_phi_period():
    x = np.zeros(8)
    x[7] = 2 * math.pi + 0.1
    y = canonicalize(x)
    assert y.is_canonical()
    assert np.max(np.abs(compose(y.as_array()) - compose(x))) <= 1e-12


@given(st.lists(st.floats(-7.0, 7.0), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_canonicalize_preserves_element(vals):
    x = np.array(vals)
    y = canonicalize(x)
    assert y.is_canonical(tol=1e-12)
    assert np.max(np.abs(compose(y.as_array()) - compose(x))) <= 1e-9

