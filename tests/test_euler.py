import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3geom import euler
from su3geom.euler import (COORD_NAMES, GENERATOR_SLOTS, PHI_PERIOD, RANGES_COVER,
                           EulerAngles, canonicalize, compose, compose_many,
                           decompose, ensure_group_element, factor_exponential,
                           unitarity_defect)
from su3geom.gellmann import SQRT3
from su3geom.haar import sample_angles
from su3geom.tangent_frames import adjoint_matrix

from conftest import references

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
    assert np.max(np.abs(got - references.factor(g, t))) <= 1e-12


def test_factor_bad_generator():
    for g in (1, 4, 6, 7, 0):
        with pytest.raises(ValueError):
            factor_exponential(g, 0.3)


def test_factor_nonfinite():
    with pytest.raises(ValueError):
        factor_exponential(3, float("nan"))


def test_compose_and_compose_many_reject_nonfinite_angles():
    xs = np.zeros((2, 8))
    xs[1, 3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        compose(xs[1])
    for bad in (xs, np.full((2, 8), np.nan)):
        with pytest.raises(ValueError, match="finite"):
            compose_many(bad)
    with pytest.raises(ValueError, match="shape"):
        compose_many(np.zeros(8))


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
    # the closed form against the ordered product of the eight factors; it
    # runs on Python numbers in compose, where complex products are rounded
    # once per operation, not fused (FMA) as in numpy's array loops, so
    # compose may differ from compose_many by a few ulp
    def product(row):
        return functools.reduce(np.matmul, [factor_exponential(g, t)
                                            for g, t in zip(GENERATOR_SLOTS, row)])

    xs = sample_angles(40, 5)
    us = compose_many(xs)
    for row, u in zip(xs, us):
        assert np.max(np.abs(u - product(row))) <= 1e-14
        assert np.max(np.abs(u - compose(row))) <= 16 * np.finfo(float).eps

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
        assert np.max(np.abs(u - product(row))) <= 1e-13
        assert np.max(np.abs(u - compose(row))) <= 16 * np.finfo(float).eps


def test_compose_many_is_entry_major():
    # each entry is one contiguous row, so an integrand reads U[:, a, b], or
    # all nine as U.reshape(n, 9).T, with no stride and no copy, whatever
    # the layout of the angles
    xs = sample_angles(300, 21)
    us = compose_many(xs)
    from_c_order = compose_many(np.ascontiguousarray(xs))
    for stack in (us, from_c_order):
        rows = stack.reshape(len(xs), 9).T
        assert rows.flags.c_contiguous and np.shares_memory(rows, stack)
    assert np.array_equal(from_c_order, us)
    for i in range(len(xs)):
        assert np.array_equal(compose_many(xs[i:i + 1])[0], us[i])


def test_compose_is_c_contiguous():
    u = compose(sample_angles(1, 21)[0])
    assert u.shape == (3, 3) and u.flags.c_contiguous


def _ordered_product(row):
    return functools.reduce(np.matmul, [factor_exponential(g, t)
                                        for g, t in zip(GENERATOR_SLOTS, row)])


def test_compose_at_poles_of_the_half_angle_tangent():
    # the closed form reads cos u and sin u off tan(u / 2), which is
    # infinite where u is an odd multiple of pi: alpha + gamma = +-pi,
    # a - c = 3 pi, phi / sqrt3 = pi, 3 pi, -pi, and beta, theta, b = pi
    base = np.array([0.3, 0.7, 1.9, 0.4, 2.6, 1.1, 0.8, 4.2])
    poles = [{2: math.pi - 0.3}, {2: -math.pi - 0.3}, {6: 2.6 - 3 * math.pi},
             {7: SQRT3 * math.pi}, {7: 3 * SQRT3 * math.pi}, {7: -SQRT3 * math.pi},
             {1: math.pi}, {3: math.pi}, {5: math.pi},
             {2: math.pi - 0.3, 6: 2.6 - 3 * math.pi, 7: SQRT3 * math.pi}]
    xs = np.array([base] * len(poles))
    for row, pole in zip(xs, poles):
        row[list(pole)] = list(pole.values())
    for row, u in zip(xs, compose_many(xs)):
        assert np.max(np.abs(u - _ordered_product(row))) <= 1e-15
        assert np.max(np.abs(compose(row) - _ordered_product(row))) <= 1e-15


def test_compose_at_large_angles():
    # tan(u / 2) reduces its argument as cos and sin do; an angle of 1e6
    # carries about 1e-10 of its own rounding into the ordered product
    xs = np.random.default_rng(31).uniform(-1e6, 1e6, (500, 8))
    us = compose_many(xs)
    assert max(unitarity_defect(us)) <= 1e-12
    for row, u in zip(xs, us):
        assert np.max(np.abs(u - _ordered_product(row))) <= 1e-9


def test_compose_many_splits_into_half_products():
    # D(x) = D(alpha, beta, gamma, theta, 0, 0, 0, 0) D(0, 0, 0, 0, a, b, c, phi),
    # the identity the product rule composes its two half-grids on; checked
    # on Haar rows and with beta, theta, b at 0 and pi/2
    xs = sample_angles(1000, 17)
    edges = xs[:8].copy()
    edges[:, [1, 3, 5]] = list(itertools.product((0.0, math.pi / 2), repeat=3))
    xs = np.concatenate([xs, edges])
    left, right = xs.copy(), xs.copy()
    left[:, 4:] = 0.0
    right[:, :4] = 0.0
    product = compose_many(left) @ compose_many(right)
    assert np.max(np.abs(product - compose_many(xs))) <= 1e-15


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
    us = references.qr_haar_su3(300, np.random.default_rng(99))
    worst = 0.0
    n_gamma_ext = n_phi_ext = 0
    for u in us:
        rep = decompose(u, full_output=True)
        worst = max(worst, rep.residual)
        n_gamma_ext += rep.gamma_extended
        n_phi_ext += rep.phi_extended
        assert rep.angles.is_canonical()
    assert worst <= 1e-9
    # about half of the group lives in the gamma >= pi sheet
    assert 0.35 < n_gamma_ext / len(us) < 0.65
    # a box that covers once makes phi uniform on [0, 2 sqrt(3) pi), so a
    # fraction 1 - 1/sqrt(3) of the elements needs phi >= 2 pi
    p = 1 - 1 / SQRT3
    assert abs(n_phi_ext / len(us) - p) <= 4 * math.sqrt(p * (1 - p) / len(us))


def test_decompose_recovers_sampler_angles():
    xs = sample_angles(200, 13)
    interior = (np.abs(np.sin(2 * xs[:, 1])) > 1e-3) \
        & (np.abs(np.sin(2 * xs[:, 5])) > 1e-3) \
        & (np.abs(np.sin(2 * xs[:, 3])) > 1e-3)
    for row in xs[interior]:
        got = decompose(compose(row)).as_array()
        assert np.max(np.abs(got - row)) <= 1e-8


BOUNDARY_BASE = np.array([0.9, 0.6, 1.3, 0.7, 1.1, 0.8, 0.5, 2.0])


def boundary_cases():
    out = []
    for idx, vals in ((3, (0.0, math.pi / 2)), (1, (0.0, math.pi / 2)),
                      (5, (0.0, math.pi / 2))):
        for v in vals:
            x = BOUNDARY_BASE.copy()
            x[idx] = v
            out.append(x)
    # combined degeneracies
    for pair in (((3, 0.0), (1, 0.0)), ((3, math.pi / 2), (5, math.pi / 2)),
                 ((1, math.pi / 2), (5, 0.0))):
        x = BOUNDARY_BASE.copy()
        for idx, v in pair:
            x[idx] = v
        out.append(x)
    return out


def test_compose_runs_the_stack_formula_on_python_numbers():
    # one point runs the closed form's lines on Python numbers and a stack
    # on (n,) rows; at every lock of beta, theta and b (0 or pi/2, alone or
    # together) the two stay within roundoff of each other and of the
    # ordered product
    for locks in itertools.product((None, 0.0, math.pi / 2), repeat=3):
        if locks == (None, None, None):
            continue
        x = BOUNDARY_BASE.copy()
        for slot, v in zip((1, 3, 5), locks):
            if v is not None:
                x[slot] = v
        u = compose(x)
        assert type(u) is np.ndarray and u.dtype == np.complex128
        assert u.shape == (3, 3) and u.flags.c_contiguous
        assert np.max(np.abs(u - _ordered_product(x))) <= 1e-15
        assert np.max(np.abs(u - compose_many(x[None])[0])) <= 4.5e-16


@pytest.mark.parametrize("x", boundary_cases())
def test_decompose_boundary_elements(x):
    U = compose(x)
    rep = decompose(U, full_output=True)
    assert rep.residual <= 1e-9
    assert rep.angles.is_canonical()
    # the gimbal representatives: at theta = 0 the SU(2) factors merge and
    # a, b, c are 0; otherwise a lock in beta leaves gamma at 0 or pi, and
    # one in b leaves c at 0
    y = rep.angles
    if x[3] == 0.0:
        assert y.a == y.b == y.c == 0.0
    else:
        if x[1] in (0.0, math.pi / 2):
            assert abs(math.remainder(y.gamma, math.pi)) <= 1e-12
        if x[5] in (0.0, math.pi / 2):
            assert y.c == 0.0


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
    assert rep.angles.is_canonical()
    assert rep.residual <= 1e-9


def test_decompose_real_rotations():
    # real input puts every phase on the +-pi branch cut or at +-1e-16
    rng = np.random.default_rng(2007)
    for _ in range(500):
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q * np.sign(np.diag(R))
        Q = Q * np.sign(np.linalg.det(Q))
        rep = decompose(Q.astype(complex), full_output=True)
        assert rep.angles.is_canonical()
        assert rep.residual <= 1e-9


@pytest.mark.parametrize("vals", [
    [0.0, 0.0, 0.0, -0.0625, 0.0, 6.4375, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.21783268208617113, 0.0, -2.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 8.0, 0.0, -0.0625, 0.0, -math.pi],
])
def test_canonicalize_branch_cut_examples(vals):
    x = np.array(vals)
    y = canonicalize(x)
    assert y.is_canonical()
    assert np.linalg.norm(compose(y.as_array()) - compose(x)) <= 1e-9


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        decompose(np.eye(3) * 1.01)
    bad_det = np.diag([1.0, 1.0, np.exp(0.5j)])
    with pytest.raises(ValueError, match="det"):
        decompose(bad_det)


def defect_reference(us):
    """The largest Frobenius norm of U+U - I and |det U - 1|, element by element."""
    du = [np.linalg.norm(u.conj().T @ u - np.eye(3), "fro") for u in us]
    dd = [abs(np.linalg.det(u) - 1.0) for u in us]
    return max(du, default=0.0), max(dd, default=0.0)


def test_unitarity_defect_matches_a_per_element_reference():
    rng = np.random.default_rng(61)
    us = references.qr_haar_su3(200, rng)
    scaled = us * (1.0 + 1e-3 * rng.standard_normal((200, 1, 1)))
    phased = us.copy()
    phased[:, :, 2] *= np.exp(1j * rng.uniform(-1e-3, 1e-3, (200, 1)))
    one_bad = us.copy()
    one_bad[137] *= 1.0 + 1e-6
    stacks = {"haar": us, "scaled": scaled, "phased": phased, "one_bad": one_bad}
    for name, stack in stacks.items():
        want = defect_reference(stack)
        assert unitarity_defect(stack) == pytest.approx(want, rel=1e-12, abs=1e-15), name
    assert unitarity_defect(us[0]) == pytest.approx(defect_reference(us[:1]),
                                                    rel=1e-12, abs=1e-15)
    assert unitarity_defect(np.empty((0, 3, 3), complex)) == (0.0, 0.0)
    assert unitarity_defect(phased)[0] <= 1e-14 < 1e-5 <= unitarity_defect(phased)[1]


def defect_families():
    """Haar, real-rotation, signed-permutation, diagonal and centre elements."""
    rng = np.random.default_rng(63)
    phases = rng.uniform(-math.pi, math.pi, (30, 2))
    return {
        "haar": references.qr_haar_su3(100, rng),
        "real_rotation": references.real_rotations(100, rng),
        "signed_permutation": np.array(signed_permutations()),
        "diagonal": np.array([np.diag(np.exp(1j * np.array([s, t, -s - t])))
                              for s, t in phases]),
        "centre": np.array([np.exp(2j * math.pi * k / 3) * np.eye(3) for k in range(3)]),
    }


@pytest.mark.parametrize("family", list(defect_families()))
def test_unitarity_defect_of_one_element_is_that_of_a_stack_of_it(family):
    # one formula, on Python floats for one element and on (n,) rows for a
    # stack, in real arithmetic so that both round alike.  The reference
    # rounds its matmul and LU determinant otherwise, by up to 4.4e-16 on
    # Haar elements
    for u in defect_families()[family]:
        one = unitarity_defect(u)
        assert [type(d) for d in one] == [float, float]
        assert one == pytest.approx(unitarity_defect(u[None]), rel=1e-12, abs=1e-16)
        assert one == pytest.approx(defect_reference(u[None]), rel=1e-12, abs=1e-15)
    assert unitarity_defect(np.empty((0, 3, 3), complex)) == (0.0, 0.0)


def planted_defect(U, size, kind):
    """U with ||U+U - I|| (kind 'unitary') or |det U - 1| (kind 'det') moved
    to about ``size``, and the other defect left at roundoff."""
    V = U.copy()
    if kind == "unitary":
        # columns 0 and 1 scaled by 1 + e and 1 / (1 + e): det U is kept,
        # and the Gram diagonal moves by about +-2e
        e = size / (2 * math.sqrt(2))
        V[:, 0] *= 1 + e
        V[:, 1] /= 1 + e
    else:
        V[:, 0] *= np.exp(1j * size)
    return V


@pytest.mark.parametrize("kind", ["unitary", "det"])
@pytest.mark.parametrize("family", list(defect_families()))
def test_group_element_gate_at_planted_edges(family, kind):
    # the gate is 1e-12 on both defects, for one element and for a stack
    stack = defect_families()[family]
    slot, message = (0, "unitary") if kind == "unitary" else (1, "det")
    for U in stack[:3]:
        above, below = planted_defect(U, 1.01e-12, kind), planted_defect(U, 1e-13, kind)
        for V in (above, np.concatenate([stack, above[None]])):
            assert 1e-12 < unitarity_defect(V)[slot] <= 1.02e-12
            with pytest.raises(ValueError, match=message):
                ensure_group_element(V)
        for V in (below, np.concatenate([stack, below[None]])):
            assert unitarity_defect(V)[slot] <= 1.1e-13
            assert ensure_group_element(V).shape == V.shape


def test_decompose_tolerance_edges():
    # ensure_group_element's gate is 1e-12 on ||U+U - I|| and on |det U - 1|,
    # and adjoint_matrix accepts exactly what decompose accepts
    U = references.qr_haar_su3(1, np.random.default_rng(62))[0]
    assert decompose(U * (1 + 1e-13), full_output=True).residual <= 1e-12
    with pytest.raises(ValueError, match="unitary"):
        decompose(U * (1 + 1e-12))
    assert decompose(np.diag([1.0, 1.0, np.exp(5e-13j)]), full_output=True).residual <= 1e-12
    with pytest.raises(ValueError, match="det"):
        decompose(np.diag([1.0, 1.0, np.exp(5e-12j)]))
    for V in (U * (1 + 1e-13), np.diag([1.0, 1.0, np.exp(5e-13j)])):
        R = adjoint_matrix(V)
        assert np.linalg.norm(R @ R.T - np.eye(8)) <= 1e-11
    with pytest.raises(ValueError, match="unitary"):
        adjoint_matrix(U * (1 + 1e-12))
    with pytest.raises(ValueError, match="det"):
        adjoint_matrix(np.diag([1.0, 1.0, np.exp(5e-12j)]))


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
        assert rep.angles.is_canonical()
        worst = max(worst, rep.residual)
    assert worst <= 1e-11


def test_decompose_flags_extended_phi():
    x = np.zeros(8)
    x[7] = 2 * math.pi + 0.1  # no gamma sheet involved; phi folds mod sqrt3 pi
    rep = decompose(compose(x), full_output=True)
    assert rep.residual <= 1e-12
    assert np.max(np.abs(compose(rep.angles.as_array()) - compose(x))) <= 1e-12


@pytest.mark.parametrize("dim", range(8), ids=COORD_NAMES)
def test_is_canonical_matches_cover_box_at_every_edge(dim):
    # flat axes are half-open, the weighted beta, theta and b closed
    lo, hi = RANGES_COVER.as_tuples()[dim]
    closed = COORD_NAMES[dim] in ("beta", "theta", "b")
    for v, inside in ((lo, True), (hi, closed), (np.nextafter(lo, -np.inf), False),
                      (np.nextafter(hi, -np.inf), True), (np.nextafter(hi, np.inf), False)):
        x = BOUNDARY_BASE.copy()
        x[dim] = v
        assert EulerAngles(*x).is_canonical() == inside, v


def test_decompose_flags_at_the_stated_box_edge(monkeypatch):
    # gamma = pi and phi = 2 pi exactly are the first values past the stated box
    for dim, hi in ((2, math.pi), (7, 2 * math.pi)):
        for v, extended in ((hi, True), (np.nextafter(hi, -np.inf), False)):
            x = BOUNDARY_BASE.copy()
            x[dim] = v
            monkeypatch.setattr(euler, "_analytic_decompose", lambda U, x=x: x.copy())
            rep = decompose(compose(x), full_output=True)
            assert rep.angles.as_array()[dim] == v
            assert rep.gamma_extended == (extended and dim == 2)
            assert rep.phi_extended == (extended and dim == 7)


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


def test_canonicalize_clamps_roundoff_outside_the_box():
    # decompose never leaves [0, pi/2] in beta, b or theta, but canonicalize
    # takes any angles: roundoff past an edge is clamped, where falling back
    # to decompose would move these angles by 1.3 and 8.2 rad
    for idx, v in ((1, -1e-13), (3, math.pi / 2 + 1e-13)):
        x = BOUNDARY_BASE.copy()
        x[idx] = v
        y = canonicalize(x)
        assert y.is_canonical()
        assert np.max(np.abs(y.as_array() - x)) <= 1e-12


@given(st.lists(st.floats(-7.0, 7.0), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_canonicalize_preserves_element(vals):
    x = np.array(vals)
    y = canonicalize(x)
    assert y.is_canonical()
    assert np.max(np.abs(compose(y.as_array()) - compose(x))) <= 1e-9

