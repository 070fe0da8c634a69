import numpy as np
import pytest
from hypothesis import given, strategies as st

from su3geom.gellmann import (LAMBDA, SQRT3, commutator, expand_in_basis,
                              gell_mann_matrix, structure_constants,
                              verify_cartan_split)
from su3geom import verify
from su3geom.verify import COMMUTATOR_TABLE


def table_matrix(coeffs):
    out = np.zeros((3, 3), dtype=complex)
    for k, w in coeffs.items():
        out = out + w * gell_mann_matrix(k)
    return out


def test_lambda1_explicit():
    assert np.array_equal(gell_mann_matrix(1),
                          np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))


def test_lambda8_explicit():
    expected = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    assert np.array_equal(gell_mann_matrix(8), expected)


@pytest.mark.parametrize("i", range(1, 9))
def test_traceless_and_hermitian(i):
    lam = gell_mann_matrix(i)
    assert np.trace(lam) == 0
    assert np.array_equal(lam, lam.conj().T)


@pytest.mark.parametrize("i", [0, 9, -1, 100])
def test_index_out_of_range(i):
    with pytest.raises(ValueError):
        gell_mann_matrix(i)


def test_orthogonality_exact():
    gram = np.einsum("iab,jba->ij", LAMBDA, LAMBDA)
    assert np.max(np.abs(gram - 2 * np.eye(8))) <= 1e-15


def test_commutator_examples():
    assert np.allclose(commutator(gell_mann_matrix(1), gell_mann_matrix(2)),
                       2j * gell_mann_matrix(3), atol=1e-15)
    assert np.allclose(commutator(gell_mann_matrix(3), gell_mann_matrix(8)),
                       np.zeros((3, 3)), atol=1e-15)
    assert np.allclose(commutator(gell_mann_matrix(4), gell_mann_matrix(5)),
                       1j * gell_mann_matrix(3) + 1j * SQRT3 * gell_mann_matrix(8),
                       atol=1e-15)


def test_full_commutator_table():
    worst = 0.0
    for (i, j), coeffs in COMMUTATOR_TABLE.items():
        got = commutator(gell_mann_matrix(i), gell_mann_matrix(j))
        worst = max(worst, np.max(np.abs(got - table_matrix(coeffs))))
    assert worst <= 1e-12


def test_expand_basis_element():
    c = expand_in_basis(gell_mann_matrix(5))
    expected = np.zeros(8, dtype=complex)
    expected[4] = 1.0
    assert np.allclose(c, expected, atol=1e-15)


def test_expand_scaled_basis_element():
    c = expand_in_basis(2j * gell_mann_matrix(3))
    expected = np.zeros(8, dtype=complex)
    expected[2] = 2j
    assert np.allclose(c, expected, atol=1e-15)


def test_expand_commutator_45():
    c = expand_in_basis(commutator(gell_mann_matrix(4), gell_mann_matrix(5)))
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1j
    expected[7] = 1j * SQRT3
    assert np.allclose(c, expected, atol=1e-14)


def test_expand_rejects_trace():
    with pytest.raises(ValueError, match="traceless"):
        expand_in_basis(np.eye(3))


@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       st.lists(st.floats(-10, 10), min_size=8, max_size=8))
def test_expand_roundtrip(re, im):
    coeffs = np.array(re) + 1j * np.array(im)
    M = np.einsum("j,jab->ab", coeffs, LAMBDA)
    back = expand_in_basis(M)
    assert np.allclose(back, coeffs, atol=1e-12 * max(1.0, np.max(np.abs(coeffs))))


def test_structure_constants_examples():
    C = structure_constants()
    assert C.shape == (8, 8, 8) and not C.flags.writeable  # one cached array
    assert abs(C[0, 1, 2] - 2j) <= 1e-15          # lam1, lam2 -> 2i lam3
    assert abs(C[3, 4, 7] - 1j * SQRT3) <= 1e-14  # lam4, lam5 -> i sqrt3 lam8
    assert np.max(np.abs(np.einsum("iik->ik", C))) == 0.0


def test_structure_constants_antisymmetric_imaginary():
    C = structure_constants()
    assert np.max(np.abs(C + np.swapaxes(C, 0, 1))) <= 1e-14
    assert np.max(np.abs(C.real)) <= 1e-14
    f = (C / 2j).real
    assert abs(f[0, 1, 2] - 1.0) <= 1e-15


def test_structure_constants_rebuild_every_commutator():
    # sum_k C^k_ij lam_k = [lam_i, lam_j], for all 64 ordered pairs
    rebuilt = np.einsum("ijk,kab->ijab", structure_constants(), LAMBDA)
    assert np.max(np.abs(rebuilt - commutator(LAMBDA[:, None], LAMBDA[None]))) <= 1e-14


def test_jacobi_identity():
    worst = 0.0
    for i in range(8):
        for j in range(8):
            for k in range(8):
                J = (commutator(LAMBDA[i], commutator(LAMBDA[j], LAMBDA[k]))
                     + commutator(LAMBDA[j], commutator(LAMBDA[k], LAMBDA[i]))
                     + commutator(LAMBDA[k], commutator(LAMBDA[i], LAMBDA[j])))
                worst = max(worst, np.max(np.abs(J)))
    assert worst <= 1e-12


def test_jacobi_check_rejects_the_anticommutator(monkeypatch):
    # the anticommutator is no Lie bracket; the broadcast check must see it
    monkeypatch.setattr(verify, "commutator",
                        lambda A, B: np.asarray(A) @ B + np.asarray(B) @ A)
    checks = {c.name: c for c in verify.suite_algebra()}
    assert not checks["algebra.jacobi"].passed


def test_cartan_split():
    leakage = verify_cartan_split()
    assert max(leakage.values()) <= 1e-12
    assert set(leakage) == {"[k,k] -> k", "[p,p] -> k", "[k,p] -> p"}


def test_cartan_split_examples():
    # [lam1, lam2] stays in the compact part, [lam4, lam5] lands there,
    # [lam3, lam4] lands in the complement
    for i, j, bad in ((1, 2, (4, 5, 6, 7)), (4, 5, (4, 5, 6, 7)),
                      (3, 4, (1, 2, 3, 8))):
        c = expand_in_basis(commutator(gell_mann_matrix(i), gell_mann_matrix(j)))
        assert max(abs(c[k - 1]) for k in bad) <= 1e-14
