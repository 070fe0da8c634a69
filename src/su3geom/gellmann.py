"""Gell-Mann basis of su(3): matrices, commutators, structure constants.

The eight Gell-Mann matrices are the standard hermitian traceless basis of
3x3 matrices, normalized so that tr(lam_i lam_j) = 2 delta_ij.  Commutators
close on the basis, [lam_i, lam_j] = C^k_ij lam_k, with purely imaginary
structure constants C = 2i f (f real and totally antisymmetric).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SQRT3 = np.sqrt(3.0)

# lam[0] unused so that lam[i] is the conventional 1-based lambda_i.
_LAM = np.zeros((9, 3, 3), dtype=complex)
_LAM[1] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
_LAM[2] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
_LAM[3] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
_LAM[4] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
_LAM[5] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
_LAM[6] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
_LAM[7] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
_LAM[8] = np.diag([1.0, 1.0, -2.0]) / SQRT3
_LAM.setflags(write=False)

#: All eight matrices stacked, index 0..7 for lambda_1..lambda_8.
LAMBDA = _LAM[1:]

#: Row j is the row-major vec(lam_j), so tr(lam_i M) = conj(row i) . vec(M).
_LAMBDA_VEC = LAMBDA.reshape(8, 9)
#: vec(M) @ _LAMBDA_VEC_H is tr(M lam_j) / 2 for each j, as lam_j is hermitian.
_LAMBDA_VEC_H = _LAMBDA_VEC.conj().T / 2

# Cartan split: k = compact su(2) x u(1) part, p = the complement.
K_INDICES = (1, 2, 3, 8)


def gell_mann_matrix(i):
    """Return the Gell-Mann matrix lambda_i for i in 1..8 (read-only view)."""
    if not isinstance(i, (int, np.integer)) or not 1 <= i <= 8:
        raise ValueError(f"Gell-Mann index must be an integer in 1..8, got {i!r}")
    return _LAM[i]


def commutator(A, B):
    """Matrix commutator AB - BA."""
    A = np.asarray(A)
    B = np.asarray(B)
    return A @ B - B @ A


def expand_in_basis(M):
    """Expand a traceless 3x3 matrix in the Gell-Mann basis.

    Returns the complex coefficient vector c with M = sum_j c_j lam_j,
    c_j = tr(M lam_j) / 2.  The coefficients are exact for any traceless M
    (the basis spans the traceless matrices over C).

    Raises ValueError if |tr M| exceeds 1e-12 * max(||M||, 1), since such
    matrices are outside the span and the expansion would silently drop
    the trace part.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    bound = 1e-12 * max(np.linalg.norm(M), 1.0)
    tr = np.trace(M)
    if abs(tr) > bound:
        raise ValueError(
            f"matrix is not traceless: |tr M| = {abs(tr):.3e} "
            f"exceeds 1e-12 * max(||M||, 1) = {bound:.3e}")
    return M.reshape(9) @ _LAMBDA_VEC_H


@lru_cache(maxsize=1)
def structure_constants():
    """The read-only (8, 8, 8) structure tensor C^k_ij of [lam_i, lam_j] = C^k_ij lam_k.

    ``C[i, j, k]`` (0-based indices) is the coefficient of lam_{k+1} in
    [lam_{i+1}, lam_{j+1}], computed from the explicit matrices.  Entries
    are purely imaginary: C = 2i f with f real and antisymmetric.
    """
    C = commutator(LAMBDA[:, None], LAMBDA[None]).reshape(8, 8, 9) @ _LAMBDA_VEC_H
    C.setflags(write=False)
    return C


def verify_cartan_split():
    """Leakage of [k,k] in k, [p,p] in k and [k,p] in p, by sector.

    A sector's leakage is the largest structure constant C^c_ij with i, j
    in that sector and c outside its target subspace: the coefficient mass
    of the commutator outside the target.  Returns {sector: leakage}.
    """
    C = np.abs(structure_constants())
    k = np.isin(np.arange(1, 9), K_INDICES)
    p = ~k
    outside = {"[k,k] -> k": C[np.ix_(k, k, p)], "[p,p] -> k": C[np.ix_(p, p, p)],
               "[k,p] -> p": C[k[:, None] != k][:, k]}
    return {sector: float(c.max()) for sector, c in outside.items()}
