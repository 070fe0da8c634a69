"""Invariant vector-field frames in the Euler coordinates.

Two independent routes to the same objects:

* A constructive route from the partial products of the factor chain.
  With P_k the product of the factors before k, S_k the product from
  factor k on (so D = P_k S_k) and g_k the generator of factor k,

      (d_k D) D^-1 = i P_k lam_{g_k} P_k^dag,
      D^-1 (d_k D) = i S_k^dag lam_{g_k} S_k,

  so the Maurer-Cartan coefficient matrix c is read off without an
  inverse of D and inverted to the frame a = i c^{-1}.  The frame rows
  satisfy the defining relations

      sum_k a_ik  dD/dx_k = -lam_i D      (left chirality)
      sum_k ar_ik dD/dx_k = -D lam_i      (right chirality)

  to machine precision at interior points; this is the ground truth.
  Every constructive object accepts one point, (8,), or a batch, (n, 8),
  and returns a leading batch axis for the latter.

* A transcription route: the hand-derived closed-form coefficient tables
  for the same frames, entered literally term by term.  These long
  trigonometric tables are known to contain occasional typos; the
  comparison machinery in verify.py diffs them against the constructive
  frames and reports persistent per-entry mismatches.

The 8x8 frames use rows = field index 1..8, columns = coordinate index in
the order (alpha, beta, gamma, theta, a, b, c, phi).  Chart singularities
(any of sin 2beta, sin 2b, sin 2theta, sin theta below threshold) raise
ChartSingularityError naming the vanishing factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euler import (GENERATOR_SLOTS, _as_angle_array, _as_angle_points,
                    _closed_form, ensure_group_element)
from .gellmann import LAMBDA, SQRT3, _LAMBDA_VEC, _LAMBDA_VEC_H

#: Threshold on the singular chart factors.
SINGULAR_THRESHOLD = 1e-8

#: Condition-number bound on the Maurer-Cartan coefficient inversion.
CONDITION_LIMIT = 1e12

#: The frame denominators sin(scale * x[index]), in the order
#: ``check_interior`` tests them.
_CHART_FACTORS = ("sin(2*beta)", "sin(2*b)", "sin(2*theta)", "sin(theta)")
_CHART_INDEX = np.array([1, 5, 3, 3])
_CHART_SCALE = np.array([2.0, 2.0, 2.0, 1.0])


def chart_denominators(xs):
    """The four frame denominators at (n, 8) angle rows, as (n, 4)."""
    return np.sin(xs[..., _CHART_INDEX] * _CHART_SCALE).reshape(-1, 4)


#: Row k keeps the angles before k (prefix) or from k on (suffix).
_PREFIX = np.tril(np.ones((8, 8)), -1)
_SUFFIX = np.triu(np.ones((8, 8)))

#: lam_g for the generator g of each factor, in order.
_GENERATORS = LAMBDA[np.array(GENERATOR_SLOTS) - 1]


def _partial_products(x, mask):
    """Row k of ``mask`` picks the factors of product k: (..., 8) -> (..., 8, 3, 3).

    A factor at angle 0 is the identity, so zeroing the other angles leaves
    the ordered product of the picked factors, which ``euler._closed_form``
    fills in.  The callers have validated x through ``_as_angle_points``.
    """
    return _closed_form((x[..., None, :] * mask).reshape(-1, 8)).reshape(
        x.shape[:-1] + (8, 3, 3))


def partial_derivatives(x):
    """Exact dD/dx_k for all eight coordinates: (8,) -> (8, 3, 3), (n, 8) -> (n, 8, 3, 3).

    The derivative of the ordered product inserts i*generator in front of
    the differentiated factor: d_k D = P_k (i lam_{g_k}) S_k, with P_k the
    product of the factors before k and S_k the product from factor k on.
    """
    x = _as_angle_points(x)
    return (_partial_products(x, _PREFIX) @ (1j * _GENERATORS)
            @ _partial_products(x, _SUFFIX))


class ChartSingularityError(ValueError):
    """Coordinate chart degenerates at this point (gimbal-lock analogue)."""

    def __init__(self, factor, value, threshold):
        self.factor = factor
        self.value = value
        super().__init__(
            f"chart is singular here: |{factor}| = {abs(value):.3e} "
            f"is below the threshold {threshold:.1e}"
        )


def check_interior(x):
    """Raise ChartSingularityError unless all frame denominators are safe.

    For a batch, the error names the first singular factor of the first
    singular point.
    """
    x = _as_angle_points(x)
    values = chart_denominators(x)
    singular = np.abs(values) < SINGULAR_THRESHOLD
    if singular.any():
        point = np.flatnonzero(singular.any(axis=1))[0]
        k = np.argmax(singular[point])
        raise ChartSingularityError(_CHART_FACTORS[k], values[point, k],
                                    SINGULAR_THRESHOLD)


@dataclass(frozen=True)
class FrameMatrix:
    """Vector-field coefficients; rows = field index, columns = coordinates.

    ``entries.imag`` is the real coefficient matrix of X_i = -i Lambda_i.
    """

    entries: np.ndarray


def maurer_cartan_coefficients(x, chirality="left"):
    """Expand the translated derivatives in the Gell-Mann basis.

    c_kj = tr(P_k lam_{g_k} P_k^dag lam_j) / 2    for the left chirality,
    c_kj = tr(S_k^dag lam_{g_k} S_k lam_j) / 2    for the right,

    which equal -(i/2) tr((d_k D) D^-1 lam_j) and -(i/2) tr(D^-1 (d_k D) lam_j),
    so (d_k D) D^-1 = i sum_j c_kj lam_j (left) or D^-1 (d_k D) = i sum_j
    c_kj lam_j (right); rows k = coordinates.  Returns the complex traces,
    (8,) -> (8, 8) and (n, 8) -> (n, 8, 8).  They are real up to roundoff,
    as traces of products of two hermitian matrices; callers take ``.real``,
    and the check ``forms.reality`` reports the imaginary part.
    """
    if chirality not in ("left", "right"):
        raise ValueError(f"chirality must be 'left' or 'right', got {chirality!r}")
    x = _as_angle_points(x)
    if chirality == "left":
        P = _partial_products(x, _PREFIX)
        A = P @ _GENERATORS @ np.conj(np.swapaxes(P, -1, -2))
    else:
        S = _partial_products(x, _SUFFIX)
        A = np.conj(np.swapaxes(S, -1, -2)) @ _GENERATORS @ S
    return A.reshape(A.shape[:-2] + (9,)) @ _LAMBDA_VEC_H


def _constructive_frame(x, chirality):
    check_interior(x)
    c = maurer_cartan_coefficients(x, chirality).real
    # the singular values that np.linalg.cond divides, without its NaN
    # patching; not (s_max <= limit s_min) also catches s_min = 0 or NaN
    s = np.linalg.svd(c, compute_uv=False).reshape(-1, 8)
    s_max, s_min = s[:, 0], s[:, -1]
    ill = ~(s_max <= CONDITION_LIMIT * s_min)
    if ill.any():
        k = np.flatnonzero(ill)[0]
        raise ChartSingularityError("1/cond(maurer_cartan_coefficients)",
                                    s_min[k] / s_max[k], 1.0 / CONDITION_LIMIT)
    return FrameMatrix(entries=1j * np.linalg.inv(c))


def left_field_frame(x):
    """Constructive left frame: a = i c^-1, so sum_k a_ik d_k D = -lam_i D."""
    return _constructive_frame(x, "left")


def right_field_frame(x):
    """Constructive right frame: ar = i cr^-1, so sum_k ar_ik d_k D = -D lam_i."""
    return _constructive_frame(x, "right")


# ---------------------------------------------------------------------------
# Closed-form tables (literal transcriptions; verified against the
# constructive frames, with persistent mismatches reported as typos)
# ---------------------------------------------------------------------------


def _left_table(x):
    alpha, beta, gamma, theta, a, b, _c, _phi = x
    T = np.zeros((8, 8), dtype=complex)
    c2alpha, s2alpha = math.cos(2 * alpha), math.sin(2 * alpha)
    cbeta, sbeta = math.cos(beta), math.sin(beta)
    s2beta = math.sin(2 * beta)
    cot2beta = math.cos(2 * beta) / s2beta
    st = math.sin(theta)
    cot_theta = math.cos(theta) / st
    s2theta = math.sin(2 * theta)
    tan_theta = st / math.cos(theta)
    s2b = math.sin(2 * b)
    cot2b = math.cos(2 * b) / s2b
    apg = alpha + gamma          # alpha + gamma
    amg = alpha - gamma          # alpha - gamma
    amg2a = alpha - gamma - 2 * a
    apg2a = alpha + gamma + 2 * a

    T[0, 0] = 1j * c2alpha * cot2beta
    T[0, 1] = 1j * s2alpha
    T[0, 2] = -1j * c2alpha / s2beta

    T[1, 0] = -1j * s2alpha * cot2beta
    T[1, 1] = 1j * c2alpha
    T[1, 2] = 1j * s2alpha / s2beta

    T[2, 0] = 1j

    T[7, 2] = 1j * SQRT3
    T[7, 4] = -1j * SQRT3
    T[7, 7] = 1j

    T[3, 0] = 1j * (sbeta / s2beta) * cot_theta * math.cos(apg)
    T[3, 1] = -1j * sbeta * cot_theta * math.sin(apg)
    T[3, 2] = (-1j * cot2beta * sbeta * cot_theta * math.cos(apg)
               + 1j * (2 - st ** 2) / s2theta * cbeta * math.cos(apg))
    T[3, 3] = 1j * cbeta * math.sin(apg)
    T[3, 4] = (-2j * cbeta / s2theta * math.cos(apg)
               - 1j * cot2b / st * sbeta * math.cos(amg2a))
    T[3, 5] = 1j * sbeta / st * math.sin(amg2a)
    T[3, 6] = 1j * sbeta / (st * s2b) * math.cos(amg2a)
    T[3] += -(SQRT3 / 2) * tan_theta * cbeta * math.cos(apg) * T[7]

    T[4, 0] = -1j * (sbeta / s2beta) * cot_theta * math.sin(apg)
    T[4, 1] = -1j * sbeta * cot_theta * math.cos(apg)
    T[4, 2] = (1j * cot2beta * sbeta * cot_theta * math.sin(apg)
               - 1j * (2 - st ** 2) / s2theta * cbeta * math.sin(apg))
    T[4, 3] = 1j * cbeta * math.cos(apg)
    T[4, 4] = (2j * cbeta / s2theta * math.sin(apg)
               + 1j * cot2b / st * sbeta * math.sin(amg2a))
    T[4, 5] = 1j * sbeta / st * math.cos(amg2a)
    T[4, 6] = -1j * sbeta / (st * s2b) * math.sin(amg2a)
    T[4] += (SQRT3 / 2) * tan_theta * cbeta * math.sin(apg) * T[7]

    T[5, 0] = 1j * (cbeta / s2beta) * cot_theta * math.cos(amg)
    T[5, 1] = 1j * cbeta * cot_theta * math.sin(amg)
    T[5, 2] = (-1j * cot2beta * cbeta * cot_theta * math.cos(amg)
               - 1j * (2 - st ** 2) / s2theta * sbeta * math.cos(amg))
    T[5, 3] = 1j * sbeta * math.sin(amg)
    T[5, 4] = (2j * sbeta / s2theta * math.cos(amg)
               - 1j * cot2b / st * cbeta * math.cos(apg2a))
    T[5, 5] = -1j * cbeta / st * math.sin(apg2a)
    T[5, 6] = 1j * cbeta / (st * s2b) * math.cos(apg2a)
    T[5] += (SQRT3 / 2) * tan_theta * sbeta * math.cos(amg) * T[7]

    T[6, 0] = 1j * (cbeta / s2beta) * cot_theta * math.sin(amg)
    T[6, 1] = -1j * cbeta * cot_theta * math.cos(amg)
    T[6, 2] = (-1j * cot2beta * cbeta * cot_theta * math.sin(amg)
               - 1j * (2 - st ** 2) / s2theta * sbeta * math.sin(amg))
    T[6, 3] = -1j * sbeta * math.cos(amg)
    T[6, 4] = (2j * sbeta / s2theta * math.sin(amg)
               - 1j * cot2b / st * cbeta * math.sin(apg2a))
    T[6, 5] = 1j * cbeta / st * math.cos(apg2a)
    T[6, 6] = 1j * cbeta / (st * s2b) * math.sin(apg2a)
    T[6] += (SQRT3 / 2) * tan_theta * sbeta * math.sin(amg) * T[7]

    return T


def _right_table(x):
    _alpha, beta, gamma, theta, a, b, c, phi = x
    eta = phi / SQRT3
    T = np.zeros((8, 8), dtype=complex)
    s2beta = math.sin(2 * beta)
    cot2beta = math.cos(2 * beta) / s2beta
    st = math.sin(theta)
    cot_theta = math.cos(theta) / st
    s2theta = math.sin(2 * theta)
    tan_theta = st / math.cos(theta)
    s2b = math.sin(2 * b)
    cot2b = math.cos(2 * b) / s2b
    cb, sb = math.cos(b), math.sin(b)
    c2c, s2c = math.cos(2 * c), math.sin(2 * c)
    cpa = c + a + 3 * eta
    cma = c - a - 3 * eta
    cm2g = c - a - 2 * gamma + 3 * eta
    cp2g = c + a + 2 * gamma - 3 * eta

    T[0, 6] = -1j * c2c * cot2b
    T[0, 5] = -1j * s2c
    T[0, 4] = 1j * c2c / s2b

    T[1, 6] = -1j * s2c * cot2b
    T[1, 5] = 1j * c2c
    T[1, 4] = 1j * s2c / s2b

    T[2, 6] = 1j

    T[7, 7] = 1j

    T[3, 6] = -1j * (sb / s2b) * cot_theta * math.cos(cpa)
    T[3, 5] = 1j * sb * cot_theta * math.sin(cpa)
    T[3, 4] = (1j * cot2b * sb * cot_theta * math.cos(cpa)
               - 1j * (2 - st ** 2) / s2theta * cb * math.cos(cpa))
    T[3, 3] = -1j * cb * math.sin(cpa)
    T[3, 2] = (2j * cb / s2theta * math.cos(cpa)
               + 1j * cot2beta / st * sb * math.cos(cm2g))
    T[3, 1] = -1j * sb / st * math.sin(cm2g)
    T[3, 0] = -1j * sb / (st * s2beta) * math.cos(cm2g)
    T[3] += -(SQRT3 / 2) * tan_theta * cb * math.cos(cpa) * T[7]

    T[4, 6] = -1j * (sb / s2b) * cot_theta * math.sin(cpa)
    T[4, 5] = -1j * sb * cot_theta * math.cos(cpa)
    T[4, 4] = (1j * cot2b * sb * cot_theta * math.sin(cpa)
               - 1j * (2 - st ** 2) / s2theta * cb * math.sin(cpa))
    T[4, 3] = 1j * cb * math.cos(cpa)
    T[4, 2] = (2j * cb / s2theta * math.sin(cpa)
               + 1j * cot2beta / st * sb * math.sin(cm2g))
    T[4, 1] = 1j * sb / st * math.cos(cm2g)
    T[4, 0] = -1j * sb / (st * s2beta) * math.sin(cm2g)
    T[4] += -(SQRT3 / 2) * tan_theta * cb * math.sin(cpa) * T[7]

    T[5, 6] = 1j * (cb / s2b) * cot_theta * math.cos(cma)
    T[5, 5] = 1j * cb * cot_theta * math.sin(cma)
    # the second d/da term below carries no i in the transcribed source
    T[5, 4] = (-1j * cot2b * cb * cot_theta * math.cos(cma)
               - (2 - st ** 2) / s2theta * sb * math.cos(cma))
    T[5, 3] = 1j * sb * math.sin(cma)
    T[5, 2] = (2j * sb / s2theta * math.cos(cma)
               - 1j * cot2beta / st * cb * math.cos(cp2g))
    T[5, 1] = -1j * cb / st * math.sin(cp2g)
    T[5, 0] = 1j * cb / (st * s2beta) * math.cos(cp2g)
    T[5] += -(SQRT3 / 2) * tan_theta * sb * math.cos(cma) * T[7]

    T[6, 6] = -1j * (cb / s2b) * cot_theta * math.sin(cma)
    T[6, 5] = 1j * cb * cot_theta * math.cos(cma)
    T[6, 4] = (1j * cot2b * cb * cot_theta * math.sin(cma)
               + 1j * (2 - st ** 2) / s2theta * sb * math.sin(cma))
    T[6, 3] = 1j * sb * math.cos(cma)
    T[6, 2] = (-2j * sb / s2theta * math.sin(cma)
               + 1j * cot2beta / st * cb * math.sin(cp2g))
    T[6, 1] = -1j * cb / st * math.cos(cp2g)
    T[6, 0] = -1j * cb / (st * s2beta) * math.sin(cp2g)
    T[6] += (SQRT3 / 2) * tan_theta * sb * math.sin(cma) * T[7]

    return T


def left_field_frame_closed(x):
    """Transcribed closed-form left frame (see verify.py for the diff report)."""
    x = _as_angle_array(x)
    check_interior(x)
    return FrameMatrix(entries=_left_table(x))


def right_field_frame_closed(x):
    """Transcribed closed-form right frame (see verify.py for the diff report)."""
    x = _as_angle_array(x)
    check_interior(x)
    return FrameMatrix(entries=_right_table(x))


def adjoint_matrix(U):
    """Adjoint representation R(U)_ij = tr(lam_i U lam_j U^dag) / 2.

    (3, 3) -> (8, 8) and (n, 3, 3) -> (n, 8, 8).  R is the matrix of
    X -> U X U^dag in the Gell-Mann basis: real, orthogonal with det +1, and
    a homomorphism R(UV) = R(U) R(V).  As vec(U X U^dag) = (U kron conj U)
    vec(X), R = Re(Lam^H (U kron conj U) Lam) / 2 with Lam = _LAMBDA_VEC^T;
    the dropped imaginary part is roundoff for any complex U, as the
    conjugate of tr(lam_i U lam_j U^dag) is the same trace by cyclicity.
    The two constructive frames are linked row-wise by  right = R(U)^T @ left
    at U = compose(x) (transpose because the frames realize translations,
    not conjugation; the sign is +1).

    U must pass ``ensure_group_element``'s 1e-12 gate, as for ``decompose``.
    To first order ||R R^T - I||_F <= sqrt(32/3) ||U+U - I||_F, so the check
    ``frames.adjoint_orthogonal`` tests orthogonality, with det R = +1.
    """
    U = ensure_group_element(U)
    kron = (U[..., :, None, :, None] * U.conj()[..., None, :, None, :]).reshape(
        U.shape[:-2] + (9, 9))
    return (_LAMBDA_VEC_H.T @ kron @ _LAMBDA_VEC.T).real
