"""Invariant one-form coframes dual to the vector-field frames.

Duality convention: the printed one-form tables are real while the field
tables carry an overall i, so the pairing is taken against the real frame
X_i = -i Lambda_i.  With the constructive frame a = i c^{-1} (c the
Maurer-Cartan coefficient matrix), the real frame is c^{-1} and the dual
coframe b = (inverse transpose of c^{-1}) = c^T: the coframe rows are
exactly the Gell-Mann components of the translated differential,

    (dD) D^-1 = i sum_l omega^l lam_l,    omega^l = sum_k b_lk dx_k  (left)
    D^-1 (dD) = i sum_l omega^l lam_l                               (right)

so <omega^l, X_i> = delta on the nose.  As with the frames, a literal
transcription of the hand-derived closed-form tables is provided alongside
and diffed against the constructive route by verify.py.

Rows = form index 1..8; columns = differentials in the coordinate order
(dalpha, dbeta, dgamma, dtheta, da, db, dc, dphi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euler import _as_angle_array
from .gellmann import SQRT3
from .tangent_frames import check_interior, maurer_cartan_coefficients


@dataclass(frozen=True)
class CoFrameMatrix:
    """One-form coefficients; rows = form index, columns = differentials."""

    entries: np.ndarray


def _constructive_coframe(x, chirality):
    check_interior(x)
    c = maurer_cartan_coefficients(x, chirality).real
    return CoFrameMatrix(entries=np.swapaxes(c, -1, -2))


def left_coframe(x):
    """Constructive left coframe, dual to the real left frame; (8,) or (n, 8)."""
    return _constructive_coframe(x, "left")


def right_coframe(x):
    """Constructive right coframe, dual to the real right frame; (8,) or (n, 8)."""
    return _constructive_coframe(x, "right")


# ---------------------------------------------------------------------------
# Closed-form tables
# ---------------------------------------------------------------------------


def _half_shifted(theta):
    """The recurring factor (1 - sin^2(theta)/2)."""
    return 1.0 - 0.5 * math.sin(theta) ** 2


def _left_form_table(x):
    alpha, beta, gamma, theta, a, b, _c, _phi = x
    B = np.zeros((8, 8))
    c2alpha, s2alpha = math.cos(2 * alpha), math.sin(2 * alpha)
    c2beta, s2beta = math.cos(2 * beta), math.sin(2 * beta)
    cbeta, sbeta = math.cos(beta), math.sin(beta)
    ct, st = math.cos(theta), math.sin(theta)
    s2theta = math.sin(2 * theta)
    st2 = st ** 2
    h = _half_shifted(theta)
    c2b, s2b = math.cos(2 * b), math.sin(2 * b)
    p2 = 2 * a + 2 * gamma
    apg, amg = alpha + gamma, alpha - gamma
    w4 = 2 * a - alpha + gamma
    w6 = 2 * a + alpha + gamma

    B[0, 1] = s2alpha
    B[0, 2] = -c2alpha * s2beta
    B[0, 4] = -c2alpha * s2beta * h
    B[0, 5] = math.cos(p2) * ct * s2alpha + c2alpha * c2beta * ct * math.sin(p2)
    B[0, 6] = (-c2alpha * c2beta * math.cos(p2) * ct * s2b
               + ct * s2alpha * s2b * math.sin(p2)
               - c2alpha * c2b * s2beta * h)
    B[0, 7] = (SQRT3 / 2) * c2alpha * s2beta * st2

    B[1, 1] = c2alpha
    B[1, 2] = s2alpha * s2beta
    B[1, 4] = s2alpha * s2beta * h
    B[1, 5] = c2alpha * math.cos(p2) * ct - c2beta * ct * s2alpha * math.sin(p2)
    B[1, 6] = (c2beta * math.cos(p2) * ct * s2alpha * s2b
               + c2alpha * ct * s2b * math.sin(p2)
               + c2b * s2alpha * s2beta * h)
    B[1, 7] = -(SQRT3 / 2) * s2alpha * s2beta * st2

    B[2, 0] = 1.0
    B[2, 2] = c2beta
    B[2, 4] = c2beta * h
    B[2, 5] = ct * s2beta * math.sin(p2)
    B[2, 6] = -math.cos(p2) * ct * s2b * s2beta + c2b * c2beta * h
    # the transcribed source carries an extra factor 1/2 on this term
    B[2, 7] = -(SQRT3 / 2) * c2beta * 0.5 * st2

    B[3, 3] = cbeta * math.sin(apg)
    B[3, 4] = -0.5 * cbeta * math.cos(apg) * s2theta
    B[3, 5] = -sbeta * math.sin(w4) * st
    B[3, 6] = math.cos(w4) * s2b * sbeta * st - 0.5 * c2b * cbeta * math.cos(apg) * s2theta
    B[3, 7] = -(SQRT3 / 2) * cbeta * math.cos(apg) * s2theta

    B[4, 3] = cbeta * math.cos(apg)
    B[4, 4] = 0.5 * cbeta * math.sin(apg) * s2theta
    B[4, 5] = math.cos(w4) * sbeta * st
    B[4, 6] = s2b * sbeta * math.sin(w4) * st + 0.5 * c2b * cbeta * math.sin(apg) * s2theta
    B[4, 7] = (SQRT3 / 2) * cbeta * math.sin(apg) * s2theta

    B[5, 3] = sbeta * math.sin(amg)
    B[5, 5] = -cbeta * math.sin(w6) * st
    B[5, 4] = 0.5 * math.cos(amg) * sbeta * s2theta
    B[5, 7] = (SQRT3 / 2) * math.cos(amg) * sbeta * s2theta
    B[5, 6] = cbeta * math.cos(w6) * s2b * st + 0.5 * c2b * math.cos(amg) * sbeta * s2theta

    B[6, 3] = -math.cos(amg) * sbeta
    B[6, 4] = 0.5 * sbeta * math.sin(amg) * s2theta
    B[6, 5] = cbeta * math.cos(w6) * st
    B[6, 6] = cbeta * s2b * math.sin(w6) * st + 0.5 * c2b * sbeta * math.sin(amg) * s2theta
    B[6, 7] = (SQRT3 / 2) * sbeta * math.sin(amg) * s2theta

    B[7, 4] = -(SQRT3 / 2) * st2
    B[7, 6] = -(SQRT3 / 2) * c2b * st2
    B[7, 7] = 1.0 - 1.5 * st2

    return B


def _right_form_table(x):
    _alpha, beta, gamma, theta, a, b, c, phi = x
    eta = phi / SQRT3
    B = np.zeros((8, 8))
    c2beta, s2beta = math.cos(2 * beta), math.sin(2 * beta)
    ct, st = math.cos(theta), math.sin(theta)
    s2theta = math.sin(2 * theta)
    st2 = st ** 2
    h = _half_shifted(theta)
    c2b, s2b = math.cos(2 * b), math.sin(2 * b)
    cb, sb = math.cos(b), math.sin(b)
    c2c, s2c = math.cos(2 * c), math.sin(2 * c)
    p2 = 2 * a + 2 * gamma
    amc = a - c + 2 * gamma - 3 * eta
    apc = a + c + 3 * eta
    amc0 = a - c + 3 * eta
    apc2g = a + c + 2 * gamma - 3 * eta

    B[0, 0] = (-c2b * c2c * math.cos(p2) * ct * s2beta
               + ct * s2beta * s2c * math.sin(p2)
               - c2beta * c2c * s2b * h)
    B[0, 1] = -c2c * s2b * h
    B[0, 2] = math.cos(p2) * ct * s2c + c2b * c2c * ct * math.sin(p2)
    B[0, 3] = -c2c * s2b * h
    B[0, 5] = s2c

    B[1, 0] = (c2b * math.cos(p2) * ct * s2beta * s2c
               + c2c * ct * s2beta * math.sin(p2)
               + c2beta * s2b * s2c * h)
    B[1, 1] = s2b * s2c * h
    B[1, 2] = c2c * math.cos(p2) * ct - c2b * ct * s2c * math.sin(p2)
    B[1, 3] = s2b * s2c * h
    B[1, 5] = c2c

    B[2, 0] = -math.cos(p2) * ct * s2b * s2beta + c2b * c2beta * h
    B[2, 1] = c2b * h
    B[2, 2] = ct * s2b * math.sin(p2)
    B[2, 3] = c2b * h
    B[2, 6] = 1.0

    B[3, 0] = math.cos(amc) * sb * s2beta * st - 0.5 * cb * c2beta * math.cos(apc) * s2theta
    B[3, 1] = -0.5 * cb * math.cos(apc) * s2theta
    B[3, 2] = -sb * st * math.sin(amc)
    B[3, 3] = -0.5 * cb * math.cos(apc) * s2theta
    B[3, 4] = cb * math.sin(apc)

    B[4, 0] = sb * s2beta * st * math.sin(amc) + 0.5 * cb * c2beta * s2theta * math.sin(apc)
    B[4, 1] = 0.5 * cb * s2theta * math.sin(apc)
    B[4, 2] = math.cos(amc) * sb * st
    B[4, 3] = 0.5 * cb * s2theta * math.sin(apc)
    B[4, 4] = cb * math.cos(apc)

    B[5, 0] = cb * math.cos(apc2g) * s2beta * st + 0.5 * c2beta * math.cos(amc0) * sb * s2theta
    B[5, 1] = 0.5 * math.cos(amc0) * sb * s2theta
    B[5, 2] = cb * st * math.sin(apc2g)
    B[5, 3] = 0.5 * math.cos(amc0) * sb * s2theta
    B[5, 4] = -sb * math.sin(amc0)

    B[6, 0] = cb * s2beta * st * math.sin(apc2g) - 0.5 * c2beta * sb * s2theta * math.sin(amc0)
    B[6, 1] = -0.5 * sb * s2theta * math.sin(amc0)
    B[6, 2] = -cb * math.cos(apc2g) * st
    B[6, 3] = -0.5 * sb * s2theta * math.sin(amc0)
    B[6, 4] = -math.cos(amc0) * sb

    B[7, 0] = -(SQRT3 / 2) * c2beta * st2
    B[7, 1] = -(SQRT3 / 2) * st2
    B[7, 3] = -(SQRT3 / 2) * st2
    B[7, 7] = 1.0

    return B


def left_coframe_closed(x):
    """Transcribed closed-form left coframe (diffed against the constructive)."""
    x = _as_angle_array(x)
    return CoFrameMatrix(entries=_left_form_table(x))


def right_coframe_closed(x):
    """Transcribed closed-form right coframe (diffed against the constructive)."""
    x = _as_angle_array(x)
    return CoFrameMatrix(entries=_right_form_table(x))
