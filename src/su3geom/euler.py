"""Euler-angle parameterization of SU(3).

Every element factors as an ordered product of one-parameter subgroups,

    D(alpha, beta, gamma, theta, a, b, c, phi) =
        R3(alpha) R2(beta) R3(gamma) R5(theta) R3(a) R2(b) R3(c) R8(phi),

where Rk(t) = exp(i lam_k t).  The two R3-R2-R3 groups are SU(2) Euler
factors embedded in the upper-left block, R5 rotates the (1,3) plane and R8
is the diagonal hypercharge phase with period 2*sqrt(3)*pi.

The parameterization covers the group exactly once on the box

    alpha, a, c in [0, pi),  gamma in [0, 2 pi),
    beta, b, theta in [0, pi/2],  phi in [0, 2 sqrt(3) pi).

Restricting gamma to [0, pi) or phi to [0, 2 pi) — the ranges one might
naively read off the SU(2) analogy — provably leaves half, respectively an
irrational fraction, of the group unreachable; see haar.py for the measure
consequences.  ``decompose`` flags results that land in the extended parts
of the gamma and phi ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gellmann import SQRT3, gell_mann_matrix

#: Full period of the R8(phi) factor.
PHI_PERIOD = 2.0 * SQRT3 * math.pi

#: Coordinate names in canonical order (partials and differentials use it).
COORD_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")

#: Generator index of each factor of the product, in order.
GENERATOR_SLOTS = (3, 2, 3, 5, 3, 2, 3, 8)


class DecompositionError(RuntimeError):
    """Raised when factorization cannot reach the required residual."""


@dataclass(frozen=True)
class EulerAngles:
    """The eight coordinates of the factorization, in radians."""

    alpha: float
    beta: float
    gamma: float
    theta: float
    a: float
    b: float
    c: float
    phi: float

    @property
    def eta(self):
        """Derived hypercharge angle eta = phi / sqrt(3)."""
        return self.phi / SQRT3

    def as_array(self):
        return np.array(
            [self.alpha, self.beta, self.gamma, self.theta,
             self.a, self.b, self.c, self.phi]
        )

    @classmethod
    def from_array(cls, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (8,):
            raise ValueError(f"expected 8 angles, got shape {x.shape}")
        return cls(*x)

    def is_canonical(self, tol=0.0):
        """True if inside the exact-cover box (gamma < 2pi, phi < full period)."""
        al, be, ga, th, a, b, c, ph = self.as_array()
        half = [al, a, c]
        quarter = [be, b, th]
        return (
            all(-tol <= v < math.pi + tol for v in half)
            and all(-tol <= v <= math.pi / 2 + tol for v in quarter)
            and -tol <= ga < 2 * math.pi + tol
            and -tol <= ph < PHI_PERIOD + tol
        )


@dataclass(frozen=True)
class DecompositionReport:
    """Angles plus diagnostics from ``decompose``."""

    angles: EulerAngles
    residual: float
    gamma_extended: bool  # gamma landed in [pi, 2 pi)
    phi_extended: bool    # phi landed in [2 pi, 2 sqrt(3) pi)
    polished: bool


def _as_angle_array(x):
    if isinstance(x, EulerAngles):
        return x.as_array()
    x = np.asarray(x, dtype=float)
    if x.shape != (8,):
        raise ValueError(f"expected 8 angles, got shape {x.shape}")
    return x


def factor_exponential(generator, t):
    """Closed form of exp(i lam_g t) for the factor generators g in {2,3,5,8}.

    Each generator exponentiates to a phase pair or a planar rotation; no
    general matrix exponential is involved.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"angle must be finite, got {t!r}")
    c, s = math.cos(t), math.sin(t)
    if generator == 3:
        return np.diag([np.exp(1j * t), np.exp(-1j * t), 1.0])
    if generator == 2:
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    if generator == 5:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], dtype=complex)
    if generator == 8:
        ph = np.exp(1j * t / SQRT3)
        return np.diag([ph, ph, ph ** -2])
    raise ValueError(f"no closed-form factor for generator index {generator!r}")


def factors(x):
    """The eight factor matrices of the product, in order."""
    x = _as_angle_array(x)
    return [factor_exponential(g, t) for g, t in zip(GENERATOR_SLOTS, x)]


def partial_derivatives(x):
    """Exact dD/dx_k for all eight coordinates, stacked (8, 3, 3).

    The derivative of the ordered product inserts i*generator at the
    differentiated factor; prefix/suffix products make this one pass.
    """
    F = factors(x)
    pre = [np.eye(3, dtype=complex)]
    for Fk in F:
        pre.append(pre[-1] @ Fk)
    suf = [np.eye(3, dtype=complex)]
    for Fk in reversed(F):
        suf.insert(0, Fk @ suf[0])
    out = np.empty((8, 3, 3), dtype=complex)
    for k in range(8):
        # suf[k] starts with the k-th factor, which commutes with its own
        # generator, so d/dx_k inserts i*lam in front of it.
        out[k] = pre[k] @ (1j * gell_mann_matrix(GENERATOR_SLOTS[k])) @ suf[k]
    return out


def compose(x):
    """Group element for the given angles (total over all finite angles)."""
    F = factors(x)
    U = F[0]
    for Fk in F[1:]:
        U = U @ Fk
    return U


def compose_many(xs):
    """Vectorized ``compose``: (n, 8) angles -> (n, 3, 3) elements."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 8:
        raise ValueError(f"expected (n, 8) angles, got shape {xs.shape}")
    n = xs.shape[0]
    U = _vec_r3(xs[:, 0])
    for k in range(1, 8):
        g = GENERATOR_SLOTS[k]
        t = xs[:, k]
        if g == 3:
            F = _vec_r3(t)
        elif g == 2:
            F = _vec_r2(t)
        elif g == 5:
            F = _vec_r5(t)
        else:
            F = _vec_r8(t)
        U = U @ F
    return U


def _vec_r3(t):
    out = np.zeros((len(t), 3, 3), dtype=complex)
    out[:, 0, 0] = np.exp(1j * t)
    out[:, 1, 1] = np.exp(-1j * t)
    out[:, 2, 2] = 1.0
    return out


def _vec_r2(t):
    out = np.zeros((len(t), 3, 3), dtype=complex)
    c, s = np.cos(t), np.sin(t)
    out[:, 0, 0] = c
    out[:, 0, 1] = s
    out[:, 1, 0] = -s
    out[:, 1, 1] = c
    out[:, 2, 2] = 1.0
    return out


def _vec_r5(t):
    out = np.zeros((len(t), 3, 3), dtype=complex)
    c, s = np.cos(t), np.sin(t)
    out[:, 0, 0] = c
    out[:, 0, 2] = s
    out[:, 1, 1] = 1.0
    out[:, 2, 0] = -s
    out[:, 2, 2] = c
    return out


def _vec_r8(t):
    out = np.zeros((len(t), 3, 3), dtype=complex)
    ph = np.exp(1j * t / SQRT3)
    out[:, 0, 0] = ph
    out[:, 1, 1] = ph
    out[:, 2, 2] = ph ** -2
    return out


def su2_subelement(alpha, beta, gamma):
    """R3(alpha) R2(beta) R3(gamma): an SU(2) element in the upper-left block."""
    x = np.cos(beta) * np.exp(1j * (alpha + gamma))
    y = np.sin(beta) * np.exp(1j * (alpha - gamma))
    return _block(x, y)


def _block(x, y):
    """Embed the SU(2) matrix [[x, y], [-conj(y), conj(x)]] into SU(3)."""
    return np.array(
        [[x, y, 0.0], [-np.conj(y), np.conj(x), 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )


def unitarity_defect(U):
    """Frobenius norms of (U+U - I, det U - 1) as a pair."""
    U = np.asarray(U, dtype=complex)
    return (
        float(np.linalg.norm(U.conj().T @ U - np.eye(3))),
        float(abs(np.linalg.det(U) - 1.0)),
    )


def ensure_group_element(U, tol=1e-12):
    """Validate that U is special unitary to within ``tol``; return it as ndarray."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {U.shape}")
    du, dd = unitarity_defect(U)
    if du > tol:
        raise ValueError(f"matrix is not unitary: ||U+U - I|| = {du:.3e} > {tol:.1e}")
    if dd > tol:
        raise ValueError(f"det U != 1: |det U - 1| = {dd:.3e} > {tol:.1e}")
    return U


# ---------------------------------------------------------------------------
# Inverse factorization
# ---------------------------------------------------------------------------

# Below this |sin(theta)| the R5 factor is treated as the identity and the
# two SU(2) factors merge (the a, b, c angles are folded away).  The generic
# branch stays accurate well below 1e-9 because extraction noise in the K2
# row re-enters the product suppressed by sin(theta); only a near-exact zero
# needs the fold.
_THETA_FOLD = 1e-12
# Magnitudes below this are treated as an exact gimbal lock in the SU(2)
# extractions (only the phase sum or difference is defined).
_GIMBAL = 1e-12


def _su2_angles_free_gamma(x, y):
    """Euler angles of SU(2) row (x, y), with the parity pushed into gamma.

    Solves x = cos(beta) e^{i(alpha+gamma)}, y = sin(beta) e^{i(alpha-gamma)}
    for alpha in [0, pi), beta in [0, pi/2], gamma in [0, 2 pi).  The pair
    (alpha, gamma) is defined modulo simultaneous half-turns; the canonical
    representative always exists because gamma runs over the full circle.
    """
    beta = math.atan2(abs(y), abs(x))
    if abs(y) < _GIMBAL:
        p = np.angle(x) % (2 * math.pi)
        alpha = p % math.pi
        gamma = (p - alpha) % (2 * math.pi)  # 0 or pi
        return alpha, beta, gamma
    if abs(x) < _GIMBAL:
        q = float(np.angle(y))
        alpha = q % math.pi
        gamma = (alpha - q) % (2 * math.pi)  # 0 or pi
        return alpha, beta, gamma
    p, q = float(np.angle(x)), float(np.angle(y))
    araw, graw = (p + q) / 2.0, (p - q) / 2.0
    alpha = araw % math.pi
    r = round((araw - alpha) / math.pi)
    gamma = graw % math.pi
    s = round((graw - gamma) / math.pi)
    if (r - s) % 2:
        gamma += math.pi
    return alpha, beta, gamma


def _analytic_decompose(U):
    """Closed-form angle extraction; assumes U is special unitary.

    The result can sit outside the canonical box by exact symmetries
    (alpha or a at pi, c in [pi, 2 pi)); ``_fold_into_box`` moves it in.
    """
    u33 = U[2, 2]
    ct = min(abs(u33), 1.0)
    # |U31|^2 + |U32|^2 = sin^2(theta) exactly (row unitarity), which keeps
    # theta accurate where cos(theta) saturates at 1.
    st = math.hypot(abs(U[2, 0]), abs(U[2, 1]))
    theta = math.atan2(st, ct)
    psi = float(np.angle(u33))
    # u33 = cos(theta) e^{-2 i phi / sqrt(3)} fixes phi modulo sqrt(3) pi.
    # Take the lower lift and let c run over [0, 2 pi); _fold_into_box then
    # trades a half-turn of c for the upper lift, an exact symmetry of the
    # product, so no phase has to be rounded to pick the lift.
    phi = (-SQRT3 / 2.0 * psi) % (SQRT3 * math.pi)

    if st < _THETA_FOLD:
        # R5 factor is the identity: the SU(2) factors merge.  Fold a=b=c=0
        # and take the principal phi; gamma absorbs the leftover half-turn.
        V = U[:2, :2] * np.exp(-1j * phi / SQRT3)
        al, be, ga = _su2_angles_free_gamma(V[0, 0], V[0, 1])
        return np.array([al, be, ga, theta, 0.0, 0.0, 0.0, phi])
    e8bar = np.exp(-1j * phi / SQRT3)
    a, b, c = _su2_angles_free_gamma(-U[2, 0] * e8bar / st, -U[2, 1] * e8bar / st)
    K2 = _block(np.cos(b) * np.exp(1j * (a + c)), np.sin(b) * np.exp(1j * (a - c)))
    E8 = factor_exponential(8, phi)
    E5 = factor_exponential(5, theta)
    K1 = U @ E8.conj().T @ K2.conj().T @ E5.conj().T
    al, be, ga = _su2_angles_free_gamma(K1[0, 0], K1[0, 1])
    return np.array([al, be, ga, theta, a, b, c, phi])


def _gauss_newton_polish(x, U):
    """One damped Gauss-Newton step on || compose(x) - U ||_F^2."""
    r = compose(x) - U
    r0 = np.linalg.norm(r)
    if r0 == 0.0:
        return x, 0.0, False
    J = partial_derivatives(x).reshape(8, 9).T  # d(entries)/d(angles)
    Jr = np.concatenate([J.real, J.imag])
    rr = np.concatenate([r.reshape(9).real, r.reshape(9).imag])
    step, *_ = np.linalg.lstsq(Jr, -rr, rcond=1e-12)
    for damp in (1.0, 0.5, 0.25):
        cand = x + damp * step
        rc = np.linalg.norm(compose(cand) - U)
        if rc < r0:
            return cand, rc, True
    return x, r0, False


def decompose(U, tol=1e-9, full_output=False):
    """Invert ``compose``: canonical angles with compose(angles) ~ U.

    The analytic extraction is exact away from chart boundaries; a damped
    Gauss-Newton polish absorbs floating-point drift near them.  A residual
    above ``tol`` raises DecompositionError rather than returning silently.

    With ``full_output=True`` returns a :class:`DecompositionReport`, which
    flags representatives that need gamma >= pi or phi >= 2 pi (half of the
    group needs the former; the flat phi fraction needs the latter).
    """
    U = ensure_group_element(U)
    x = _fold_into_box(_analytic_decompose(U))
    residual = float(np.linalg.norm(compose(x) - U))
    polished = False
    if residual > 1e-12:
        x, residual, polished = _gauss_newton_polish(x, U)
        x = _fold_into_box(x)
        residual = float(np.linalg.norm(compose(x) - U))
    if residual > tol:
        raise DecompositionError(
            f"factorization residual {residual:.3e} exceeds {tol:.1e}"
        )
    angles = EulerAngles.from_array(x)
    if not full_output:
        return angles
    return DecompositionReport(
        angles=angles,
        residual=residual,
        gamma_extended=bool(angles.gamma >= math.pi),
        phi_extended=bool(angles.phi >= 2 * math.pi),
        polished=polished,
    )


def _fold_into_box(x):
    """Fold angles into the canonical box by exact product symmetries only.

    Applied to every extraction, which leaves c in [0, 2 pi) and, where a
    phase sits exactly on a branch cut, alpha or a at pi or gamma at 2 pi;
    the unconstrained Gauss-Newton step can also leave the box by an exact
    symmetry amount.
    Angles that are outside by less than 1e-9 (boundary roundoff) are
    clamped.
    """
    x = np.array(x, dtype=float)
    TWO_PI = 2 * math.pi
    # exact periodicity
    for k in (0, 2, 4, 6):
        x[k] %= TWO_PI
    x[7] %= PHI_PERIOD
    # beta/b/theta: tiny negatives or overshoots are roundoff
    for k in (1, 3, 5):
        if -1e-9 < x[k] < 0.0:
            x[k] = 0.0
        if math.pi / 2 < x[k] < math.pi / 2 + 1e-9:
            x[k] = math.pi / 2
    # (alpha, gamma) and (a, c) admit simultaneous half-turns
    if x[0] >= math.pi:
        x[0] -= math.pi
        x[2] = (x[2] + math.pi) % TWO_PI
    if x[4] >= math.pi:
        x[4] -= math.pi
        x[6] = (x[6] + math.pi) % TWO_PI
    # (c, phi): a half-turn in c pairs with a half-period shift of phi
    if x[6] >= math.pi:
        x[6] -= math.pi
        x[7] = (x[7] + SQRT3 * math.pi) % PHI_PERIOD
    return x


def canonicalize(x, tol=1e-12):
    """Canonical-box representative with the same group element.

    Exact lattice moves (2 pi periodicity, paired half-turns, the c/phi
    coupling) are tried first; if they cannot reach the box — e.g. beta
    outside [0, pi/2] — the result falls back to decompose(compose(x)),
    which changes the element by at most the decompose residual.
    """
    arr = _as_angle_array(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angles must be finite")
    folded = _fold_into_box(arr)
    cand = EulerAngles.from_array(folded)
    if cand.is_canonical() and np.linalg.norm(compose(folded) - compose(arr)) <= tol:
        return cand
    return decompose(compose(arr))
