"""Euler-angle parameterization of SU(3).

Every element factors as an ordered product of one-parameter subgroups,

    D(alpha, beta, gamma, theta, a, b, c, phi) =
        R3(alpha) R2(beta) R3(gamma) R5(theta) R3(a) R2(b) R3(c) R8(phi),

where Rk(t) = exp(i lam_k t).  The two R3-R2-R3 groups are SU(2) Euler
factors embedded in the upper-left block, R5 rotates the (1,3) plane and R8
is the diagonal hypercharge phase with period 2*sqrt(3)*pi.

The product collapses to K1 R5(theta) K2 R8(phi): two SU(2) blocks
[[x, y], [-conj(y), conj(x)]] with x = cos(beta) e^{i(alpha+gamma)} and
y = sin(beta) e^{i(alpha-gamma)} (and the same in a, b, c), one real
rotation and one diagonal phase, so each of the nine entries has a short
closed form; ``compose_many`` evaluates it, and ``compose`` keeps the
ordered product of ``factors`` as the reference.

The parameterization covers the group exactly once on the box

    alpha, a, c in [0, pi),  gamma in [0, 2 pi),
    beta, b, theta in [0, pi/2],  phi in [0, 2 sqrt(3) pi).

Restricting gamma to [0, pi) or phi to [0, 2 pi) — the ranges one might
naively read off the SU(2) analogy — provably leaves half, respectively an
irrational fraction, of the group unreachable; see haar.py for the measure
consequences.  ``decompose`` flags results that land in the extended parts
of the gamma and phi ranges; within about 1e-12 of a gimbal lock (beta, b or
theta at 0 or pi/2) its residual can reach a few 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gellmann import LAMBDA, SQRT3

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


def _as_angle_points(x):
    """EulerAngles, (8,) or (n, 8) finite angles as a float array."""
    x = x.as_array() if isinstance(x, EulerAngles) else np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 8:
        raise ValueError(f"expected (8,) or (n, 8) angles, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite")
    return x


def _as_angle_array(x):
    """EulerAngles or (8,) finite angles of one point as a float array."""
    x = _as_angle_points(x)
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


#: Row k keeps the angles before k (prefix) or from k on (suffix).
_PREFIX = np.tril(np.ones((8, 8)), -1)
_SUFFIX = np.triu(np.ones((8, 8)))

#: lam_g for the generator g of each factor, in order.
_GENERATORS = LAMBDA[np.array(GENERATOR_SLOTS) - 1]


def _partial_products(x, mask):
    """Row k of ``mask`` picks the factors of product k: (..., 8) -> (..., 8, 3, 3).

    A factor at angle 0 is the identity, so zeroing the other angles leaves
    the ordered product of the picked factors, which ``compose_many`` fills
    in closed form.
    """
    return compose_many((x[..., None, :] * mask).reshape(-1, 8)).reshape(
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


def compose(x):
    """Group element for the given angles (total over all finite angles)."""
    F = factors(x)
    U = F[0]
    for Fk in F[1:]:
        U = U @ Fk
    return U


def compose_many(xs):
    """Vectorized ``compose``: (n, 8) angles -> (n, 3, 3) elements.

    The product collapses to K1 R5(theta) K2 R8(phi) with SU(2) blocks
    K1 = [[x1, y1], [-conj(y1), conj(x1)]] and K2 likewise from (x2, y2),
    where x1 = cos(beta) e^{i(alpha+gamma)}, y1 = sin(beta) e^{i(alpha-gamma)}
    and x2, y2 the same in (a, b, c).  With ct, st = cos, sin(theta) and
    e = e^{i phi/sqrt3}, every entry is filled in closed form:

        [(x1 ct x2 - y1 y2*) e,      (x1 ct y2 + y1 x2*) e,      x1 st e^-2]
        [-(y1* ct x2 + x1* y2*) e,   (x1* x2* - y1* ct y2) e,    -y1* st e^-2]
        [-st x2 e,                   -st y2 e,                   ct e^-2]

    (z* is the complex conjugate).  ``compose`` is the reference product.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 8:
        raise ValueError(f"expected (n, 8) angles, got shape {xs.shape}")
    alpha, beta, gamma, theta, a, b, c, phi = xs.T
    x1 = np.cos(beta) * np.exp(1j * (alpha + gamma))
    y1 = np.sin(beta) * np.exp(1j * (alpha - gamma))
    x2 = np.cos(b) * np.exp(1j * (a + c))
    y2 = np.sin(b) * np.exp(1j * (a - c))
    ct, st = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi / SQRT3)
    e2 = e ** -2
    x1c, y1c = np.conj(x1), np.conj(y1)
    U = np.empty((len(xs), 3, 3), dtype=complex)
    U[:, 0, 0] = (x1 * ct * x2 - y1 * np.conj(y2)) * e
    U[:, 0, 1] = (x1 * ct * y2 + y1 * np.conj(x2)) * e
    U[:, 0, 2] = x1 * st * e2
    U[:, 1, 0] = -(y1c * ct * x2 + x1c * np.conj(y2)) * e
    U[:, 1, 1] = (x1c * np.conj(x2) - y1c * ct * y2) * e
    U[:, 1, 2] = -y1c * st * e2
    U[:, 2, 0] = -st * x2 * e
    U[:, 2, 1] = -st * y2 * e
    U[:, 2, 2] = ct * e2
    return U


def _as_group_elements(U):
    """(3, 3) or (n, 3, 3) matrices as a complex array."""
    U = np.asarray(U, dtype=complex)
    if U.ndim not in (2, 3) or U.shape[-2:] != (3, 3):
        raise ValueError(f"expected (3, 3) or (n, 3, 3) matrices, got shape {U.shape}")
    return U


def unitarity_defect(U):
    """Frobenius norms of (U+U - I, det U - 1), the largest over a stack, as a pair."""
    U = np.asarray(U, dtype=complex)
    du = np.linalg.norm(np.swapaxes(U.conj(), -1, -2) @ U - np.eye(3), axis=(-2, -1))
    dd = np.abs(np.linalg.det(U) - 1.0)
    return float(du.max(initial=0.0)), float(dd.max(initial=0.0))


def ensure_group_element(U, tol=1e-12):
    """Validate that U is finite and special unitary to within ``tol``.

    U is one (3, 3) element or an (n, 3, 3) stack; returns it as an ndarray.
    """
    U = _as_group_elements(U)
    if not np.isfinite(U).all():
        raise ValueError("matrix entries must be finite")
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
        p = cmath.phase(x) % (2 * math.pi)
        alpha = p % math.pi
        gamma = (p - alpha) % (2 * math.pi)  # 0 or pi
        return alpha, beta, gamma
    if abs(x) < _GIMBAL:
        q = cmath.phase(y)
        alpha = q % math.pi
        gamma = (alpha - q) % (2 * math.pi)  # 0 or pi
        return alpha, beta, gamma
    p, q = cmath.phase(x), cmath.phase(y)
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
    (u11, u12, u13), _, (u31, u32, u33) = U.tolist()
    ct = min(abs(u33), 1.0)
    # |U31|^2 + |U32|^2 = sin^2(theta) exactly (row unitarity), which keeps
    # theta accurate where cos(theta) saturates at 1.
    st = math.hypot(abs(u31), abs(u32))
    theta = math.atan2(st, ct)
    psi = cmath.phase(u33)
    # u33 = cos(theta) e^{-2 i phi / sqrt(3)} fixes phi modulo sqrt(3) pi.
    # Take the lower lift and let c run over [0, 2 pi); _fold_into_box then
    # trades a half-turn of c for the upper lift, an exact symmetry of the
    # product, so no phase has to be rounded to pick the lift.
    phi = (-SQRT3 / 2.0 * psi) % (SQRT3 * math.pi)
    e8bar = cmath.exp(-1j * phi / SQRT3)

    if st < _THETA_FOLD:
        # R5 factor is the identity: the SU(2) factors merge.  Fold a=b=c=0
        # and take the principal phi; gamma absorbs the leftover half-turn.
        al, be, ga = _su2_angles_free_gamma(u11 * e8bar, u12 * e8bar)
        return np.array([al, be, ga, theta, 0.0, 0.0, 0.0, phi])
    a, b, c = _su2_angles_free_gamma(-u31 * e8bar / st, -u32 * e8bar / st)
    # First row of K1 = U R8(phi)^dag K2^dag R5(theta)^dag, with (x2, y2) the
    # first row of K2 and r the first row of U R8(phi)^dag.
    x2 = math.cos(b) * cmath.exp(1j * (a + c))
    y2 = math.sin(b) * cmath.exp(1j * (a - c))
    e8 = e8bar.conjugate()
    r0, r1, r2 = u11 * e8bar, u12 * e8bar, u13 * e8 * e8
    k0 = ((r0 * x2.conjugate() + r1 * y2.conjugate()) * math.cos(theta)
          + r2 * math.sin(theta))
    k1 = r1 * x2 - r0 * y2
    al, be, ga = _su2_angles_free_gamma(k0, k1)
    return np.array([al, be, ga, theta, a, b, c, phi])


def decompose(U, full_output=False):
    """Invert ``compose``: canonical angles with compose(angles) ~ U.

    The angles are read off U in closed form and folded into the canonical
    box.  Away from chart boundaries the residual ||compose(angles) - U||_F
    is at roundoff level; within about 1e-12 of a gimbal lock (beta, b or
    theta at 0 or pi/2) it can reach a few 1e-12.  A residual above 1e-9
    raises DecompositionError rather than returning silently.  U is one
    (3, 3) element; a stack raises ValueError.

    With ``full_output=True`` returns a :class:`DecompositionReport`, which
    flags representatives that need gamma >= pi or phi >= 2 pi (half of the
    group needs the former; the flat phi fraction needs the latter).
    """
    U = ensure_group_element(U)
    if U.shape != (3, 3):
        raise ValueError(f"decompose takes one (3, 3) element, got shape {U.shape}")
    x = _fold_into_box(_analytic_decompose(U))
    residual = float(np.linalg.norm(compose(x) - U))
    if residual > 1e-9:
        raise DecompositionError(
            f"factorization residual {residual:.3e} exceeds 1e-9")
    angles = EulerAngles.from_array(x)
    if not full_output:
        return angles
    return DecompositionReport(
        angles=angles,
        residual=residual,
        gamma_extended=bool(angles.gamma >= math.pi),
        phi_extended=bool(angles.phi >= 2 * math.pi),
    )


def _fold_into_box(x):
    """Fold angles into the canonical box by exact product symmetries only.

    Applied to every extraction, which leaves c in [0, 2 pi) and, where a
    phase sits exactly on a branch cut, alpha or a at pi or gamma at 2 pi.
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


def canonicalize(x):
    """Canonical-box representative with the same group element.

    Exact lattice moves (2 pi periodicity, paired half-turns, the c/phi
    coupling) are tried first; if they cannot reach the box — e.g. beta
    outside [0, pi/2] — the result falls back to decompose(compose(x)),
    which changes the element by at most the decompose residual.
    """
    arr = _as_angle_array(x)
    folded = _fold_into_box(arr)
    cand = EulerAngles.from_array(folded)
    if (cand.is_canonical()
            and np.linalg.norm(compose(folded) - compose(arr)) <= 1e-12):
        return cand
    return decompose(compose(arr))
