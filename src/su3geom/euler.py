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
closed form; ``compose_many`` evaluates it on (n,) rows and ``compose`` on
Python numbers, and the ordered product of the ``factor_exponential``
matrices is the reference the tests check it against.  Every cosine and
sine in it comes from one ``np.tan`` of the eight half angles (see
``compose_many``): numpy vectorizes ``tan``, while its ``cos``, ``sin`` and
complex ``exp`` run per element.

An ``AngleRanges`` is a box of eight coordinate intervals.  Three matter:

``RANGES_STATED``
    alpha, gamma, a, c in [0, pi); beta, b, theta in [0, pi/2];
    phi in [0, 2 pi).  The ranges one might write down from the SU(2)
    analogy and a sphere-volume argument.  Integrating the Haar density
    over them gives pi^5 — but the box does NOT tile the group: the phi
    factor has period 2 sqrt(3) pi, and the (alpha, gamma) pair only
    reaches half of its SU(2) subgroup, so half, respectively an
    irrational fraction, of the group is unreachable.  Averaging over it
    is measurably biased (``test_samples_over_stated_ranges_are_biased``:
    Haar samples restricted to it give |E[tr U]| = 0.0717, se 0.0042).

``RANGES_COVER``
    Same but gamma in [0, 2 pi) and phi in [0, 2 sqrt(3) pi); density
    integral 2 sqrt(3) pi^5.  Covers the group exactly once, up to a null
    set: ``decompose`` puts every element in it, ``is_canonical`` tests
    membership (flat axes half-open, weighted axes closed), and its
    coframe volume sqrt(3) pi^5 is the Riemannian volume of SU(3)
    (Macdonald, Invent. Math. 56 (1980) 93); ``verify`` checks both.  The
    sampler and all normalized integrals use this box.

``RANGES_QUAD``
    All four flat SU(2) phases widened to [0, 2 pi), phi the full period.
    Covers the group uniformly eight times (the constant cancels in
    normalized integrals) and makes every flat coordinate a full circle,
    so midpoint nodes integrate its harmonics exactly.  The box of
    ``haar.integrate_quadrature``.

``decompose`` flags results with gamma or phi past the stated box; within
1e-6 of a gimbal lock (beta, b or theta at 0 or pi/2) its residual
reached 2.46e-12 on 3000 test elements.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gellmann import SQRT3

#: Full period of the R8(phi) factor.
PHI_PERIOD = 2.0 * SQRT3 * math.pi

#: Coordinate names in canonical order (partials and differentials use it).
COORD_NAMES = ("alpha", "beta", "gamma", "theta", "a", "b", "c", "phi")

#: Generator index of each factor of the product, in order.
GENERATOR_SLOTS = (3, 2, 3, 5, 3, 2, 3, 8)

#: Weighted coordinate -> p: with s = sin^2 x, beta and b carry sin(2x) dx = ds
#: and theta sin(2x) sin^2(x) dx = s ds, so each carries s^p ds; the rest none.
_SIN2_POWER = {1: 0, 3: 1, 5: 0}
#: Natural period of each flat coordinate.
_FLAT_PERIOD = {0: 2 * math.pi, 2: 2 * math.pi, 4: 2 * math.pi, 6: 2 * math.pi, 7: PHI_PERIOD}


@dataclass(frozen=True)
class AngleRanges:
    """Per-angle interval bounds (lo, hi), in the canonical coordinate order.

    Raises ValueError unless every bound is finite, lo < hi, and beta, theta
    and b lie in [0, pi/2], where sin(2x) >= 0 and s = sin^2 x is monotone.
    Defaults are the stated ranges (see module docstring); use
    ``RANGES_COVER`` for anything that must be Haar-faithful.
    """

    alpha: tuple = (0.0, math.pi)
    beta: tuple = (0.0, math.pi / 2)
    gamma: tuple = (0.0, math.pi)
    theta: tuple = (0.0, math.pi / 2)
    a: tuple = (0.0, math.pi)
    b: tuple = (0.0, math.pi / 2)
    c: tuple = (0.0, math.pi)
    phi: tuple = (0.0, 2 * math.pi)

    def __post_init__(self):
        for dim, (lo, hi) in enumerate(self.as_tuples()):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{COORD_NAMES[dim]} range ({lo}, {hi}) needs finite lo < hi")
            if dim in _SIN2_POWER and not 0.0 <= lo < hi <= math.pi / 2:
                raise ValueError(f"{COORD_NAMES[dim]} range ({lo}, {hi}) exceeds [0, pi/2]")

    def as_tuples(self):
        return (self.alpha, self.beta, self.gamma, self.theta,
                self.a, self.b, self.c, self.phi)


RANGES_STATED = AngleRanges()
RANGES_COVER = AngleRanges(gamma=(0.0, 2 * math.pi), phi=(0.0, PHI_PERIOD))
RANGES_QUAD = AngleRanges(alpha=(0.0, 2 * math.pi), gamma=(0.0, 2 * math.pi),
                          a=(0.0, 2 * math.pi), c=(0.0, 2 * math.pi),
                          phi=(0.0, PHI_PERIOD))


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

    def is_canonical(self):
        """True if inside ``RANGES_COVER``: flat axes half-open, weighted axes closed."""
        return all(lo <= v < hi or v == hi and dim in _SIN2_POWER
                   for dim, (v, (lo, hi)) in enumerate(zip(self.as_array(),
                                                           RANGES_COVER.as_tuples())))


@dataclass(frozen=True)
class DecompositionReport:
    """Angles plus diagnostics from ``decompose``."""

    angles: EulerAngles
    residual: float
    gamma_extended: bool  # gamma landed above RANGES_STATED, in [pi, 2 pi)
    phi_extended: bool    # phi landed above RANGES_STATED, in [2 pi, 2 sqrt(3) pi)


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


def _closed_form(x):
    """The closed form of ``compose_many`` on (8,) or (n, 8) angles: a
    C-contiguous (3, 3) element, or an (n, 3, 3) view of an entry-major
    (3, 3, n) array, so no entry is written or read through a stride."""
    # one point unpacks its angles, phases and theta rotation as Python
    # numbers, which round like numpy scalars but skip numpy's dispatch
    one = x.ndim == 1
    alpha, beta, gamma, theta, a, b, c, phi = x.tolist() if one else x.T
    # the arguments u: the phases alpha +- gamma, a +- c and phi / sqrt3,
    # then the rotations beta, b and theta.  Stacked by hand: a matmul with
    # the 8 x 8 map goes to BLAS, whose own threads contend with the worker
    # threads of haar.integrate_mc.
    t = np.array([alpha + gamma, alpha - gamma, a + c, a - c, phi / SQRT3,
                  beta, b, theta])
    t *= 0.5
    # cos u = w - 1 and sin u = t w, with t = tan(u / 2) and w = 2 / (1 + t^2)
    np.tan(t, out=t)
    w = t * t
    w += 1.0
    np.divide(2.0, w, out=w)
    t *= w
    w -= 1.0
    cos, sin = w, t
    p = np.empty((5,) + cos.shape[1:], dtype=complex)
    p.real, p.imag = cos[:5], sin[:5]
    p[0] *= cos[5]
    p[1] *= sin[5]
    p[2] *= cos[6]
    p[3] *= sin[6]
    x1, y1, x2, y2, e = p.tolist() if one else p
    ct, st = (cos[7].item(), sin[7].item()) if one else (cos[7], sin[7])
    e2 = (e * e).conjugate()
    x1c, y1c = x1.conjugate(), y1.conjugate()
    # entry-major: each E[a, b] is one contiguous (n,) row
    E = np.empty((3, 3) + x.shape[:-1], dtype=complex)
    E[0, 0] = (x1 * ct * x2 - y1 * y2.conjugate()) * e
    E[0, 1] = (x1 * ct * y2 + y1 * x2.conjugate()) * e
    E[0, 2] = x1 * st * e2
    E[1, 0] = -(y1c * ct * x2 + x1c * y2.conjugate()) * e
    E[1, 1] = (x1c * x2.conjugate() - y1c * ct * y2) * e
    E[1, 2] = -y1c * st * e2
    E[2, 0] = -st * x2 * e
    E[2, 1] = -st * y2 * e
    E[2, 2] = ct * e2
    return E if one else E.transpose(2, 0, 1)


def compose(x):
    """Group element for the given angles (total over all finite angles)."""
    return _closed_form(_as_angle_array(x))


def compose_many(xs):
    """Vectorized ``compose``: (n, 8) finite angles -> (n, 3, 3) elements.

    The elements are an entry-major view: each ``U[:, a, b]`` is a
    contiguous (n,) row and ``U.reshape(n, 9).T`` a C-contiguous (9, n)
    array, for any layout of ``xs``; ``U[i]`` is a strided (3, 3) view,
    and ``np.ascontiguousarray`` gives C order.  Its angle columns
    ``xs.T`` are contiguous rows when ``xs`` comes from ``sample_angles``.

    The product collapses to K1 R5(theta) K2 R8(phi) with SU(2) blocks
    K1 = [[x1, y1], [-conj(y1), conj(x1)]] and K2 likewise from (x2, y2),
    where x1 = cos(beta) e^{i(alpha+gamma)}, y1 = sin(beta) e^{i(alpha-gamma)}
    and x2, y2 the same in (a, b, c).  With ct, st = cos, sin(theta) and
    e = e^{i phi/sqrt3}, every entry is filled in closed form:

        [(x1 ct x2 - y1 y2*) e,      (x1 ct y2 + y1 x2*) e,      x1 st e^-2]
        [-(y1* ct x2 + x1* y2*) e,   (x1* x2* - y1* ct y2) e,    -y1* st e^-2]
        [-st x2 e,                   -st y2 e,                   ct e^-2]

    (z* is the complex conjugate).  ``compose`` evaluates it on Python
    numbers, which may round the last bit differently (numpy fuses the
    complex products of its array loops); the ordered product of the
    ``factor_exponential`` matrices is the reference.

    The cosines and sines of the eight arguments alpha +- gamma, a +- c,
    phi/sqrt3, beta, b and theta come from t = tan(u/2) alone: with
    w = 2 / (1 + t^2), cos u = w - 1 and sin u = t w, and e^-2 is
    conj(e e).  The identities hold at the poles of tan too, where |t|
    reaches about 1e16 and w - 1 rounds to -1; on 120 000 arguments up to
    1e300 in size each value was within 3.4e-16 of ``math.cos`` and
    ``math.sin``.  The reason is speed: on a 2-core AVX-512 Xeon with numpy
    2.4.6, ``np.tan`` takes 2.8 ns an element against 20-23 ns for
    ``np.cos`` or ``np.sin`` and 45 ns for a complex ``np.exp``, and
    ``e ** -2`` 26 ns against 1.5 ns for ``conj(e e)``, so an 8192-row
    block costs 1.5 ms instead of 4.2 ms.  Where numpy's ``tan`` is not
    vectorized it still costs one call per argument instead of two.
    """
    xs = _as_angle_points(xs)
    if xs.ndim != 2:
        raise ValueError(f"expected (n, 8) angles, got shape {xs.shape}")
    return _closed_form(xs)


def _as_group_elements(U):
    """(3, 3) or (n, 3, 3) matrices as a complex array."""
    U = np.asarray(U, dtype=complex)
    if U.ndim not in (2, 3) or U.shape[-2:] != (3, 3):
        raise ValueError(f"expected (3, 3) or (n, 3, 3) matrices, got shape {U.shape}")
    return U


def unitarity_defect(U):
    """Frobenius norms of (U+U - I, det U - 1) of one (3, 3) element, or
    the largest over an (n, 3, 3) stack ((0.0, 0.0) if empty), as floats.
    One real formula over the entries: Python floats for one element, (n,)
    rows for a stack (numpy fuses complex products and Python does not)."""
    U = _as_group_elements(U)
    one = U.ndim == 2
    # U_aj = x[j][a] + i y[j][a], column by column
    x, y = ((U.real.T.tolist(), U.imag.T.tolist()) if one else
            (U.real.transpose(2, 1, 0), U.imag.transpose(2, 1, 0)))
    # ||G - I||^2 for the Gram matrix G = U+U, Hermitian: pairs j < k count twice
    du2 = 0.0
    for j, k in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = x[j], y[j], x[k], y[k]
        re = a0 * c0 + b0 * d0 + a1 * c1 + b1 * d1 + a2 * c2 + b2 * d2 - (j == k)
        im = a0 * d0 - b0 * c0 + a1 * d1 - b1 * c1 + a2 * d2 - b2 * c2
        du2 = du2 + (1 + (j != k)) * (re * re + im * im)
    # det U - 1 along column 0: the cofactor of U_k0 is U_p1 U_q2 - U_q1 U_p2
    a, b, c, d = x[1], y[1], x[2], y[2]
    re, im = -1.0, 0.0
    for k, p, q in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        cr = a[p] * c[q] - b[p] * d[q] - a[q] * c[p] + b[q] * d[p]
        ci = a[p] * d[q] + b[p] * c[q] - a[q] * d[p] - b[q] * c[p]
        re, im = re + x[0][k] * cr - y[0][k] * ci, im + x[0][k] * ci + y[0][k] * cr
    du, dd = du2 ** 0.5, (re * re + im * im) ** 0.5
    if one:
        return du, dd
    return float(du.max(initial=0.0)), float(dd.max(initial=0.0))


def ensure_group_element(U):
    """Validate that U is finite and special unitary to within 1e-12.

    U is one (3, 3) element or an (n, 3, 3) stack; returns it as an ndarray.
    The one gate of ``decompose`` and ``tangent_frames.adjoint_matrix``.
    """
    U = _as_group_elements(U)
    if not np.isfinite(U).all():
        raise ValueError("matrix entries must be finite")
    du, dd = unitarity_defect(U)
    if du > 1e-12:
        raise ValueError(f"matrix is not unitary: ||U+U - I|| = {du:.3e} > 1.0e-12")
    if dd > 1e-12:
        raise ValueError(f"det U != 1: |det U - 1| = {dd:.3e} > 1.0e-12")
    return U


# ---------------------------------------------------------------------------
# Inverse factorization
# ---------------------------------------------------------------------------

# Magnitudes below this are an exact gimbal lock: an SU(2) row then defines
# only its phase sum or difference, and at sin(theta) below it R5 is the
# identity and a, b, c are set to 0.  Elsewhere the generic formulas hold;
# extraction noise in the K2 row re-enters the product times sin(theta).
_GIMBAL = 1e-12


def _su2_angles_free_gamma(x, y):
    """Euler angles of SU(2) row (x, y), with the parity pushed into gamma.

    Solves x = cos(beta) e^{i(alpha+gamma)}, y = sin(beta) e^{i(alpha-gamma)}
    for alpha in [0, pi), beta in [0, pi/2], gamma in [0, 2 pi).  With
    p = arg x and q = arg y, alpha = ((p + q) / 2) mod pi and
    gamma = (p - alpha) mod 2 pi: then 2 alpha = p + q (mod 2 pi), so
    alpha + gamma = p and alpha - gamma = 2 alpha - p = q.  At a gimbal lock
    the vanishing entry has no phase and takes the other one's, so p - alpha
    is a multiple of pi and gamma is 0 or pi.
    """
    p = cmath.phase(y if abs(x) < _GIMBAL else x)
    q = p if abs(y) < _GIMBAL else cmath.phase(y)
    alpha = ((p + q) / 2.0) % math.pi
    return alpha, math.atan2(abs(y), abs(x)), (p - alpha) % (2 * math.pi)


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
    # At theta = 0 the SU(2) factors merge: K2 is the identity and K1 takes
    # the whole upper-left block.
    a, b, c = ((0.0, 0.0, 0.0) if st < _GIMBAL else
               _su2_angles_free_gamma(-u31 * e8bar / st, -u32 * e8bar / st))
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
    return [al, be, ga, theta, a, b, c, phi]


def decompose(U, full_output=False):
    """Invert ``compose``: canonical angles with compose(angles) ~ U.

    The angles are read off U in closed form and folded into the canonical
    box.  Away from chart boundaries the residual ||compose(angles) - U||_F
    is at roundoff level; within 1e-6 of a gimbal lock (beta, b or theta
    at 0 or pi/2) it reached 2.46e-12 on 3000 test elements.  Above 1e-9 it
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
    # angles read off a validated U are finite: compose's checks are skipped
    residual = float(np.linalg.norm(_closed_form(np.array(x)) - U))
    if residual > 1e-9:
        raise DecompositionError(
            f"factorization residual {residual:.3e} exceeds 1e-9")
    angles = EulerAngles(*x)
    if not full_output:
        return angles
    return DecompositionReport(
        angles=angles,
        residual=residual,
        gamma_extended=bool(angles.gamma >= RANGES_STATED.gamma[1]),
        phi_extended=bool(angles.phi >= RANGES_STATED.phi[1]),
    )


def _fold_into_box(x):
    """Fold a list of angles into ``RANGES_COVER`` by exact product symmetries only.

    Applied to every extraction, which leaves c in [0, 2 pi) and, where a
    phase sits exactly on a branch cut, alpha or a at pi or gamma at 2 pi.
    Extraction keeps beta, b and theta in [0, pi/2] (each is an atan2 of
    non-negative values); the clamps of those outside by under 1e-9 serve
    ``canonicalize``, whose input may cross an edge by roundoff and would
    otherwise fall back to ``decompose``, which moves the angles.
    """
    # Python floats round like float64 scalars and cost less per operation
    x = list(x)
    box = RANGES_COVER.as_tuples()
    for k, period in _FLAT_PERIOD.items():
        x[k] %= period
    # beta/b/theta: tiny crossings of an edge are roundoff
    for k in _SIN2_POWER:
        lo, hi = box[k]
        if lo - 1e-9 < x[k] < lo:
            x[k] = lo
        if hi < x[k] < hi + 1e-9:
            x[k] = hi
    # a half-turn of alpha, a or c pairs with half a period of gamma, c or phi
    for k, partner in ((0, 2), (4, 6), (6, 7)):
        if x[k] >= box[k][1]:
            x[k] -= _FLAT_PERIOD[k] / 2
            x[partner] = (x[partner] + _FLAT_PERIOD[partner] / 2) % _FLAT_PERIOD[partner]
    return x


def canonicalize(x):
    """Canonical-box representative with the same group element.

    Exact lattice moves (2 pi periodicity, paired half-turns, the c/phi
    coupling) are tried first; if they cannot reach the box — e.g. beta
    outside [0, pi/2] — the result falls back to decompose(compose(x)),
    which changes the element by at most the decompose residual.
    """
    arr = _as_angle_array(x)
    folded = _fold_into_box(arr.tolist())
    cand = EulerAngles(*folded)
    if (cand.is_canonical()
            and np.linalg.norm(compose(folded) - compose(arr)) <= 1e-12):
        return cand
    return decompose(compose(arr))
