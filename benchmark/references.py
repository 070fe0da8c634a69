"""Reference computations that do not use su3geom.

The benchmark checks su3geom's outputs against these.  Nothing here
imports su3geom: the Gell-Mann matrices are written out, the Euler
product is a product of ``scipy.linalg.expm`` factors, and Haar elements
come from the QR construction of F. Mezzadri (Notices AMS 54, 2007).

Run ``python3 benchmark/references.py`` for the self-tests (a few seconds).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

SQRT3 = math.sqrt(3.0)

#: lambda_1 .. lambda_8 (index 0 .. 7), normalized tr(lam_i lam_j) = 2 delta_ij.
GELL_MANN = np.array([
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    [[1 / SQRT3, 0, 0], [0, 1 / SQRT3, 0], [0, 0, -2 / SQRT3]],
], dtype=complex)

#: Generator index k of each factor exp(i lam_k t) of the Euler product.
SLOTS = (3, 2, 3, 5, 3, 2, 3, 8)

PHI_PERIOD = 2.0 * SQRT3 * math.pi

#: The box that covers SU(3) exactly once, as (lo, hi) per angle.
COVER_BOX = ((0.0, math.pi), (0.0, math.pi / 2), (0.0, 2 * math.pi),
             (0.0, math.pi / 2), (0.0, math.pi), (0.0, math.pi / 2),
             (0.0, math.pi), (0.0, PHI_PERIOD))

#: Haar volume of the stated box and of the exact-cover box.
VOLUME_STATED = math.pi ** 5
VOLUME_COVER = 2.0 * SQRT3 * math.pi ** 5


def factor(k, t):
    """exp(i lam_k t) by the general matrix exponential."""
    return expm(1j * t * GELL_MANN[k - 1])


def euler_factors(x):
    return [factor(k, t) for k, t in zip(SLOTS, x)]


def euler_product(x):
    """D(x) = prod_k exp(i lam_{SLOTS[k]} x_k)."""
    out = np.eye(3, dtype=complex)
    for f in euler_factors(x):
        out = out @ f
    return out


def euler_partials_fd(x, h=1e-3):
    """dD/dx_k for k = 0..7 by fourth-order central differences, (8, 3, 3).

    Only the k-th factor of the product moves, so the prefix and suffix
    products are formed once and the difference is taken on that factor.
    """
    fs = euler_factors(x)
    pre = [np.eye(3, dtype=complex)]
    for f in fs:
        pre.append(pre[-1] @ f)
    suf = [np.eye(3, dtype=complex)]
    for f in reversed(fs):
        suf.insert(0, f @ suf[0])
    out = np.empty((8, 3, 3), dtype=complex)
    for k, (slot, t) in enumerate(zip(SLOTS, x)):
        dk = (-factor(slot, t + 2 * h) + 8 * factor(slot, t + h)
              - 8 * factor(slot, t - h) + factor(slot, t - 2 * h)) / (12 * h)
        out[k] = pre[k] @ dk @ suf[k + 1]
    return out


def adjoint_reference(U):
    """R_ij = tr(lam_i U lam_j U^dag) / 2."""
    return np.einsum("iab,bc,jcd,da->ij", GELL_MANN, U, GELL_MANN,
                     U.conj().T).real / 2.0


def qr_haar_su3(n, rng):
    """n Haar-random SU(3) elements by QR of complex Gaussian matrices.

    The phase fix on the diagonal of R makes Q Haar on U(3); dividing by a
    cube root of det Q projects to SU(3), and the branch choice is a centre
    element, which leaves the Haar measure unchanged.
    """
    z = (rng.standard_normal((n, 3, 3))
         + 1j * rng.standard_normal((n, 3, 3))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("nii->ni", r)
    q = q * (d / np.abs(d))[:, None, :]
    return q / (np.linalg.det(q) ** (1.0 / 3.0))[:, None, None]


def real_rotations(n, rng):
    """n Haar-random SO(3) rotations as complex 3x3 arrays."""
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q.astype(complex)


def signed_permutations():
    """The 24 signed permutation matrices with determinant +1."""
    out = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for signs in np.ndindex(2, 2, 2):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = -1.0 if s else 1.0
            if np.linalg.det(m) > 0:
                out.append(m.astype(complex))
    return out


def haar_interior_angles(n, rng, margin):
    """n Haar-distributed angle rows on the exact-cover box, conditioned
    on beta, b, theta lying at least ``margin`` inside [0, pi/2].

    Inverse CDFs of the separable density: sin(2t) for beta and b
    (CDF sin^2 t), sin(2t) sin^2(t) for theta (CDF sin^4 t).
    """
    lo, hi = margin, math.pi / 2 - margin
    u = rng.random((n, 8))
    x = np.empty((n, 8))
    for k in (0, 2, 4, 6, 7):
        a, b = COVER_BOX[k]
        x[:, k] = a + (b - a) * u[:, k]
    for k, power in ((1, 2), (3, 4), (5, 2)):
        f_lo, f_hi = math.sin(lo) ** power, math.sin(hi) ** power
        x[:, k] = np.arcsin((f_lo + (f_hi - f_lo) * u[:, k]) ** (1.0 / power))
    return x


def in_cover_box(x):
    """True if the angle row lies in the exact-cover box.

    beta, b and theta range over closed intervals, the flat angles over
    half-open ones.
    """
    for k, (lo, hi) in enumerate(COVER_BOX):
        if x[k] < lo or x[k] > hi or (k not in (1, 3, 5) and x[k] == hi):
            return False
    return True


class CheckFailed(AssertionError):
    """A check failed; the message names it."""


def require(ok, name, detail=""):
    """Raise CheckFailed naming the check unless ``ok``."""
    if not ok:
        raise CheckFailed(f"{name}: {detail}" if detail else name)


def selftest():
    """Check the references against known values; raise CheckFailed."""
    lam = GELL_MANN
    gram = np.einsum("iab,jba->ij", lam, lam)
    require(np.allclose(gram, 2 * np.eye(8), atol=1e-15), "Gell-Mann normalization")
    require(np.allclose(lam, lam.conj().transpose(0, 2, 1)), "Gell-Mann hermiticity")
    require(np.allclose(lam[0] @ lam[1] - lam[1] @ lam[0], 2j * lam[2]),
            "[lam_1, lam_2] = 2i lam_3")
    require(np.allclose(factor(5, math.pi / 2), [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
                        atol=1e-15), "expm(i lam_5 pi/2)")
    t = 0.7
    e8 = np.exp(1j * t / SQRT3)
    require(np.allclose(factor(8, t), np.diag([e8, e8, e8 ** -2]), atol=1e-15),
            "expm(i lam_8 t)")
    require(np.allclose(factor(3, t), np.diag([np.exp(1j * t), np.exp(-1j * t), 1]),
                        atol=1e-15), "expm(i lam_3 t)")

    rng = np.random.default_rng(1)
    x = haar_interior_angles(4, rng, margin=0.1)
    require(all(in_cover_box(row) for row in x), "interior angles in the box")
    require(np.all((x[:, [1, 3, 5]] >= 0.1) & (x[:, [1, 3, 5]] <= math.pi / 2 - 0.1)),
            "interior angles keep the margin")
    D = euler_product(x[0])
    require(np.allclose(D.conj().T @ D, np.eye(3), atol=1e-14), "D unitary")
    require(abs(np.linalg.det(D) - 1) < 1e-14, "det D = 1")
    # the first factor is R3(alpha), so dD/dalpha = i lam_3 D exactly
    dD = euler_partials_fd(x[0])
    require(np.allclose(dD[0], 1j * lam[2] @ D, atol=1e-11), "finite differences")

    us = qr_haar_su3(20000, rng)
    defect = np.abs(np.einsum("nji,njk->nik", us.conj(), us) - np.eye(3)).max()
    require(defect < 1e-13, "QR sampler unitary")
    require(np.abs(np.linalg.det(us) - 1).max() < 1e-13, "QR sampler det 1")
    m2 = np.abs(us[:, 0, 0]) ** 2
    require(abs(m2.mean() - 1 / 3) < 4 * m2.std() / math.sqrt(len(m2)),
            "QR sampler E|U_11|^2 = 1/3")
    tr = np.einsum("nii->n", us)
    require(abs(tr.mean()) < 4 * tr.std() / math.sqrt(len(tr)), "QR sampler E tr U = 0")

    rs = real_rotations(1000, rng)
    require(np.all(rs.imag == 0), "rotations real")
    require(np.abs(np.einsum("nji,njk->nik", rs, rs) - np.eye(3)).max() < 1e-13,
            "rotations orthogonal")
    require(np.abs(np.linalg.det(rs) - 1).max() < 1e-13, "rotations det 1")
    require(len(signed_permutations()) == 24, "signed permutations")

    R = adjoint_reference(us[0])
    require(np.allclose(R @ R.T, np.eye(8), atol=1e-13), "adjoint orthogonal")
    require(np.allclose(adjoint_reference(np.eye(3)), np.eye(8)), "adjoint of 1")


if __name__ == "__main__":
    selftest()
    print("references: self-tests passed")
