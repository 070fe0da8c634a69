import numpy as np
import pytest


def qr_haar_su3(n, seed):
    """Reference Haar sampler via QR of a complex Gaussian matrix.

    Independent of the Euler-angle machinery under test: the R-diagonal
    phase fix makes the QR factor Haar on U(3), and dividing by a cube
    root of the determinant projects to SU(3) (a center element absorbs
    the branch choice, which leaves Haar invariant).
    """
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))
    Q, R = np.linalg.qr(Z / np.sqrt(2.0))
    d = np.einsum("nii->ni", R)
    Q = Q * (d / np.abs(d))[:, None, :]
    det = np.linalg.det(Q)
    return Q / (det ** (1.0 / 3.0))[:, None, None]


def gauss_legendre_volume(ranges, nodes=48):
    """The density integral by a full per-axis Gauss-Legendre product.

    A reference for ``haar.group_volume`` that shares no code with it: the
    nodes lie in the raw angles, with the density factors in the weights.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    factors = {1: lambda x: np.sin(2 * x), 5: lambda x: np.sin(2 * x),
               3: lambda x: np.sin(2 * x) * np.sin(x) ** 2}
    vol = 1.0
    for dim, (lo, hi) in enumerate(ranges.as_tuples()):
        x = lo + (hi - lo) * (t + 1) / 2
        vol *= float(np.sum(w * (hi - lo) / 2 * factors.get(dim, np.ones_like)(x)))
    return vol


def expm_series(M, terms=80):
    """Plain exponential power series, summed to convergence."""
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
        if np.linalg.norm(term) < 1e-18 * max(np.linalg.norm(out), 1.0):
            break
    return out


@pytest.fixture(scope="session")
def interior_points():
    from su3geom.verify import haar_interior_points

    return haar_interior_points(100, seed=2024)
