"""Haar measure in the Euler coordinates: density, sampling, integration.

The invariant volume element factorizes over the coordinates,

    dV = sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta)
         dalpha dbeta dgamma dtheta da db dc dphi,

so exact inverse-CDF sampling and separable quadrature weights are
available.  Three range boxes matter:

``RANGES_STATED``
    alpha, gamma, a, c in [0, pi); beta, b, theta in [0, pi/2];
    phi in [0, 2 pi).  The ranges one might write down from the SU(2)
    analogy and a sphere-volume argument.  Integrating the density over
    them gives pi^5 — but the box does NOT tile the group: the phi factor
    has period 2 sqrt(3) pi, and the (alpha, gamma) pair only reaches half
    of its SU(2) subgroup.  Sampling it is measurably non-uniform
    (E[tr U] comes out ~0.068 instead of 0).

``RANGES_COVER``
    Same but gamma in [0, 2 pi) and phi in [0, 2 sqrt(3) pi).  Covers the
    group exactly once (verified against QR-decomposition Haar sampling);
    density integral 2 sqrt(3) pi^5.  The sampler and all normalized
    integrals use this box.

``RANGES_QUAD``
    All four flat SU(2) phases widened to [0, 2 pi), phi the full period.
    Covers the group uniformly eight times (the constant cancels in
    normalized integrals) and makes every flat coordinate a full circle,
    so periodic quadrature nodes are spectrally accurate.  Default box for
    ``quadrature_mean``, the one product-rule grid loop, and its wrapper
    ``integrate_quadrature``.  The grid streams through one chunk at a
    time, so memory stays flat; ``NODE_CAP`` bounds the run time.

Both integrators average functions on the group, not on the chart: the
integrand maps an (m, 3, 3) stack of sampled or composed elements to (m,).

All randomness comes from one counter-based (Philox) stream keyed by the
seed: results are a deterministic function of (seed, n), and a shorter run
draws a prefix of a longer one.  Derived streams take ``sub_seed(seed, k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .euler import EulerAngles, PHI_PERIOD, _as_group_elements, compose_many
from .invariant_forms import left_coframe

_PI = math.pi
_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class AngleRanges:
    """Per-angle interval bounds (lo, hi), in the canonical coordinate order.

    Defaults are the stated ranges (see module docstring); use
    ``RANGES_COVER`` for anything that must be Haar-faithful.
    """

    alpha: tuple = (0.0, _PI)
    beta: tuple = (0.0, _HALF_PI)
    gamma: tuple = (0.0, _PI)
    theta: tuple = (0.0, _HALF_PI)
    a: tuple = (0.0, _PI)
    b: tuple = (0.0, _HALF_PI)
    c: tuple = (0.0, _PI)
    phi: tuple = (0.0, 2 * _PI)

    def as_tuples(self):
        return (self.alpha, self.beta, self.gamma, self.theta,
                self.a, self.b, self.c, self.phi)


RANGES_STATED = AngleRanges()
RANGES_COVER = AngleRanges(gamma=(0.0, 2 * _PI), phi=(0.0, PHI_PERIOD))
RANGES_QUAD = AngleRanges(alpha=(0.0, 2 * _PI), gamma=(0.0, 2 * _PI),
                          a=(0.0, 2 * _PI), c=(0.0, 2 * _PI),
                          phi=(0.0, PHI_PERIOD))

#: Which coordinates carry a density factor ('flat' ones carry none).
_WEIGHTED = {1: "sin2", 3: "sin2sq", 5: "sin2"}
#: Natural period of each flat coordinate.
_FLAT_PERIOD = {0: 2 * _PI, 2: 2 * _PI, 4: 2 * _PI, 6: 2 * _PI, 7: PHI_PERIOD}


def density(x):
    """Unnormalized Haar weight sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta).

    Accepts EulerAngles, an 8-vector, or an (n, 8) batch.
    """
    if isinstance(x, EulerAngles):
        x = x.as_array()
    x = np.asarray(x, dtype=float)
    beta, theta, b = x[..., 1], x[..., 3], x[..., 5]
    return np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * np.sin(theta) ** 2


def density_from_coframe(x):
    """|det| of the left coframe: the volume density measured intrinsically.

    Equals ``density(x) / 2`` at every interior point (the closed form is
    normalized differently by a constant factor); the constancy of the
    ratio — not its value — is the meaningful check, and the right coframe
    gives the same constant (unimodularity).  Accepts (8,) or (n, 8).
    """
    return np.abs(np.linalg.det(left_coframe(x).entries))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _stream(seed):
    """The one Philox stream behind every draw made with this seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(sub_seed(seed, 0))))


def sub_seed(seed, k):
    """The k-th stream seed derived from a valid seed, wrapped into [0, 2^64)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return (seed + k) % 2 ** 64


def _angles_from_uniform(u):
    """Inverse CDFs of the separable density over RANGES_COVER."""
    x = np.empty_like(u)
    x[:, 0] = _PI * u[:, 0]
    x[:, 1] = np.arcsin(np.sqrt(u[:, 1]))          # density sin(2 beta), CDF sin^2
    x[:, 2] = 2 * _PI * u[:, 2]
    x[:, 3] = np.arcsin(u[:, 3] ** 0.25)           # density sin(2t) sin^2(t), CDF sin^4
    x[:, 4] = _PI * u[:, 4]
    x[:, 5] = np.arcsin(np.sqrt(u[:, 5]))
    x[:, 6] = _PI * u[:, 6]
    x[:, 7] = PHI_PERIOD * u[:, 7]
    return x


def sample_angles(n, seed):
    """(n, 8) i.i.d. Haar angles; deterministic in (seed, n).

    Rows come in order from one stream, so ``sample_angles(k, seed)`` is
    the first k rows of ``sample_angles(n, seed)`` for every k <= n.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n = {n}")
    return _angles_from_uniform(_stream(seed).random((n, 8)))


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrationResult:
    estimate: complex
    std_error: Optional[float]
    n: int
    method: str


_CHUNK = 131072


def mc_moments(f, n, seed):
    """Sample mean and standard error of f over n Haar-distributed elements.

    The elements are ``compose_many(sample_angles(n, seed))``, drawn and
    composed ``_CHUNK`` rows at a time; ``f`` maps each (m, 3, 3) stack to
    an array of shape (m,) or (m, ...), and both moments are summed over
    axis 0.  The standard error is the sample standard deviation of f over
    sqrt(n), entry by entry.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n = {n}")
    rng = _stream(seed)
    total = total_sq = 0.0
    for start in range(0, n, _CHUNK):
        xs = _angles_from_uniform(rng.random((min(_CHUNK, n - start), 8)))
        vals = np.asarray(f(compose_many(xs)))
        total = total + vals.sum(axis=0)
        total_sq = total_sq + (np.abs(vals) ** 2).sum(axis=0)
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0) / n)


def _complex_values(vals, m):
    """An integrand's values for m elements as a complex (m,) array."""
    vals = np.asarray(vals, dtype=complex)
    if vals.shape != (m,):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({m},)")
    return vals


def integrate_mc(f, n, seed, *, vectorized=True):
    """Haar average of f over n sampled group elements.

    ``f`` maps an (m, 3, 3) stack of elements to (m,) values.  Samples
    already follow the Haar density, so the plain mean over the stream of
    ``mc_moments`` is the normalized integral; ``std_error`` is the sample
    standard deviation of f over sqrt(n).
    """
    # vectorized stays only because benchmark/workloads.py passes it
    if not vectorized:
        raise ValueError("vectorized=False is not supported: f takes (m, 3, 3) stacks")
    if n < 2:
        raise ValueError(f"need n >= 2 for an error estimate, got {n}")
    mean, se = mc_moments(lambda us: _complex_values(f(us), len(us)), n, seed)
    return IntegrationResult(estimate=complex(mean), std_error=float(se),
                             n=n, method="mc")


#: Cap on the total quadrature grid size, set by run time: 8 nodes per axis
#: take about 12 s on two cores.  Memory does not grow with the grid.
NODE_CAP = 8 ** 8


def _gauss_legendre_axis(dim, lo, hi, glx, glw):
    """Gauss-Legendre nodes on [lo, hi], with the axis' density factor
    (if any) folded into the weights."""
    x = (hi - lo) / 2 * glx + (hi + lo) / 2
    w = glw * (hi - lo) / 2
    if _WEIGHTED.get(dim) == "sin2":
        w = w * np.sin(2 * x)
    elif _WEIGHTED.get(dim) == "sin2sq":
        w = w * np.sin(2 * x) * np.sin(x) ** 2
    return x, w


def _quad_axis(dim, lo, hi, nodes, glx, glw):
    """Nodes and density-folded weights for one coordinate axis.

    Weighted coordinates (beta, b, theta) always use Gauss-Legendre with
    the density factor folded into the weights.  Flat coordinates use
    periodic midpoint nodes when the range is a whole number of natural
    periods (spectrally exact for trigonometric integrands); otherwise
    they fall back to Gauss-Legendre.
    """
    if dim in _WEIGHTED:
        return _gauss_legendre_axis(dim, lo, hi, glx, glw)
    period = _FLAT_PERIOD[dim]
    span = hi - lo
    if abs(span / period - round(span / period)) < 1e-12 and span > 0:
        if dim == 7 and nodes % 3 == 0:
            # A uniform phi grid with 3 | nodes is blind to the lowest
            # nonvanishing phi harmonic of quartic class functions (the
            # e^{+-2 i sqrt(3) phi} terms alias onto the mean and shift
            # <adj,adj> by ~0.5); step off the resonance.
            nodes = nodes + 1
        x = lo + (np.arange(nodes) + 0.5) * span / nodes
        w = np.full(nodes, span / nodes)
        return x, w
    return _gauss_legendre_axis(dim, lo, hi, glx, glw)


def quadrature_mean(f, nodes_per_dim, ranges=None):
    """Haar average of f by a separable product rule with the density weight.

    ``f`` maps an (m, 3, 3) stack of group elements to values of shape
    (m,) or (m, ...); every trailing entry is averaged with the same
    weights, so several integrands share one pass over the grid.  The grid
    is walked in C order, ``_CHUNK`` nodes at a time, each block decoded
    from the per-axis node tables and composed once by ``compose_many``.
    The sum is normalized by the same rule applied to f == 1, so any
    constant covering multiplicity of the range box cancels.  Default box
    is ``RANGES_QUAD``.  Returns ``(mean, n_nodes)``.
    """
    if nodes_per_dim < 2:
        raise ValueError(f"need at least 2 nodes per dimension, got {nodes_per_dim}")
    if ranges is None:
        ranges = RANGES_QUAD
    glx, glw = np.polynomial.legendre.leggauss(nodes_per_dim)
    xs, ws = zip(*(_quad_axis(dim, lo, hi, nodes_per_dim, glx, glw)
                   for dim, (lo, hi) in enumerate(ranges.as_tuples())))
    shape = tuple(len(x) for x in xs)
    total_nodes = math.prod(shape)
    if total_nodes > NODE_CAP:
        raise ValueError(f"grid of {total_nodes} nodes exceeds the cap {NODE_CAP}")
    acc = w_sum = 0.0
    for start in range(0, total_nodes, _CHUNK):
        stop = min(start + _CHUNK, total_nodes)
        idx = np.unravel_index(np.arange(start, stop), shape)
        X = np.stack([x[i] for x, i in zip(xs, idx)], axis=1)
        W = np.prod(np.stack([w[i] for w, i in zip(ws, idx)], axis=1), axis=1)
        vals = np.asarray(f(compose_many(X)))
        # C order makes each entry's terms contiguous, so numpy sums them
        # pairwise exactly as it sums that entry's (m,) values alone
        terms = np.multiply(W, np.moveaxis(vals, 0, -1), order="C")
        acc = acc + terms.sum(axis=-1)
        w_sum += W.sum()
    return acc / w_sum, total_nodes


def integrate_quadrature(f, nodes_per_dim):
    """Haar average of a complex f by ``quadrature_mean`` over ``RANGES_QUAD``.

    ``f`` maps an (m, 3, 3) stack of group elements to (m,) values.
    """
    mean, n_nodes = quadrature_mean(
        lambda us: _complex_values(f(us), len(us)), nodes_per_dim)
    return IntegrationResult(estimate=complex(mean), std_error=None,
                             n=n_nodes, method="quadrature")


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------


def _axis_volume(dim, lo, hi):
    """Exact integral of this axis' density factor over [lo, hi]."""
    if dim in (1, 5):  # sin(2t) -> [-cos(2t)/2]
        return (math.cos(2 * lo) - math.cos(2 * hi)) / 2.0
    if dim == 3:       # sin(2t) sin^2(t) -> [sin^4(t)/2]
        return (math.sin(hi) ** 4 - math.sin(lo) ** 4) / 2.0
    return hi - lo


def _quadrature_volume(ranges):
    """The density integral by a 48-node Gauss-Legendre rule on each axis.

    The density is separable, so the eight-dimensional product rule is the
    product of the eight one-dimensional sums.
    """
    glx, glw = np.polynomial.legendre.leggauss(48)
    vol = 1.0
    for dim, (lo, hi) in enumerate(ranges.as_tuples()):
        vol *= float(np.sum(_gauss_legendre_axis(dim, lo, hi, glx, glw)[1]))
    return vol


def group_volume(ranges=None):
    """Unnormalized integral of the density over the given ranges.

    Computed as the product of eight exact one-dimensional integrals and
    cross-checked against ``_quadrature_volume``; raises ArithmeticError if
    the two disagree by more than 1e-10 relative.  Default ranges are the
    stated ones, for which the value is pi^5.
    """
    if ranges is None:
        ranges = RANGES_STATED
    analytic = math.prod(_axis_volume(dim, lo, hi)
                         for dim, (lo, hi) in enumerate(ranges.as_tuples()))
    quad = _quadrature_volume(ranges)
    if analytic != 0.0 and abs(quad - analytic) > 1e-10 * abs(analytic):
        raise ArithmeticError(
            f"separable quadrature volume {quad!r} disagrees with the "
            f"analytic value {analytic!r}")
    return analytic


def volume_report(ranges=None):
    """Analytic vs quadrature volume, with the sphere-product comparison.

    The classic heuristic equates the group volume with
    V(S^3) * V(S^5) = 2 pi^2 * pi^3 = 2 pi^5.  Over the stated ranges the
    density integrates to pi^5 — half that target — while the box that
    actually tiles the group once (gamma and phi extended) gives
    2 sqrt(3) pi^5.  Normalized integrals are unaffected by any constant.
    """
    if ranges is None:
        ranges = RANGES_STATED
    analytic = group_volume(ranges)
    quad = _quadrature_volume(ranges)
    pi5 = _PI ** 5
    return {
        "analytic": analytic,
        "quadrature": quad,
        "ratio": quad / analytic if analytic else float("nan"),
        "pi^5": pi5,
        "sphere_product_target": 2 * pi5,
        "analytic_over_pi^5": analytic / pi5,
        "analytic_over_target": analytic / (2 * pi5),
        "exact_cover_volume": group_volume(RANGES_COVER),
        "note": (
            "the stated ranges integrate to pi^5, a factor 2 short of the "
            "sphere-product target 2 pi^5; the box that tiles the group "
            "exactly once (gamma < 2 pi, phi < 2 sqrt(3) pi) has volume "
            "2 sqrt(3) pi^5"
        ),
    }


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

_REPS = ("fundamental", "antifundamental", "adjoint")


def character(U, rep="fundamental"):
    """Character in the fundamental, antifundamental or adjoint rep.

    (3, 3) -> complex and (n, 3, 3) -> (n,) complex.
    """
    tr = np.einsum("...ii->...", _as_group_elements(U))
    if rep == "fundamental":
        return tr
    if rep == "antifundamental":
        return np.conj(tr)
    if rep == "adjoint":
        return (np.abs(tr) ** 2 - 1.0).astype(complex)
    raise ValueError(f"unknown representation {rep!r}; expected one of {_REPS}")
