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
    ``integrate_quadrature``.  Each half-grid is composed once and a node
    costs one 3x3 product; blocks stream, so memory stays flat, and
    ``NODE_CAP`` bounds the run time.

Both integrators average functions on the group, not on the chart: the
integrand maps an (m, 3, 3) stack of sampled or composed elements to (m,).
The Monte Carlo integrand may run on several threads at once, so it must
not mutate shared state; every integrand in this package is pure.

All randomness comes from one counter-based (Philox) stream keyed by the
seed: results are a deterministic function of (seed, n), and a shorter run
draws a prefix of a longer one.  Derived streams take ``sub_seed(seed, k)``.

``mc_moments`` cuts the stream into chunks of ``_MC_ROWS`` rows.  A
counter-based stream can start any chunk exactly where the one sequential
stream would be, so chunk 0 runs on the caller's thread and the rest on a
small thread pool, started on first use, while the chunk sums are added
in stream order: the result is the same, bit for bit, for any number of
threads or cores.
"""

from __future__ import annotations

import math
import os
import threading
import time
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


def _stream(seed, row=0):
    """The one Philox stream behind every draw made with this seed, from
    the given row of 8 doubles on (a Philox block holds 4 doubles)."""
    bits = np.random.Philox(key=np.uint64(sub_seed(seed, 0)))
    return np.random.Generator(bits.advance(2 * row))


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
    elapsed_s: float


_CHUNK = 131072

#: Rows of one Monte Carlo chunk: small enough that a chunk's arrays stay
#: near the cache, and the unit of work handed to the threads.
_MC_ROWS = 16384
#: Threads of the pool that runs every Monte Carlo chunk after the first.
_MC_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _mc_pool():
    """The chunk thread pool, started on the first call that needs it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: at module import it would add ~5 ms to every import
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_MC_WORKERS, thread_name_prefix="su3geom-mc")
    return _pool


def _forget_pool():
    """In a forked child: the pool object came along, its threads did not."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _chunk_moments(f, seed, start, stop):
    """Sums of f and |f|^2 over rows [start, stop) of the seed's sample stream."""
    xs = _angles_from_uniform(_stream(seed, start).random((stop - start, 8)))
    vals = np.asarray(f(compose_many(xs)))
    return vals.sum(axis=0), (np.abs(vals) ** 2).sum(axis=0)


def mc_moments(f, n, seed):
    """Sample mean and standard error of f over n Haar-distributed elements.

    The elements are ``compose_many(sample_angles(n, seed))``, drawn and
    composed ``_MC_ROWS`` rows at a time; ``f`` maps each (m, 3, 3) stack
    to an array of shape (m,) or (m, ...), and both moments are summed
    over axis 0.  The standard error is the sample standard deviation of f
    over sqrt(n), entry by entry.

    Chunk 0 runs on the calling thread, so an integrand that fails does so
    after one call; the other chunks run on up to ``_MC_WORKERS`` threads
    at once, so ``f`` must not mutate shared state.  The chunk sums are
    added in chunk order, so the result does not depend on the thread
    count.  If a chunk raises, the chunks not yet started are cancelled
    and the error is raised here.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n = {n}")
    bounds = [(start, min(start + _MC_ROWS, n)) for start in range(0, n, _MC_ROWS)]
    total, total_sq = _chunk_moments(f, seed, *bounds[0])
    if len(bounds) > 1:
        pool = _mc_pool()
        futures = [pool.submit(_chunk_moments, f, seed, *b) for b in bounds[1:]]
        try:
            for future in futures:
                s, sq = future.result()
                total, total_sq = total + s, total_sq + sq
        finally:
            for future in futures:
                future.cancel()
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

    ``f`` maps an (m, 3, 3) stack of elements to (m,) values, and may run
    on several threads at once (see ``mc_moments``).  Samples already
    follow the Haar density, so the plain mean over the stream of
    ``mc_moments`` is the normalized integral; ``std_error`` is the sample
    standard deviation of f over sqrt(n).
    """
    # vectorized stays only because benchmark/workloads.py passes it
    if not vectorized:
        raise ValueError("vectorized=False is not supported: f takes (m, 3, 3) stacks")
    if n < 2:
        raise ValueError(f"need n >= 2 for an error estimate, got {n}")
    start = time.perf_counter()
    mean, se = mc_moments(lambda us: _complex_values(f(us), len(us)), n, seed)
    return IntegrationResult(estimate=complex(mean), std_error=float(se), n=n,
                             method="mc", elapsed_s=time.perf_counter() - start)


#: Cap on the total quadrature grid size, set by run time: 8 nodes per axis
#: take about 3 s on two cores.  Memory does not grow with the grid.
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


def _half_grid(xs, ws, axes):
    """One half-grid in C order, composed with the other four angles 0, and its weights."""
    X = np.zeros((math.prod(map(len, xs[axes])), 8))
    X[:, axes] = np.stack(np.meshgrid(*xs[axes], indexing="ij"), axis=-1).reshape(len(X), 4)
    return compose_many(X), np.prod(np.meshgrid(*ws[axes], indexing="ij"), axis=0).ravel()


def quadrature_mean(f, nodes_per_dim, ranges=None):
    """Haar average of f by a separable product rule with the density weight.

    ``f`` maps an (m, 3, 3) stack of group elements to values of shape
    (m,) or (m, ...); every trailing entry is averaged with the same
    weights, so several integrands share one pass over the grid.  A node's
    element is a left half-grid element (axes 0-3) times a right one (axes
    4-7): ``compose_many`` runs once per half-grid, and each node costs one
    3x3 product, in blocks of whole left rows (about ``_CHUNK`` nodes) in C
    order.  The sum is normalized by the same rule applied to f == 1, so
    any constant covering multiplicity of the range box cancels.  Default
    box is ``RANGES_QUAD``.  Returns ``(mean, n_nodes)``.
    """
    if nodes_per_dim < 2:
        raise ValueError(f"need at least 2 nodes per dimension, got {nodes_per_dim}")
    if ranges is None:
        ranges = RANGES_QUAD
    glx, glw = np.polynomial.legendre.leggauss(nodes_per_dim)
    xs, ws = zip(*(_quad_axis(dim, lo, hi, nodes_per_dim, glx, glw)
                   for dim, (lo, hi) in enumerate(ranges.as_tuples())))
    total_nodes = math.prod(map(len, xs))
    if total_nodes > NODE_CAP:
        raise ValueError(f"grid of {total_nodes} nodes exceeds the cap {NODE_CAP}")
    (left, w_left), (right, w_right) = (_half_grid(xs, ws, slice(h, h + 4)) for h in (0, 4))
    right_cols = right.transpose(1, 0, 2).reshape(3, -1)
    rows = max(1, _CHUNK // len(right))
    acc = w_sum = 0.0
    for start in range(0, len(left), rows):
        block = left[start:start + rows]
        # nodes in C order; rebinding frees the product before f runs
        nodes = (block.reshape(-1, 3) @ right_cols).reshape(len(block), 3, len(right), 3)
        nodes = nodes.transpose(0, 2, 1, 3).reshape(-1, 3, 3)
        vals = np.asarray(f(nodes))
        W = np.multiply.outer(w_left[start:start + rows], w_right).ravel()
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
    start = time.perf_counter()
    mean, n_nodes = quadrature_mean(
        lambda us: _complex_values(f(us), len(us)), nodes_per_dim)
    return IntegrationResult(estimate=complex(mean), std_error=None, n=n_nodes,
                             method="quadrature", elapsed_s=time.perf_counter() - start)


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
