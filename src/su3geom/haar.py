"""Haar measure in the Euler coordinates: density, sampling, integration.

The invariant volume element factorizes over the coordinates,

    dV = sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta)
         dalpha dbeta dgamma dtheta da db dc dphi,

so exact inverse-CDF sampling, separable quadrature weights and the
volume in closed form over any box that ``AngleRanges`` accepts are
available.  The boxes are described in euler.py: the sampler uses
``RANGES_COVER``, and ``integrate_quadrature`` always runs over
``RANGES_QUAD``, where 2d + 1 nodes per flat axis make it exact on every
polynomial of degree <= d in U and in conj U.  It composes each
half-grid once, and ``NODE_CAP`` bounds its run time.

Both integrators average functions on the group, not on the chart: the
integrand maps an (m, 3, 3) stack of sampled or composed elements to (m,)
or (m, ...) values, real or complex, and each trailing entry is averaged
in its dtype; both return an ``IntegrationResult``.  Both run the
integrand on blocks of elements, several threads at once, and add the
block sums in block order (``_ordered_sums``): the result is the same, bit
for bit, for any number of threads or cores, and an integrand must not
mutate shared state.  Every integrand in this package is pure.

All randomness comes from one counter-based (Philox) stream keyed by the
seed: results are a deterministic function of (seed, n), a shorter run
draws a prefix of a longer one, and any block of rows can be drawn on its
own.  Derived streams take ``sub_seed(seed, k)``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .euler import (RANGES_COVER, RANGES_QUAD, RANGES_STATED, _SIN2_POWER,
                    _as_angle_points, _as_group_elements, compose_many)
from .invariant_forms import left_coframe


def density(x):
    """Unnormalized Haar weight sin(2 beta) sin(2 b) sin(2 theta) sin^2(theta).

    Accepts EulerAngles, an 8-vector, or an (n, 8) batch of finite angles.
    """
    x = _as_angle_points(x)
    beta, theta, b = x[..., 1], x[..., 3], x[..., 5]
    return np.sin(2 * beta) * np.sin(2 * b) * np.sin(2 * theta) * np.sin(theta) ** 2


def density_from_coframe(x):
    """|det| of the left coframe: the volume density measured intrinsically.

    Equals ``density(x) / 2`` at every interior point, and the right
    coframe gives the same constant (unimodularity).  The value 1/2 is the
    Riemannian normalization: the coframe is dual to the i lam_k, which are
    orthonormal under tr(X^+ Y)/2, so ``verify``'s ``measure.cover_volume``
    compares half the density integral with the volume of SU(3).  Accepts
    (8,) or (n, 8).
    """
    return np.abs(np.linalg.det(left_coframe(x).entries))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sub_seed(seed, k):
    """The k-th stream seed derived from a valid seed, wrapped into [0, 2^64)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return (seed + k) % 2 ** 64


def _angles_from_uniform(u):
    """Inverse CDFs of the separable density over RANGES_COVER.

    A flat axis is uniform on [lo, hi).  A weighted axis lies on [0, pi/2],
    where s = sin^2 x carries s^p ds (p from ``_SIN2_POWER``), so s has CDF
    s^(p+1) on [0, 1] and x = arcsin(u^(1 / (2 (p + 1)))).

    (m, 8) uniforms give the (m, 8) transpose of an (8, m) array: each
    angle column is one contiguous row, which ``euler._closed_form`` reads.
    """
    x = np.empty((8, len(u)))
    for dim, (lo, hi) in enumerate(RANGES_COVER.as_tuples()):
        if dim in _SIN2_POWER:
            x[dim] = np.arcsin(u[:, dim] ** (0.5 / (_SIN2_POWER[dim] + 1)))
        else:
            x[dim] = lo + (hi - lo) * u[:, dim]
    return x.T


def _sample_rows(seed, start, stop):
    """Haar angles for rows [start, stop) of the seed's Philox stream (2 counters a row)."""
    bits = np.random.Philox(key=np.uint64(sub_seed(seed, 0))).advance(2 * start)
    return _angles_from_uniform(np.random.Generator(bits).random((stop - start, 8)))


def sample_angles(n, seed):
    """(n, 8) i.i.d. Haar angles; deterministic in (seed, n).

    Rows come in order from one stream, so ``sample_angles(k, seed)`` is
    the first k rows of ``sample_angles(n, seed)`` for every k <= n.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n = {n}")
    return _sample_rows(seed, 0, n)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrationResult:
    """A Haar average from ``integrate_mc`` or ``integrate_quadrature``.

    ``estimate`` has the integrand's dtype and trailing shape: a scalar for
    (m,) values, an array for (m, ...).  ``std_error`` has the same shape
    (real), or is None for the product rule.  ``n`` counts the samples or
    grid nodes, ``method`` is "mc" or "quadrature", ``degree`` is the
    degree d = (nodes_per_dim - 1) // 2 to which the product rule is exact
    (None for Monte Carlo), and ``elapsed_s`` is the wall time of the call.
    """

    estimate: np.ndarray | complex
    std_error: np.ndarray | float | None
    n: int
    method: str
    degree: int | None
    elapsed_s: float


#: Rows or quadrature nodes in one block of an ordered sum, the unit of work
#: the threads share.  At 8192 the 25 000-node grid of 5 nodes per flat axis
#: splits into 4 blocks, so two cores both get work (16384 made 2 blocks, of
#: 65 and 35 left rows), and each block's temporaries are half as large: on
#: 2 cores a ``haar_mc`` benchmark run peaked at 143 MB RSS instead of 151.
_BLOCK_ROWS = 8192
#: Threads that run an ordered sum's blocks, the calling thread included:
#: the usable cores, at most 4.  Each holds one block's temporaries at a
#: time, so this also bounds the memory of a call; a ``haar_mc`` run peaked
#: at 167 MB RSS when the caller waited on this many more threads.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _ordered_sums(fn, blocks):
    """The tuples ``fn(block)`` summed over ``blocks``, added in block order.

    Block 0 runs alone on the calling thread, so an integrand that fails
    does so after one call.  Then the caller and ``_WORKERS - 1`` threads,
    started and joined within the call, take the other blocks' indices from
    one shared iterator and store each block's sums by index; ``fn`` and its
    integrand may thus run on several threads at once and must not mutate
    shared state.  A thread whose block raises drains the iterator, so no
    further block starts, and the error of the lowest such block is raised.
    """
    sums = [fn(blocks[0])] + [None] * (len(blocks) - 1)
    todo = iter(range(1, len(blocks)))  # next() holds the GIL, so threads share it
    errors = {}

    def run():
        for k in todo:
            try:
                sums[k] = fn(blocks[k])
            except BaseException as exc:
                for _ in todo:
                    pass
                errors[k] = exc

    threads = [threading.Thread(target=run, name=f"su3geom-mc_{i}")
               for i in range(min(_WORKERS, len(blocks)) - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    totals = sums[0]
    for block_sums in sums[1:]:
        totals = tuple(t + s for t, s in zip(totals, block_sums))
    return totals


def _rows(vals, m):
    """An integrand's values for m elements as an array with m rows."""
    vals = np.asarray(vals)
    if vals.shape[:1] != (m,):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({m}, ...)")
    return vals


def integrate_mc(f, n, seed, *, vectorized=True):
    """Haar average of f over n >= 2 sampled group elements.

    The elements are ``compose_many(sample_angles(n, seed))`` in blocks of
    ``_BLOCK_ROWS`` rows; ``f`` maps each (m, 3, 3) stack to shape (m,) or
    (m, ...), and both moments are summed over axis 0.  The stack is
    entry-major, as ``compose_many`` returns it: ``us[:, a, b]`` is a
    contiguous row and ``us.reshape(m, 9).T`` a C-contiguous (9, m) array
    without a copy.  Samples already follow the Haar density, so the plain
    mean is the normalized integral; ``std_error`` is the sample standard
    deviation of f over sqrt(n), entry by entry.
    """
    # vectorized stays only because benchmark/workloads.py passes it
    if not vectorized:
        raise ValueError("vectorized=False is not supported: f takes (m, 3, 3) stacks")
    if n < 2:
        raise ValueError(f"need n >= 2 for an error estimate, got {n}")
    start_s = time.perf_counter()

    def chunk_moments(start):
        us = compose_many(_sample_rows(seed, start, min(start + _BLOCK_ROWS, n)))
        vals = _rows(f(us), len(us))
        # sum |v|^2 as sums of products, with no block-sized temporary;
        # einsum without optimize= makes no BLAS call
        sq = np.einsum("i...,i...->...", vals.real, vals.real)
        if np.iscomplexobj(vals):
            sq = sq + np.einsum("i...,i...->...", vals.imag, vals.imag)
        return vals.sum(axis=0), sq

    total, total_sq = _ordered_sums(chunk_moments, range(0, n, _BLOCK_ROWS))
    mean = total / n
    se = np.sqrt(np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0) / n)
    return IntegrationResult(estimate=mean, std_error=se, n=n, method="mc",
                             degree=None, elapsed_s=time.perf_counter() - start_s)


#: Cap on the total quadrature grid size, set by run time: 11 and 12 nodes per
#: flat axis, the most under it, make 5 797 836 nodes and take about 0.3 s for
#: the four character integrals on two cores.  Memory does not grow with the grid.
NODE_CAP = 8 ** 8


def _axis_nodes(dim, degree):
    """The number of nodes ``_quad_axis`` puts on one axis for ``degree``."""
    if dim in _SIN2_POWER:
        return (degree + 2 + _SIN2_POWER[dim]) // 2
    return 2 * degree + 1


def _quad_axis(dim, degree):
    """Nodes and density-folded weights exact to ``degree`` on one ``RANGES_QUAD`` axis.

    A flat axis, a whole period, takes 2 degree + 1 midpoint nodes, exact
    on e^{ikx} unless 2 degree + 1 divides k != 0.  A weighted axis puts
    (degree + 2 + p) // 2 Gauss-Legendre nodes in s = sin^2 x on
    [sin^2 lo, sin^2 hi], at x = arcsin(sqrt(s)) with s^p in the weights:
    m nodes are exact for polynomials in s of degree up to 2m - 1 - p >=
    degree.  ``AngleRanges`` keeps the range in [0, pi/2], where s is
    monotone.
    """
    lo, hi = RANGES_QUAD.as_tuples()[dim]
    nodes = _axis_nodes(dim, degree)
    if dim in _SIN2_POWER:
        p = _SIN2_POWER[dim]
        glx, glw = np.polynomial.legendre.leggauss(nodes)
        s_lo, s_hi = math.sin(lo) ** 2, math.sin(hi) ** 2
        s = (s_hi - s_lo) / 2 * glx + (s_hi + s_lo) / 2
        return np.arcsin(np.sqrt(s)), glw * (s_hi - s_lo) / 2 * s ** p
    span = hi - lo
    return lo + (np.arange(nodes) + 0.5) * span / nodes, np.full(nodes, span / nodes)


def _half_grid(xs, ws, axes):
    """One half-grid in C order, composed with the other four angles 0, and its weights."""
    X = np.zeros((math.prod(map(len, xs[axes])), 8))
    X[:, axes] = np.stack(np.meshgrid(*xs[axes], indexing="ij"), axis=-1).reshape(len(X), 4)
    return compose_many(X), np.prod(np.meshgrid(*ws[axes], indexing="ij"), axis=0).ravel()


def integrate_quadrature(f, nodes_per_dim):
    """Haar average of f by a separable product rule over ``RANGES_QUAD``.

    ``f`` maps an (m, 3, 3) stack of group elements to values of shape
    (m,) or (m, ...); every trailing entry is averaged with the same
    weights, so several integrands share one pass over the grid.  A node's
    element is a left half-grid element (axes 0-3) times a right one (axes
    4-7): ``compose_many`` runs once per half-grid, and ``_ordered_sums``
    forms the nodes by one 3x3 product each, in blocks of whole left rows
    (about ``_BLOCK_ROWS`` nodes, left row major) on several threads at
    once.  Each thread forms its blocks in one reused entry-major array
    and hands ``f`` a read-only (m, 3, 3) view of it, laid out as in
    ``integrate_mc``: ``us.reshape(m, 9).T`` is a C-contiguous (9, m)
    array.  ``f`` must not keep its argument, or a view of it, after it
    returns.  The sum is normalized by f == 1 under the same rule, so the
    box's covering multiplicity, 8, cancels.  The result's ``n`` is the
    node count and its ``std_error`` is None.

    Exactness: over ``RANGES_QUAD`` the rule integrates, up to roundoff,
    every polynomial f of degree <= d in U and <= d in conj U, where
    d = (nodes_per_dim - 1) // 2 is the one number that sets the grid
    (``_quad_axis``).  Expanded by the closed form of ``compose_many``, f is
    a sum of products of one factor per axis, and the rule is exact on each
    product whose factors the axis rules are.  Let n_j count the U factors
    of a monomial in column j minus its conj U factors in column j.  On
    alpha, gamma and a, a factor e^{ikx} has |k| <= 2d < 2d + 1, the
    midpoint count, so only k = 0 survives, as under the Haar measure.  On
    c, k = n0 - n1, also of size <= 2d, so only n0 = n1 survives.  On phi,
    in units of 2 pi / PHI_PERIOD, k = n0 + n1 - 2 n2 = 2 (n0 - n2) with
    |n0 - n2| <= 2d, and the odd count 2d + 1 > 2d divides it only when
    n0 = n2.  A product with a nonzero frequency is thus 0 under both the
    rule and the Haar measure; in one with none, counting generators along
    the chain leaves even powers of cos x and sin x on beta, b and theta, a
    polynomial of degree <= d in s.  Against ds (beta, b) or s ds (theta),
    (d + 2 + p) // 2 Gauss nodes in s are exact to degree
    2 ((d + 2 + p) // 2) - 1 - p >= d: 2 each at d = 2, so
    5^5 * 2^3 = 25 000 nodes at 5 (or 6) per flat axis.  Not covered:
    higher degrees (at 3 or 4 nodes, d = 1, and E|tr U|^4 comes out
    2.5534 instead of 2).
    """
    if nodes_per_dim < 2:
        raise ValueError(f"need at least 2 nodes per flat axis, got {nodes_per_dim}")
    start_s = time.perf_counter()
    degree = (nodes_per_dim - 1) // 2
    # counted before any axis is built: a weighted axis of m nodes solves
    # an m x m eigenproblem
    total_nodes = math.prod(_axis_nodes(dim, degree) for dim in range(8))
    if total_nodes > NODE_CAP:
        raise ValueError(f"grid of {total_nodes} nodes exceeds the cap {NODE_CAP}")
    xs, ws = zip(*(_quad_axis(dim, degree) for dim in range(8)))
    (left, w_left), (right, w_right) = (_half_grid(xs, ws, slice(h, h + 4)) for h in (0, 4))
    right_cols = right.transpose(1, 0, 2).reshape(3, -1)
    m = len(right)
    rows = max(1, _BLOCK_ROWS // m)
    # left rows per matrix product: about 2048 nodes, a 288 kB product that
    # stays in cache while it is copied into C order; one product per block
    # took 5.5-6.9 ms instead of 3.0-4.4 for the 5-node character integrals
    group = max(1, 2048 // m)
    # each thread of this call forms all its blocks in one array: fresh
    # arrays for every block cost a minor page fault per 4 kB page, 5.2-6.3
    # ms at 5 nodes, and 0.47-0.72 s instead of 0.26-0.42 at 11 nodes (726
    # blocks, 120 000 to 360 000 faults a call)
    scratch = threading.local()

    def block_sums(start):
        block = left[start:start + rows]
        k = len(block)
        if not hasattr(scratch, "work"):
            scratch.work = np.empty(9 * (group + rows) * m, dtype=complex)
        E = scratch.work[9 * group * m:9 * (group + k) * m].reshape(3, 3, k, m)
        for i in range(0, k, group):
            part = block[i:i + group]
            product = np.matmul(part.reshape(-1, 3), right_cols,
                                out=scratch.work[:9 * len(part) * m].reshape(-1, 3 * m))
            # entry-major, the nodes of each entry in C order
            E[:, :, i:i + group] = product.reshape(len(part), 3, m, 3).transpose(1, 3, 0, 2)
        nodes = E.reshape(3, 3, k * m).transpose(2, 0, 1)
        # f sees a read-only view, since the next block overwrites it
        nodes.flags.writeable = False
        vals = _rows(f(nodes), k * m)
        W = np.multiply.outer(w_left[start:start + rows], w_right).ravel()
        # C order makes each entry's terms contiguous, so numpy sums them
        # pairwise exactly as it sums that entry's (m,) values alone
        terms = np.multiply(W, np.moveaxis(vals, 0, -1), order="C")
        return terms.sum(axis=-1), W.sum()

    acc, w_sum = _ordered_sums(block_sums, range(0, len(left), rows))
    return IntegrationResult(estimate=acc / w_sum, std_error=None, n=total_nodes,
                             method="quadrature", degree=degree,
                             elapsed_s=time.perf_counter() - start_s)


# ---------------------------------------------------------------------------
# Volume
# ---------------------------------------------------------------------------


def _axis_volume(dim, lo, hi):
    """Exact integral of this axis' density factor over [lo, hi]: s^q / q, q = p + 1."""
    if dim in _SIN2_POWER:
        q = _SIN2_POWER[dim] + 1
        return (math.sin(hi) ** (2 * q) - math.sin(lo) ** (2 * q)) / q
    return hi - lo


def group_volume(ranges=RANGES_STATED):
    """Unnormalized integral of the density over the given ranges.

    The closed form: the product of the eight exact one-dimensional
    integrals of ``_axis_volume``.  Default ranges are the stated ones, for
    which the value is pi^5.  Independent checks: ``verify``'s
    ``measure.volume_stated_ranges`` (pi^5) and ``measure.cover_volume``
    (Macdonald's sqrt(3) pi^5), and a Gauss-Legendre rule in the tests.
    """
    return math.prod(_axis_volume(dim, lo, hi)
                     for dim, (lo, hi) in enumerate(ranges.as_tuples()))


def volume_report(ranges=RANGES_STATED):
    """The volume over the given ranges, with the sphere-product comparison.

    The classic heuristic equates the group volume with
    V(S^3) * V(S^5) = 2 pi^2 * pi^3 = 2 pi^5.  Over the stated ranges the
    density integrates to pi^5 — half that target — while the box that
    actually tiles the group once (gamma and phi extended) gives
    2 sqrt(3) pi^5.  Normalized integrals are unaffected by any constant.
    """
    analytic = group_volume(ranges)
    pi5 = math.pi ** 5
    return {
        "analytic": analytic,
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

_REPS = ("fundamental", "adjoint")


def character(U, rep="fundamental"):
    """Character in the fundamental or the adjoint rep.

    (3, 3) -> complex and (n, 3, 3) -> (n,) complex.
    """
    tr = np.einsum("...ii->...", _as_group_elements(U))
    if rep == "fundamental":
        return tr
    if rep == "adjoint":
        return (np.abs(tr) ** 2 - 1.0).astype(complex)
    raise ValueError(f"unknown representation {rep!r}; expected one of {_REPS}")
