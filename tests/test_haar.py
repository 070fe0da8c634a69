import itertools
import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest

from su3geom import haar, verify
from su3geom.euler import EulerAngles, PHI_PERIOD, compose_many
from su3geom.haar import (AngleRanges, RANGES_COVER, RANGES_QUAD, RANGES_STATED,
                          character, density,
                          density_from_coframe, group_volume, integrate_mc,
                          integrate_quadrature, mc_moments, quadrature_mean,
                          sample_angles, volume_report)

from conftest import qr_haar_su3

PI = math.pi


def test_density_examples():
    x = EulerAngles(0, PI / 4, 0, PI / 4, 0, PI / 4, 0, 0)
    assert density(x) == pytest.approx(0.5, abs=1e-15)
    assert density(EulerAngles(0.3, 0.5, 0.1, 0.0, 0.2, 0.4, 0.9, 1.0)) == 0.0
    assert density(EulerAngles(0.3, 0.0, 0.1, 0.7, 0.2, 0.4, 0.9, 1.0)) == 0.0


def test_density_batch():
    xs = sample_angles(64, 77)
    d = density(xs)
    assert d.shape == (64,)
    assert np.all(d >= 0.0)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_deterministic():
    a = sample_angles(500, 42)
    b = sample_angles(500, 42)
    assert np.array_equal(a, b)
    c = sample_angles(500, 43)
    assert not np.array_equal(a, c)


#: sample_angles(2, 1), as ``su3geom sample --n 2 --seed 1`` prints it (17
#: significant digits).  Every seeded statistical check in the suite draws
#: from this stream, so a change to it moves all of them.
GOLDEN_SEED1 = [
    [0.95368710644280708, 1.1712919889109403, 0.98102374334249598,
     0.43340618856296831, 2.8282767585566213, 0.2302092071032201,
     2.3407623274291627, 2.6800632459305689],
    [1.2825923532626879, 0.42359788219005806, 1.6449202171397206,
     1.2581679133196753, 2.3148858274734523, 0.88760192413006134,
     0.84265715340928349, 3.9952547104162521],
]


def test_sampler_golden_rows():
    assert sample_angles(2, 1).tolist() == GOLDEN_SEED1


@pytest.mark.parametrize("k, n", [(1, 2), (7, 501), (1000, 140_000)])
def test_sampler_shorter_run_is_prefix(k, n):
    assert np.array_equal(sample_angles(n, 42)[:k], sample_angles(k, 42))


def test_sampler_ranges():
    xs = sample_angles(20_000, 3)
    lo = np.array([r[0] for r in RANGES_COVER.as_tuples()])
    hi = np.array([r[1] for r in RANGES_COVER.as_tuples()])
    assert np.all(xs >= lo) and np.all(xs < hi)


def test_sampler_theta_moment():
    # E[sin^2 theta] under density 4 sin^3 cos is 2/3; cross-check the
    # constant by one-dimensional quadrature before using it
    t, w = np.polynomial.legendre.leggauss(64)
    th = PI / 4 * t + PI / 4
    wt = w * PI / 4
    pdf = np.sin(2 * th) * np.sin(th) ** 2
    target = float(np.sum(wt * np.sin(th) ** 2 * pdf) / np.sum(wt * pdf))
    assert target == pytest.approx(2.0 / 3.0, abs=1e-12)

    xs = sample_angles(400_000, 11)
    vals = np.sin(xs[:, 3]) ** 2
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 4 * se


def test_sampler_beta_cdf():
    n = 400_000
    xs = sample_angles(n, 12)
    target = math.sin(0.5) ** 2
    se = math.sqrt(target * (1 - target) / n)
    assert abs(np.mean(xs[:, 1] <= 0.5) - target) <= 4 * se


def test_sampler_matches_qr_reference():
    n = 300_000
    us = compose_many(sample_angles(n, 5))
    ur = qr_haar_su3(n, 6)
    for f in (lambda u: np.einsum("nii->n", u),
              lambda u: np.abs(np.einsum("nii->n", u)) ** 2,
              lambda u: np.abs(u[:, 0, 0]) ** 2):
        a, b = f(us), f(ur)
        se = math.hypot(np.abs(a).std(), np.abs(b).std()) / math.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 5 * se


def test_sample_rejects_zero():
    with pytest.raises(ValueError):
        sample_angles(0, 1)


# ---------------------------------------------------------------------------
# Monte Carlo integration
# ---------------------------------------------------------------------------


def test_mc_constant():
    r = integrate_mc(lambda us: np.ones(len(us), dtype=complex), 1000, 4)
    assert r.estimate == pytest.approx(1.0)
    assert r.std_error == pytest.approx(0.0, abs=1e-12)
    assert r.method == "mc" and r.n == 1000


def test_mc_fundamental_character():
    r = integrate_mc(lambda us: np.einsum("nii->n", us), 200_000, 9)
    assert abs(r.estimate) <= 4 * r.std_error + 1e-12
    assert 0.5e-3 < r.std_error < 5e-3


def test_mc_fundamental_squared():
    r = integrate_mc(
        lambda us: (np.abs(np.einsum("nii->n", us)) ** 2).astype(complex),
        200_000, 10)
    assert abs(r.estimate - 1.0) <= 4 * r.std_error


def test_mc_entry_moment():
    r = integrate_mc(lambda us: (np.abs(us[:, 0, 0]) ** 2).astype(complex),
                     200_000, 14)
    assert abs(r.estimate - 1.0 / 3.0) <= 4 * r.std_error


def test_mc_is_the_plain_mean_over_the_sample_stream():
    # 300000 samples span 19 accumulation chunks
    n, seed = 300_000, 5
    f = lambda us: np.einsum("nii->n", us)
    vals = f(compose_many(sample_angles(n, seed)))
    r = integrate_mc(f, n, seed)
    assert r.estimate == pytest.approx(vals.mean(), rel=1e-12, abs=1e-15)
    se = np.sqrt(np.mean(np.abs(vals) ** 2) - abs(vals.mean()) ** 2) / math.sqrt(n)
    assert r.std_error == pytest.approx(se, rel=1e-10)


def test_mc_vectorized_shape_check():
    with pytest.raises(ValueError, match="shape"):
        integrate_mc(lambda us: np.zeros(3), 10, 3)


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_mc(f, 140_000, 3),     # nine sample chunks
    lambda f: integrate_quadrature(f, 5),      # three grid chunks
], ids=["mc", "quadrature"])
def test_integrand_shape_is_checked_per_block(integrate):
    # both integrators take (m, 3, 3) -> (m,) and reject (m, 1) values at
    # the first block, naming the shape
    calls = []

    def column(us):
        calls.append(us.shape[1:])
        return np.ones((len(us), 1))

    with pytest.raises(ValueError, match=r"integrand returned shape \(\d+, 1\)"):
        integrate(column)
    assert calls == [(3, 3)]


def test_mc_scalar_integrands_are_rejected():
    with pytest.raises(ValueError, match="vectorized"):
        integrate_mc(lambda us: np.ones(len(us)), 10, 3, vectorized=False)


def test_mc_moments_keeps_trailing_shape():
    # four chunks, the last one of 5 rows
    n, seed = 3 * haar._MC_ROWS + 5, 21

    def f(us):
        return np.abs(us[:, :2, :]) ** 2  # (m, 2, 3): first two rows

    vals = f(compose_many(sample_angles(n, seed)))
    mean, se = mc_moments(f, n, seed)
    assert mean.shape == se.shape == (2, 3)
    assert np.allclose(mean, vals.mean(axis=0), rtol=1e-13, atol=0)
    assert np.allclose(se, vals.std(axis=0) / math.sqrt(n), rtol=1e-9, atol=0)


def test_mc_needs_two_samples():
    with pytest.raises(ValueError):
        integrate_mc(lambda us: np.ones(len(us)), 1, 0)


def test_mc_moments_is_the_same_for_any_thread_count(monkeypatch):
    n, seed = 3 * haar._MC_ROWS + 5, 8
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(haar, "_MC_WORKERS", workers)
        monkeypatch.setattr(haar, "_pool", None)
        results.append(mc_moments(verify.schur_integrands, n, seed))
        assert haar._pool._max_workers == workers
        haar._pool.shutdown()
    for mean, se in results[1:]:
        assert np.array_equal(mean, results[0][0])
        assert np.array_equal(se, results[0][1])


class FourthCall(Exception):
    pass


def test_mc_error_in_a_pool_chunk_is_raised():
    calls = itertools.count(1)  # next() is atomic, so threads share it safely

    def fails_on_fourth_call(us):
        if next(calls) == 4:
            raise FourthCall
        return np.ones(len(us))

    with pytest.raises(FourthCall):
        integrate_mc(fails_on_fourth_call, 8 * haar._MC_ROWS, 1)
    # the pool still runs the next call
    r = integrate_mc(lambda us: np.ones(len(us)), 8 * haar._MC_ROWS, 1)
    assert r.estimate == 1.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork test runs on Linux")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
def test_forked_child_runs_monte_carlo():
    # the child inherits the pool object but not its threads; once every
    # pool thread has started, the pool starts no more, so without a fresh
    # pool the child's chunks would wait forever
    mc_moments(verify.schur_integrands, 8 * haar._MC_ROWS, 1)
    assert len(haar._pool._threads) == haar._MC_WORKERS
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            verify.character_integrals_mc(3 * haar._MC_ROWS, 1)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish character_integrals_mc in 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_is_exact():
    r = integrate_quadrature(lambda us: np.ones(len(us)), 3)
    assert r.estimate == pytest.approx(1.0, abs=1e-14)
    assert r.std_error is None and r.method == "quadrature"


def test_quadrature_characters_five_nodes():
    def f2(us):
        return (np.abs(np.einsum("nii->n", us)) ** 2).astype(complex)

    r = integrate_quadrature(f2, 5)
    assert abs(r.estimate - 1.0) <= 1e-3

    def f1(us):
        return np.einsum("nii->n", us)

    r = integrate_quadrature(f1, 4)
    assert abs(r.estimate) <= 1e-6


@pytest.mark.parametrize("ranges", [RANGES_QUAD, RANGES_STATED])
def test_quadrature_mean_columns_match_single_integrands(ranges):
    schur = verify.schur_integrands
    means, n_nodes = quadrature_mean(schur, 3, ranges)
    assert means.shape == (4,)
    for k in range(4):
        mean, n = quadrature_mean(lambda us: schur(us)[:, k], 3, ranges)
        assert n == n_nodes
        assert mean == means[k]


def test_character_quadrature_composes_half_grids_once(monkeypatch):
    rows = []
    original = haar.compose_many

    def counting(xs):
        rows.append(len(xs))
        return original(xs)

    monkeypatch.setattr(haar, "compose_many", counting)
    verify.character_integrals_quadrature(3)
    # the left half-grid has 3 nodes on four axes, the right one 3 on three
    # and 4 on phi (which steps off 3); no grid node is composed on its own
    assert sum(rows) == 3 ** 4 + 3 ** 3 * 4


def whole_grid_mean(f, nodes, ranges):
    """The product rule with the whole meshgrid built at once."""
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    axes = [haar._quad_axis(dim, lo, hi, nodes, glx, glw)
            for dim, (lo, hi) in enumerate(ranges.as_tuples())]
    X = np.stack([g.ravel() for g in
                  np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=1)
    W = np.prod([g.ravel() for g in
                 np.meshgrid(*[w for _, w in axes], indexing="ij")], axis=0)
    return np.array([np.sum(W * v) for v in f(compose_many(X)).T]) / W.sum()


@pytest.mark.parametrize("ranges", [RANGES_QUAD, RANGES_STATED])
@pytest.mark.parametrize("nodes", [3, 4])
def test_streamed_grid_matches_whole_grid(monkeypatch, ranges, nodes):
    schur = verify.schur_integrands
    expected = whole_grid_mean(schur, nodes, ranges)
    # 1000-node chunks: several blocks of whole left rows, the last one
    # partial except at 3 nodes over RANGES_QUAD
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    sizes = [len(haar._quad_axis(dim, lo, hi, nodes, glx, glw)[0])
             for dim, (lo, hi) in enumerate(ranges.as_tuples())]
    left, rows = math.prod(sizes[:4]), max(1, 1000 // math.prod(sizes[4:]))
    assert left // rows > 5
    assert (left % rows != 0) == (ranges is not RANGES_QUAD or nodes != 3)
    monkeypatch.setattr(haar, "_CHUNK", 1000)
    means, _ = quadrature_mean(schur, nodes, ranges)
    assert np.max(np.abs(means - expected)) <= 1e-15
    # 50-node chunks, below every right half-grid here (81 to 256 nodes):
    # each block holds one left row
    monkeypatch.setattr(haar, "_CHUNK", 50)
    means, _ = quadrature_mean(schur, nodes, ranges)
    assert np.max(np.abs(means - expected)) <= 1e-15


def test_character_quadrature_memory_peak():
    # the whole 5-node grid took 137 MB; one block at a time takes about 56
    tracemalloc.start()
    try:
        verify.character_integrals_quadrature(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_quadrature_node_cap():
    # 9 nodes per axis exceed NODE_CAP = 8^8 before f sees a single node
    calls = []

    def f(us):
        calls.append(len(us))
        return np.ones(len(us))

    assert haar.NODE_CAP == 8 ** 8
    with pytest.raises(ValueError, match="cap"):
        integrate_quadrature(f, 9)
    assert calls == []


def test_quadrature_minimum_nodes():
    with pytest.raises(ValueError):
        integrate_quadrature(lambda us: np.ones(len(us)), 1)


def test_quadrature_over_stated_ranges_is_biased():
    # the stated box does not tile the group: the fundamental-character
    # average over it is far from the Haar value 0
    def f1(us):
        return np.einsum("nii->n", us)

    mean, _ = quadrature_mean(f1, 6, RANGES_STATED)
    assert abs(mean) > 0.05


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_volume_stated_is_pi5():
    assert group_volume() == pytest.approx(PI ** 5, rel=1e-12)


def test_volume_phi_linear():
    doubled = AngleRanges(phi=(0.0, 4 * PI))
    assert group_volume(doubled) == pytest.approx(2 * PI ** 5, rel=1e-12)


def test_volume_theta_factor():
    ranges = AngleRanges(alpha=(0, 1), gamma=(0, 1), a=(0, 1), c=(0, 1),
                         phi=(0, 1))
    # flat lengths 1, beta and b factors integrate to 1, theta to 1/2
    assert group_volume(ranges) == pytest.approx(0.5, rel=1e-12)


def test_volume_cover():
    assert group_volume(RANGES_COVER) == pytest.approx(
        2 * math.sqrt(3.0) * PI ** 5, rel=1e-12)
    assert group_volume(RANGES_QUAD) == pytest.approx(
        16 * math.sqrt(3.0) * PI ** 5, rel=1e-12)


def gauss_legendre_volume(ranges, nodes=48):
    """The density integral by a full per-axis Gauss-Legendre product."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    factors = {1: lambda x: np.sin(2 * x), 5: lambda x: np.sin(2 * x),
               3: lambda x: np.sin(2 * x) * np.sin(x) ** 2}
    vol = 1.0
    for dim, (lo, hi) in enumerate(ranges.as_tuples()):
        x = lo + (hi - lo) * (t + 1) / 2
        vol *= float(np.sum(w * (hi - lo) / 2 * factors.get(dim, np.ones_like)(x)))
    return vol


@pytest.mark.parametrize("ranges", [RANGES_STATED, RANGES_COVER,
                                    AngleRanges(phi=(0, 5))])
def test_volume_report_quadrature_is_independent(ranges):
    rep = volume_report(ranges)
    assert rep["quadrature"] == pytest.approx(gauss_legendre_volume(ranges),
                                              rel=1e-15, abs=0)
    assert rep["ratio"] == rep["quadrature"] / rep["analytic"]
    assert rep["analytic"] == group_volume(ranges)


@pytest.mark.parametrize("ranges", [RANGES_STATED, RANGES_COVER])
def test_group_volume_cross_check_runs(monkeypatch, ranges):
    # the 48-node cross-check passes within 1e-10 relative and raises beyond
    expected = group_volume(ranges)
    exact = haar._quadrature_volume
    monkeypatch.setattr(haar, "_quadrature_volume",
                        lambda r: exact(r) * (1 + 1e-11))
    assert group_volume(ranges) == expected
    monkeypatch.setattr(haar, "_quadrature_volume",
                        lambda r: exact(r) * (1 + 1e-9))
    with pytest.raises(ArithmeticError, match="disagrees"):
        group_volume(ranges)


def test_volume_report_fields():
    rep = volume_report()
    assert rep["analytic"] == pytest.approx(PI ** 5, rel=1e-12)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert rep["sphere_product_target"] == pytest.approx(2 * PI ** 5)
    assert rep["analytic_over_target"] == pytest.approx(0.5, rel=1e-12)
    assert "note" in rep


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_values():
    I3 = np.eye(3, dtype=complex)
    assert character(I3, "fundamental") == 3.0
    assert character(I3, "adjoint") == 8.0
    assert character(I3, "antifundamental") == 3.0


def test_character_adjoint_real():
    us = compose_many(sample_angles(20, 33))
    vals = character(us, "adjoint")
    assert np.max(np.abs(vals.imag)) == 0.0
    for u in us[:5]:
        assert character(u, "adjoint").imag == 0.0


def test_character_unknown_rep():
    with pytest.raises(ValueError, match="representation"):
        character(np.eye(3), "sextet")


def test_density_from_coframe_agrees(interior_points):
    for x in interior_points[:5]:
        assert density_from_coframe(x) == pytest.approx(float(density(x)) / 2,
                                                        rel=1e-10)
    batch = interior_points[:5]
    assert density_from_coframe(batch) == pytest.approx(density(batch) / 2,
                                                        rel=1e-10)


# ---------------------------------------------------------------------------
# translation invariance
# ---------------------------------------------------------------------------


def _trace(vs):
    return np.trace(vs, axis1=1, axis2=2)


_CLASS_REFERENCE = (lambda v: _trace(v).real,
                    lambda v: np.abs(_trace(v)) ** 2,
                    lambda v: _trace(v @ v).real)
_ENTRY_REFERENCE = (lambda v: np.abs(v[:, 0, 0]) ** 2,
                    lambda v: v[:, 0, 1].real)


def _invariance_reference(n, seed):
    """{(kind, side, function index): worst ratio} from explicit gU and Ug
    stacks, over the same sample stream as ``invariance_deviations``."""
    gs = compose_many(sample_angles(5, seed + 17))
    blocks = [("class", ("gU",), k, f) for k, f in enumerate(_CLASS_REFERENCE)]
    blocks += [("entry", ("gU", "Ug"), k, f)
               for k, f in enumerate(_ENTRY_REFERENCE)]

    def values(us):
        stacks = {"gU": [g @ us for g in gs], "Ug": [us @ g for g in gs]}
        cols = []
        for _, sides, _, f in blocks:
            cols.append(f(us))
            cols += [f(v) for side in sides for v in stacks[side]]
        return np.stack(cols, axis=1)

    means, ses = mc_moments(values, n, seed)
    ratios, base = {}, 0
    for kind, sides, k, _ in blocks:
        for j, side in enumerate(sides):
            cols = slice(base + 1 + 5 * j, base + 6 + 5 * j)
            ratios[(kind, side, k)] = float(np.max(
                np.abs(means[cols] - means[base])
                / (4 * np.hypot(ses[cols], ses[base]))))
        base += 1 + 5 * len(sides)
    return ratios


def test_invariance_deviations_match_explicit_translates():
    # at these seeds the worst ratio falls, in turn, on each of the three
    # class functions of gU and on each entry function of gU and of Ug
    worst_at = set()
    for seed in (3, 4, 13, 12, 10, 1, 6):
        ratios = _invariance_reference(4000, seed)
        key = max(ratios, key=ratios.get)
        worst_at.add(key)
        assert verify.invariance_deviations(4000, seed) == pytest.approx(
            ratios[key], rel=1e-12, abs=0)
    assert worst_at == ({("class", "gU", k) for k in range(3)}
                        | {("entry", side, k) for side in ("gU", "Ug")
                           for k in range(2)})


def test_invariance_deviations_reject_the_stated_box(monkeypatch):
    # sampling the stated box (gamma over [0, pi), phi over [0, 2 pi)) is
    # not Haar, and the check must see it
    haar_angles = haar._angles_from_uniform

    def stated_box(u):
        x = haar_angles(u)
        x[:, 2] /= 2
        x[:, 7] *= 2 * PI / PHI_PERIOD
        return x

    monkeypatch.setattr(haar, "_angles_from_uniform", stated_box)
    assert verify.invariance_deviations(50_000, 12) > 1.0


def test_invariance_deviations_memory_peak():
    # one translated stack at a time and one (m, 40) real block per
    # chunk, a few chunks at once: about 28 MB; the bound keeps haar_mc's
    # peak RSS from growing
    tracemalloc.start()
    try:
        verify.invariance_deviations(100_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
