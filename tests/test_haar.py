import dataclasses
import itertools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from su3geom import euler, haar, verify
from su3geom.euler import (RANGES_COVER, RANGES_QUAD, RANGES_STATED, AngleRanges,
                           DecompositionError, EulerAngles, PHI_PERIOD,
                           compose_many, decompose)
from su3geom.haar import (character, density,
                          density_from_coframe, group_volume, integrate_mc,
                          integrate_quadrature, sample_angles, volume_report)

from conftest import gauss_legendre_volume, references

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


@pytest.mark.parametrize("x", [np.zeros(7), np.ones((4, 6))], ids=["7", "4x6"])
def test_density_rejects_wrong_shapes(x):
    with pytest.raises(ValueError):
        density(x)


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


def test_sampler_writes_angle_columns():
    # each angle column is one contiguous row, which compose_many reads
    xs = sample_angles(1000, 21)
    assert xs.shape == (1000, 8) and xs.T.flags.c_contiguous


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
    ur = references.qr_haar_su3(n, np.random.default_rng(6))
    for f in (lambda u: np.einsum("nii->n", u),
              lambda u: np.abs(np.einsum("nii->n", u)) ** 2,
              lambda u: np.abs(u[:, 0, 0]) ** 2):
        a, b = f(us), f(ur)
        se = math.hypot(np.abs(a).std(), np.abs(b).std()) / math.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 5 * se


def test_samples_over_stated_ranges_are_biased():
    # Haar samples restricted to a sub-box follow the density over that
    # box.  The stated box holds 1/(2 sqrt 3) of the cover box's mass and
    # does not tile the group: the fundamental-character average over it
    # is far from the Haar value 0 (0.0717 with se 0.0042 here)
    n = 200_000
    xs = sample_angles(n, 41)
    lo, hi = np.array(RANGES_STATED.as_tuples()).T
    inside = np.all((xs >= lo) & (xs <= hi), axis=1)
    share = 1 / (2 * math.sqrt(3.0))
    assert abs(inside.mean() - share) <= 4 * math.sqrt(share * (1 - share) / n)
    tr = np.einsum("nii->n", compose_many(xs[inside]))
    se = np.std(tr) / math.sqrt(len(tr))
    assert abs(tr.mean()) > 4 * se


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
    assert r.method == "mc" and r.n == 1000 and r.degree is None


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
    # 300000 samples span 37 accumulation blocks
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
    lambda f: integrate_mc(f, 140_000, 3),     # 18 sample blocks
    lambda f: integrate_quadrature(f, 5),      # four grid blocks
], ids=["mc", "quadrature"])
def test_integrand_shape_is_checked_per_block(integrate):
    # both integrators take (m, 3, 3) -> (m, ...) and reject values with
    # another number of rows at the first block, naming the shape
    calls = []

    def short(us):
        calls.append(us.shape)
        return np.ones((len(us) - 1, 1))

    with pytest.raises(ValueError, match="integrand returned shape") as err:
        integrate(short)
    assert len(calls) == 1 and calls[0][1:] == (3, 3)
    assert f"shape ({calls[0][0] - 1}, 1)" in str(err.value)


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_mc(f, 40_000, 6),
    lambda f: integrate_quadrature(f, 5),
], ids=["mc", "quadrature"])
def test_real_integrand_gives_real_estimate(integrate):
    # values are summed in their own dtype: |U_11|^2 stays real, and its
    # (m, 2) stack with tr U stays complex
    def entry(us):
        return np.abs(us[:, 0, 0]) ** 2

    r = integrate(entry)
    assert np.isrealobj(r.estimate) and np.ndim(r.estimate) == 0
    both = integrate(lambda us: np.stack([entry(us), np.einsum("nii->n", us)], axis=1))
    assert np.iscomplexobj(both.estimate) and both.estimate.shape == (2,)
    assert both.estimate[0] == pytest.approx(r.estimate, rel=1e-13, abs=0)


def test_mc_scalar_integrands_are_rejected():
    with pytest.raises(ValueError, match="vectorized"):
        integrate_mc(lambda us: np.ones(len(us)), 10, 3, vectorized=False)


def test_mc_keeps_trailing_shape():
    # four chunks, the last one of 5 rows
    n, seed = 3 * haar._BLOCK_ROWS + 5, 21

    def f(us):
        return np.abs(us[:, :2, :]) ** 2  # (m, 2, 3): first two rows

    vals = f(compose_many(sample_angles(n, seed)))
    r = integrate_mc(f, n, seed)
    assert r.estimate.shape == r.std_error.shape == (2, 3) and r.n == n
    assert np.allclose(r.estimate, vals.mean(axis=0), rtol=1e-13, atol=0)
    assert np.allclose(r.std_error, vals.std(axis=0) / math.sqrt(n), rtol=1e-9, atol=0)


def test_mc_needs_two_samples():
    with pytest.raises(ValueError):
        integrate_mc(lambda us: np.ones(len(us)), 1, 0)


def test_integrators_are_the_same_for_any_thread_count(monkeypatch):
    n, seed = 3 * haar._BLOCK_ROWS + 5, 8
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(haar, "_WORKERS", workers)
        mc = integrate_mc(verify.schur_integrands, n, seed)
        blocks = []

        def schur(us):
            blocks.append(len(us))
            return verify.schur_integrands(us)

        # 7 nodes: 27 blocks of whole left rows, so every thread runs several
        quad = integrate_quadrature(schur, 7)
        assert len(blocks) > workers + 1
        results.append((mc.estimate, mc.std_error, quad.estimate))
    for result in results[1:]:
        for got, expected in zip(result, results[0]):
            assert np.array_equal(got, expected)


class FourthCall(Exception):
    pass


def mc_threads():
    return [t for t in threading.enumerate() if t.name.startswith("su3geom-mc")]


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_mc(f, 8 * haar._BLOCK_ROWS, 1),
    lambda f: integrate_quadrature(f, 7),  # 27 blocks of 11 left rows or fewer
], ids=["integrate_mc", "integrate_quadrature"])
def test_mc_error_in_a_pool_chunk_is_raised(monkeypatch, integrate):
    blocks = []

    def ones(us):
        blocks.append(len(us))
        return np.ones(len(us))

    expected = integrate(ones).estimate
    assert len(blocks) >= 4
    for workers in (1, 2, 3):
        monkeypatch.setattr(haar, "_WORKERS", workers)
        calls = itertools.count(1)  # next() is atomic, so threads share it safely
        started = []

        def fails_on_fourth_call(us):
            started.append(next(calls))
            if started[-1] == 4:
                raise FourthCall
            return np.ones(len(us))

        with pytest.raises(FourthCall):
            integrate(fails_on_fourth_call)
        # the failing thread drains the shared block iterator, so only
        # threads already between two blocks can start one more
        assert max(started) <= 4 + workers - 1
        # each call joins its threads, whether it raises or returns, and the
        # next call gives the same result, bit for bit, as before the failure
        assert mc_threads() == []
        assert integrate(ones).estimate == expected
        assert mc_threads() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocks_run_on_the_caller_and_at_most_workers_threads(monkeypatch, workers):
    # block 0 runs alone on the caller, which then shares the other blocks
    # with workers - 1 threads of its own; with one worker no thread starts
    monkeypatch.setattr(haar, "_WORKERS", workers)
    caller = threading.current_thread().name
    names = []

    def where(us):
        names.append(threading.current_thread().name)
        return np.ones(len(us))

    integrate_mc(where, 8 * haar._BLOCK_ROWS, 1)
    mc_names = list(names)
    assert len(mc_names) == 8 and mc_names[0] == caller
    integrate_quadrature(where, 7)
    assert names[8] == caller
    assert len(set(names)) <= workers and caller in names
    assert all(name.startswith("su3geom-mc") for name in set(names) - {caller})
    if workers > 1:
        # 7 of 8 Monte Carlo blocks after block 0: the caller takes some
        assert mc_names.count(caller) > 1
    else:
        assert set(names) == {caller}
    assert mc_threads() == []


def test_shared_block_iterator_under_thread_stress(monkeypatch):
    # more threads than cores and a 1 us switch interval: each block still
    # runs exactly once and the sums come out bit for bit the same
    schur = verify.schur_integrands
    expected = integrate_quadrature(schur, 7).estimate
    monkeypatch.setattr(haar, "_WORKERS", 8)
    sizes = []

    def counted(us):
        sizes.append(len(us))
        return schur(us)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = integrate_quadrature(counted, 7).estimate
    finally:
        sys.setswitchinterval(interval)
    assert len(sizes) == 27 and sum(sizes) == 201_684
    assert np.array_equal(got, expected)
    assert mc_threads() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork test runs on Linux")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
def test_forked_child_runs_monte_carlo():
    # a child forked after Monte Carlo calls inherits no threads, and its
    # own calls must still run every chunk
    integrate_mc(verify.schur_integrands, 8 * haar._BLOCK_ROWS, 1)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            verify.character_integrals_mc(3 * haar._BLOCK_ROWS, 1)
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


def test_quadrature_known_moments_are_exact():
    # Gauss-Legendre nodes in s = sin^2 x integrate a polynomial of degree
    # d in U and d in conj U exactly from 2d + 1 nodes per axis; the targets
    # are Diaconis-Shahshahani (|tr U|^2k) and the uniform first row on S^5
    def moments(us):
        tr = np.einsum("nii->n", us)
        return np.stack([np.abs(tr) ** 2, np.abs(tr) ** 4, np.abs(us[:, 0, 0]) ** 4,
                         np.abs(tr) ** 6, tr ** 3], axis=1)

    r = integrate_quadrature(lambda us: moments(us)[:, :3], 5)
    assert np.all(np.abs(r.estimate - [1.0, 2.0, 1 / 6]) <= 1e-13)
    r = integrate_quadrature(lambda us: moments(us)[:, 3:], 7)
    assert np.all(np.abs(r.estimate - [6.0, 1.0]) <= 1e-12)


@pytest.mark.parametrize("nodes", [5, 6, 7])
def test_quadrature_schur_integrals_are_exact_from_five_nodes(nodes):
    r = integrate_quadrature(verify.schur_integrands, nodes)
    assert np.all(np.abs(r.estimate - verify.SCHUR_TARGETS) <= 1e-15)


def test_quadrature_aliases_below_degree_two():
    # 3 and 4 nodes both mean degree 1 and build one 486-node grid, on which
    # |tr U|^4, of degree 2, aliases: 2.5534 instead of 2
    def tr4(us):
        return np.abs(np.einsum("nii->n", us)) ** 4

    three, four = (integrate_quadrature(tr4, nodes).estimate for nodes in (3, 4))
    assert three == four
    assert abs(three - 2.5534249) <= 1e-7


@pytest.mark.parametrize("nodes", [8, 9, 10])
def test_quadrature_is_exact_on_monomials_the_centre_changes(nodes):
    # U_11 U_22 conj(U_33)^p has centre charge 2 - p, so its Haar mean is 0,
    # and n0 - n2 = 1 + p; an even phi count 2m would let n0 - n2 = m through,
    # giving -1/12 for p = 3 on 8 phi nodes and -0.0636 for p = 4 on 10
    def monomials(us):
        return (us[:, 0, 0] * us[:, 1, 1])[:, None] * np.conj(us[:, 2, 2])[:, None] ** [3, 4]

    assert np.all(np.abs(integrate_quadrature(monomials, nodes).estimate) <= 1e-14)


def test_quadrature_is_exact_on_every_monomial_of_degree_two_the_centre_changes():
    # the 55 monomials P of degree <= 2 in the entries of U, each the product
    # of two entries of (1, U_11, U_12, ..., U_33); the 918 products
    # P_i conj(P_j) whose degrees in U and conj U differ by 1 or 2 are
    # changed by w = e^{2 pi i/3}, so their Haar mean is 0; at 5 nodes, in
    # chunks of 64 columns to keep each block's values small
    first, second = np.array([(0, 0)] + [(0, e) for e in range(1, 10)] + list(
        itertools.combinations_with_replacement(range(1, 10), 2))).T
    degree = (first > 0).astype(int) + (second > 0)
    rows, cols = np.nonzero((degree[:, None] - degree[None, :]) % 3)
    assert len(rows) == 918

    def products(us, i, j):
        entries = np.concatenate([np.ones((len(us), 1)), us.reshape(-1, 9)], axis=1)
        powers = entries[:, first] * entries[:, second]
        return powers[:, i] * np.conj(powers[:, j])

    for k in range(0, len(rows), 64):
        i, j = rows[k:k + 64], cols[k:k + 64]
        r = integrate_quadrature(lambda us: products(us, i, j), 5)
        assert np.all(np.abs(r.estimate) <= 1e-14)


@pytest.mark.parametrize("ranges", [{"beta": (0.0, PI)}, {"theta": (-0.1, PI / 2)},
                                    {"b": (PI / 2, 2.0)}, {"theta": (0.0, 200.0)}])
def test_quadrature_rejects_weighted_range_outside_quarter_turn(ranges):
    # s = sin^2 x is monotone only on [0, pi/2]; the box is checked once, when
    # it is built, so the volume and the quadrature rule never see it
    with pytest.raises(ValueError, match="pi/2"):
        AngleRanges(**ranges)


@pytest.mark.parametrize("ranges", [
    {"beta": (0.0, math.nan)}, {"phi": (0.0, math.inf)}, {"alpha": (-math.inf, 1.0)},
    {"gamma": (1.0, 1.0)}, {"theta": (0.5, 0.5)}, {"a": (2.0, 1.0)}, {"b": (0.5, 0.25)},
], ids=["nan", "inf", "neg-inf", "empty-flat", "empty-weighted", "reversed-flat",
        "reversed-weighted"])
def test_angle_ranges_rejects_nonfinite_or_empty_range(ranges):
    with pytest.raises(ValueError, match="finite lo < hi"):
        AngleRanges(**ranges)


@pytest.mark.parametrize("size", [1000, 1], ids=["stack", "one"])
@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_schur_integrands_match_a_trace_reference(size, writeable):
    us = compose_many(sample_angles(size, 14))
    us.flags.writeable = writeable
    before = us.copy()
    got = verify.schur_integrands(us)
    tr = np.trace(us, axis1=1, axis2=2)
    expected = (np.abs(tr) ** 2, tr, (np.abs(tr) ** 2 - 1.0) ** 2, tr ** 2)
    assert got.shape == (size, 4) and got.dtype == complex
    for k, column in enumerate(expected):
        np.testing.assert_allclose(got[:, k], column, rtol=1e-13, atol=0)
    assert np.array_equal(us, before)


def test_quadrature_columns_match_single_integrands():
    schur = verify.schur_integrands
    r = integrate_quadrature(schur, 3)
    assert r.estimate.shape == (4,)
    for k in range(4):
        single = integrate_quadrature(lambda us: schur(us)[:, k], 3)
        assert single.n == r.n
        assert single.estimate == r.estimate[k]


def test_character_quadrature_composes_half_grids_once(monkeypatch):
    rows = []
    original = haar.compose_many

    def counting(xs):
        rows.append(len(xs))
        return original(xs)

    monkeypatch.setattr(haar, "compose_many", counting)
    verify.character_integrals_quadrature(3)
    # 3 nodes mean degree 1: the left half-grid has 3 nodes on alpha and
    # gamma, 1 on beta and 2 on theta, the right one 3 on a, c and phi and
    # 1 on b; no grid node is composed on its own
    assert sum(rows) == 3 * 1 * 3 * 2 + 3 * 1 * 3 * 3


def test_quadrature_integrand_may_run_a_quadrature():
    # each thread forms its blocks in one reused array; a call nested in
    # the integrand must not form its nodes in the array the outer call's
    # integrand is reading
    schur = verify.schur_integrands

    def nested(us):
        integrate_quadrature(schur, 7)
        return schur(us)

    assert np.array_equal(integrate_quadrature(nested, 5).estimate,
                          integrate_quadrature(schur, 5).estimate)


def test_quadrature_integrand_gets_a_read_only_stack():
    # the next block overwrites the stack, so an integrand may not write
    # to it, and one that writes in place fails instead of corrupting it
    flags = []

    def writes(us):
        flags.append(us.flags.writeable)
        us *= 2
        return np.ones(len(us))

    with pytest.raises(ValueError, match="read-only"):
        integrate_quadrature(writes, 5)
    assert flags == [False]


def test_integrands_see_entry_major_stacks():
    # both integrators hand f an (m, 3, 3) view whose nine entries are the
    # contiguous rows of us.reshape(m, 9).T; the quadrature stack is
    # read-only, since the next block overwrites it
    seen = []

    def spy(us):
        rows = us.reshape(len(us), 9).T
        seen.append((rows.flags.c_contiguous, np.shares_memory(rows, us),
                     us.flags.writeable))
        return rows[0].real

    integrate_mc(spy, haar._BLOCK_ROWS + 5, 3)
    assert seen == [(True, True, True)] * 2
    seen.clear()
    integrate_quadrature(spy, 5)
    assert len(seen) > 1 and set(seen) == {(True, True, False)}


def whole_grid_mean(f, nodes):
    """The product rule with the whole meshgrid built at once."""
    axes = [haar._quad_axis(dim, (nodes - 1) // 2) for dim in range(8)]
    X = np.stack([g.ravel() for g in
                  np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=1)
    W = np.prod([g.ravel() for g in
                 np.meshgrid(*[w for _, w in axes], indexing="ij")], axis=0)
    return np.array([np.sum(W * v) for v in f(compose_many(X)).T]) / W.sum()


@pytest.mark.parametrize("nodes", [6, 8])
def test_streamed_grid_matches_whole_grid(monkeypatch, nodes):
    schur = verify.schur_integrands
    expected = whole_grid_mean(schur, nodes)
    mean_abs = whole_grid_mean(lambda us: np.abs(schur(us)), nodes)
    sizes = [len(haar._quad_axis(dim, (nodes - 1) // 2)[0]) for dim in range(8)]
    left, right = math.prod(sizes[:4]), math.prod(sizes[4:])

    def bound(blocks):
        # the streamed sum adds `blocks` block sums one after another, and
        # each pairwise sum of the total nodes rounds about log2(total)
        # times per term; every rounding is within eps/2 of the weighted
        # |f| it adds up, once for f and once for the weights
        return (blocks + math.log2(left * right)) * np.finfo(float).eps * mean_abs

    # blocks of 9.5 right half-grids: several blocks of 9 whole left rows,
    # the last one partial (100 and 294 left rows)
    rows = 9
    assert left // rows > 5 and left % rows != 0
    monkeypatch.setattr(haar, "_BLOCK_ROWS", rows * right + right // 2)
    means = integrate_quadrature(schur, nodes).estimate
    assert np.all(np.abs(means - expected) <= bound(-(-left // rows)))
    # 50-node blocks, below every right half-grid here (250 to 686 nodes):
    # each block holds one left row
    assert right > 50
    monkeypatch.setattr(haar, "_BLOCK_ROWS", 50)
    means = integrate_quadrature(schur, nodes).estimate
    assert np.all(np.abs(means - expected) <= bound(left))


def test_character_quadrature_memory_peak():
    # the whole 390 625-node grid of 5 Gauss nodes on every weighted axis
    # took 137 MB, 131 072-node blocks one at a time about 56, 16 384-node
    # blocks, a few at once, about 11; the 25 000 nodes of the degree-2
    # grid took about 5.5 in 16 384-node blocks and take about 4.9 in
    # 8192-node blocks, each thread forming its blocks in one array
    tracemalloc.start()
    try:
        verify.character_integrals_quadrature(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("nodes, grid", [(3, 486), (4, 486), (5, 25_000),
                                         (6, 25_000), (7, 201_684), (8, 201_684)])
def test_quadrature_node_count(nodes, grid):
    # the node count sets the run time, and the degree d = (nodes - 1) // 2
    # alone sets the grid: 2d + 1 midpoint nodes on alpha, gamma, a, c and
    # phi and only the Gauss nodes that d needs on beta, b and theta, so an
    # even count builds the grid of the odd count below it
    r = integrate_quadrature(lambda us: np.ones(len(us)), nodes)
    assert (r.n, r.degree) == (grid, (nodes - 1) // 2)


def test_quadrature_node_cap(monkeypatch):
    # 13 nodes per flat axis (23.8 M grid nodes) are the fewest that exceed
    # NODE_CAP = 8^8, 11 and 12 make 5.8 M, and the call fails before f
    # sees a single node or any axis is built
    calls = []

    def f(us):
        calls.append(len(us))
        return np.ones(len(us))

    def grid(nodes):
        return math.prod(len(haar._quad_axis(dim, (nodes - 1) // 2)[0]) for dim in range(8))

    assert haar.NODE_CAP == 8 ** 8
    assert grid(11) == grid(12) == 5_797_836 <= haar.NODE_CAP < grid(13) == 23_762_752

    def no_axis(*args):
        raise AssertionError("built an axis of a grid over the cap")

    monkeypatch.setattr(haar, "_quad_axis", no_axis)
    # a weighted axis of 1 000 001 nodes per flat axis alone would be a
    # 250 001 x 250 001 eigenproblem
    for nodes in (13, 1_000_001):
        with pytest.raises(ValueError, match="cap"):
            integrate_quadrature(f, nodes)
    assert calls == []


def test_quadrature_minimum_nodes():
    with pytest.raises(ValueError):
        integrate_quadrature(lambda us: np.ones(len(us)), 1)


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


@pytest.mark.parametrize("ranges", [RANGES_STATED, RANGES_COVER, AngleRanges(phi=(0, 5)),
                                    RANGES_QUAD])
def test_group_volume_matches_gauss_legendre(ranges):
    assert group_volume(ranges) == pytest.approx(gauss_legendre_volume(ranges),
                                                 rel=1e-12, abs=0)


def test_volume_report_fields():
    rep = volume_report()
    # no field derived from another repeats a value that cannot differ
    assert set(rep) == {"analytic", "pi^5", "sphere_product_target",
                        "analytic_over_pi^5", "analytic_over_target",
                        "exact_cover_volume", "note"}
    assert rep["analytic"] == pytest.approx(PI ** 5, rel=1e-12)
    assert rep["sphere_product_target"] == pytest.approx(2 * PI ** 5)
    assert rep["analytic_over_target"] == pytest.approx(0.5, rel=1e-12)


def measure_check(name):
    return next(c for c in verify.suite_measure(1000, 7) if c.name == name)


@pytest.mark.parametrize("ranges,multiplicity", [
    (RANGES_COVER, 1.0), (RANGES_STATED, 1 / (2 * math.sqrt(3.0))),
    (RANGES_QUAD, 8.0)], ids=["cover", "stated", "quad"])
def test_cover_volume_check_rejects_other_boxes(monkeypatch, ranges, multiplicity):
    # the stated box misses part of the group; RANGES_QUAD covers it 8 times
    monkeypatch.setattr(haar, "RANGES_COVER", ranges)
    check = measure_check("measure.cover_volume")
    assert check.residual == pytest.approx(abs(multiplicity - 1.0), abs=1e-12)
    assert check.passed == (ranges is RANGES_COVER)


def test_decompose_roundtrip_check_rejects_angles_outside_the_box(monkeypatch):
    # gamma + 2 pi gives the same element, so only the box test can fail
    def shifted(u, full_output=False):
        rep = decompose(u, full_output=True)
        x = rep.angles.as_array()
        x[2] += 2 * PI
        return dataclasses.replace(rep, angles=EulerAngles(*x))

    assert measure_check("measure.decompose_roundtrip").passed
    monkeypatch.setattr(verify, "decompose", shifted)
    check = measure_check("measure.decompose_roundtrip")
    assert check.residual == 1.0 and not check.passed


def test_decompose_roundtrip_check_fails_on_a_residual_defect(monkeypatch):
    # alpha off by 1e-6 leaves ||compose(angles) - U||_F ~ 1.4e-6: decompose
    # raises, and the check reports an infinite residual instead of raising
    analytic = euler._analytic_decompose

    def off(U):
        x = analytic(U)
        x[0] += 1e-6
        return x

    monkeypatch.setattr(euler, "_analytic_decompose", off)
    with pytest.raises(DecompositionError, match="exceeds 1e-9"):
        decompose(compose_many(sample_angles(1, 3))[0])
    checks = list(verify.suite_measure(2000, 7))
    assert len(checks) == 9
    assert [c.name for c in checks if not c.passed] == ["measure.decompose_roundtrip"]
    assert checks[-1].residual == math.inf


def test_translation_invariance_detail_names_the_samples_it_averaged(monkeypatch):
    assert "the same 1000 samples" in measure_check("measure.translation_invariance").detail
    # above the cap the check averages 200 000 samples, and says so
    sizes = []

    def recording(n, seed):
        sizes.append(n)
        return 0.0

    monkeypatch.setattr(verify, "invariance_deviations", recording)
    check = next(c for c in verify.suite_measure(300_000, 7)
                 if c.name == "measure.translation_invariance")
    assert sizes == [200_000]
    assert "the same 200000 samples" in check.detail


def test_group_ops_check_fails_on_a_non_canonical_fold(monkeypatch):
    # alpha = pi + 0.25 unfolded is the same element outside the cover box
    monkeypatch.setattr(verify, "canonicalize", lambda x: EulerAngles(*x))
    check = measure_check("measure.group_ops")
    assert check.residual == 1.0 and not check.passed


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_character_values():
    I3 = np.eye(3, dtype=complex)
    assert character(I3, "fundamental") == 3.0
    assert character(I3, "adjoint") == 8.0


def test_character_adjoint_real():
    us = compose_many(sample_angles(20, 33))
    vals = character(us, "adjoint")
    assert np.max(np.abs(vals.imag)) == 0.0
    for u in us[:5]:
        assert character(u, "adjoint").imag == 0.0


def test_character_unknown_rep():
    for rep in ("sextet", "antifundamental"):
        with pytest.raises(ValueError, match="representation"):
            character(np.eye(3), rep)


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
    stacks, over the same sample stream as ``invariance_deviations``: the
    paired differences f(gU) - f(U) and f(Ug) - f(U), each mean over 4 times
    its own standard error."""
    gs = compose_many(sample_angles(5, seed + 17))
    groups = [("class", "gU", k, f) for k, f in enumerate(_CLASS_REFERENCE)]
    groups += [("entry", side, k, f) for side in ("gU", "Ug")
               for k, f in enumerate(_ENTRY_REFERENCE)]

    def values(us):
        stacks = {"gU": [g @ us for g in gs], "Ug": [us @ g for g in gs]}
        return np.stack([f(v) - f(us) for _, side, _, f in groups
                         for v in stacks[side]], axis=1)

    r = integrate_mc(values, n, seed)
    ratios = np.abs(r.estimate) / (4 * r.std_error)
    return {(kind, side, k): float(np.max(ratios[5 * i:5 * i + 5]))
            for i, (kind, side, k, _) in enumerate(groups)}


def test_invariance_deviations_match_explicit_translates():
    # at these seeds the worst ratio falls, in turn, on each of the three
    # class functions of gU and on each entry function of gU and of Ug
    worst_at = set()
    for seed in (0, 1, 2, 3, 4, 10, 13):
        ratios = _invariance_reference(4000, seed)
        key = max(ratios, key=ratios.get)
        worst_at.add(key)
        assert verify.invariance_deviations(4000, seed) == pytest.approx(
            ratios[key], rel=1e-12, abs=0)
    assert worst_at == ({("class", "gU", k) for k in range(3)}
                        | {("entry", side, k) for side in ("gU", "Ug")
                           for k in range(2)})


def test_trace_of_the_square_follows_from_the_trace_on_su3():
    # Cayley-Hamilton with det M = 1, on which the invariance integrand
    # forms Re tr M^2 from tr M: tr M^2 = (tr M)^2 - 2 conj(tr M)
    def miss(ms):
        t = _trace(ms)
        return float(np.max(np.abs(_trace(ms @ ms) - (t * t - 2 * np.conj(t)))))

    ms = compose_many(sample_angles(2000, 19))
    assert miss(ms) <= 1e-13
    # a phase off the centre makes det M = e^{3 i pi / 7} != 1
    assert miss(np.exp(1j * PI / 7) * ms) > 0.1


@pytest.mark.parametrize("m", [haar._BLOCK_ROWS, 3], ids=["full", "3-row"])
def test_invariance_integrand_matches_explicit_translates(monkeypatch, m):
    # every one of the 35 columns, in the integrand's order: for each g,
    # the class and entry functions of gU, then the entry functions of Ug,
    # each less its value at U; the integrand is recorded on its way to
    # integrate_mc
    integrands = []

    def recording(f, n, seed):
        integrands.append(f)
        return integrate_mc(f, n, seed)

    monkeypatch.setattr(haar, "integrate_mc", recording)
    verify.invariance_deviations(100, 4)
    (f,) = integrands
    gs = compose_many(sample_angles(5, 4 + 17))
    us = compose_many(sample_angles(m, 23))
    expected = np.stack(
        [fn(v) - fn(us) for g in gs
         for v, fns in ((g @ us, _CLASS_REFERENCE + _ENTRY_REFERENCE),
                        (us @ g, _ENTRY_REFERENCE))
         for fn in fns], axis=1)
    # the entry-major stack as the integrators hand it, and a C-order copy
    for stack in (us, np.ascontiguousarray(us)):
        vals = f(stack)
        assert vals.shape == (m, 35)
        np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-13)


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


def _quadrature_translation_gaps(seed):
    """Worst |E f(gU) - E f(U)| and |E f(Ug) - E f(U)| by the 5-node rule,
    over five g, the class and entry functions and |M_11|^4."""
    gs = compose_many(sample_angles(5, seed))
    fs = _CLASS_REFERENCE + _ENTRY_REFERENCE + (lambda v: np.abs(v[:, 0, 0]) ** 4,)

    def values(us):
        stacks = [us] + [g @ us for g in gs] + [us @ g for g in gs]
        return np.stack([f(v) for v in stacks for f in fs], axis=1)

    means = integrate_quadrature(values, 5).estimate.reshape(-1, len(fs))
    return float(np.max(np.abs(means[1:] - means[0])))


def test_quadrature_density_is_bi_invariant():
    # f(gU) and f(Ug) have the degree of f, at most 2 in U and in conj U,
    # so the 5-node rule integrates both exactly: the paper's density is
    # left and right invariant to roundoff (4.4e-16), not to 4 sigma
    for seed in (0, 1, 42):
        assert _quadrature_translation_gaps(seed) <= 1e-12


def test_quadrature_bi_invariance_needs_sin2_theta(monkeypatch):
    # without the sin^2 theta factor the density is not invariant, and the
    # exact rule shows it at order 1 (|tr|^2 moves by 0.374)
    monkeypatch.setitem(haar._SIN2_POWER, 3, 0)
    assert _quadrature_translation_gaps(0) > 0.1


def test_invariance_deviations_span_a_partial_last_block():
    # the last block holds 3 rows; at these seeds the worst ratio falls,
    # in turn, on each class function of gU and each entry function of gU
    # and of Ug
    n = haar._BLOCK_ROWS + 3
    worst_at = set()
    for seed in (0, 1, 6, 9, 10, 13, 23):
        ratios = _invariance_reference(n, seed)
        key = max(ratios, key=ratios.get)
        worst_at.add(key)
        assert verify.invariance_deviations(n, seed) == pytest.approx(
            ratios[key], rel=1e-12, abs=0)
    assert len(worst_at) == 7


def test_invariance_deviations_memory_peak():
    # per block and thread, one at a time: the block as compose_many
    # returns it (9 entry-major (m,) complex rows, which the integrand
    # reads as a view, not a copy), one translated element's 9 entries at a
    # time, the (35, m) real paired differences and the (5, m) untranslated
    # values they subtract, about 13.6 MB on two cores (15.1 if the 9 rows
    # of gU stay alive while the first row of Ug is formed; 26 with 16 384-row
    # blocks, the caller idle and two more threads); the bound keeps
    # haar_mc's peak RSS from growing
    tracemalloc.start()
    try:
        verify.invariance_deviations(100_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6, f"tracemalloc peak {peak / 1e6:.1f} MB"
