"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line with the measured residual and
runtime (run pytest with -s to see them on passing runs as well).
"""

import math
import time

import numpy as np
import pytest

from su3geom import haar
from su3geom.euler import compose, compose_many, decompose
from su3geom.gellmann import gell_mann_matrix
from su3geom.invariant_forms import right_coframe
from su3geom.tangent_frames import adjoint_matrix, left_field_frame, right_field_frame
from su3geom.verify import (COMMUTATOR_TABLE, compare_table,
                            defining_relation_residual, duality_residual,
                            frame_bracket_residuals, haar_interior_points,
                            character_integrals_mc,
                            character_integrals_quadrature,
                            invariance_deviations)

from conftest import gauss_legendre_volume, references

SEED_MC = 20250810
N_MC = 1_000_000


def report(num, name, passed, residual, threshold, t0, budget=None):
    dt = time.perf_counter() - t0
    mark = "PASS" if passed else "FAIL"
    line = (f"ACCEPTANCE {num:02d} {name}: {mark} "
            f"(residual {residual:.3e}, threshold {threshold:.1e}, {dt:.2f} s)")
    print(line)
    assert passed, line
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget} s budget ({dt:.1f} s)"


@pytest.fixture(scope="module")
def points100():
    return haar_interior_points(100, seed=424242)


def test_criterion_01_commutator_table():
    t0 = time.perf_counter()
    worst = 0.0
    for (i, j), coeffs in COMMUTATOR_TABLE.items():
        expected = sum((w * gell_mann_matrix(k) for k, w in coeffs.items()),
                       np.zeros((3, 3), dtype=complex))
        got = (gell_mann_matrix(i) @ gell_mann_matrix(j)
               - gell_mann_matrix(j) @ gell_mann_matrix(i))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report(1, "commutator-table (36 pairs)", worst <= 1e-12, worst, 1e-12,
           t0, budget=1.0)


def test_criterion_02_defining_relations(points100):
    t0 = time.perf_counter()
    worst = max(defining_relation_residual(points100, "left"),
                defining_relation_residual(points100, "right"))
    report(2, "defining relations (both chiralities, 100 points)",
           worst <= 1e-9, worst, 1e-9, t0, budget=10.0)


def test_criterion_03_closed_tables(points100):
    t0 = time.perf_counter()
    ok = True
    n_flagged = 0
    unexplained = 0.0
    for chirality in ("left", "right"):
        for table in ("field", "form"):
            diff = compare_table(points100, chirality, table)
            n_flagged += len(diff.entries)
            unexplained = max(unexplained, diff.unexplained_residual)
            ok = ok and diff.stable
            if diff.entries:
                print(f"  typo report [{chirality} {table}]: {diff.describe()}")
    print(f"  {n_flagged} flagged typo entries; largest unexplained "
          f"mismatch {unexplained:.3e}")
    report(3, "closed tables vs constructive (agreement or stable typo report)",
           ok, unexplained, 1e-9, t0, budget=10.0)


def test_criterion_04_duality(points100):
    t0 = time.perf_counter()
    worst = max(duality_residual(points100, "left"),
                duality_residual(points100, "right"))
    report(4, "coframe/frame duality (100 points)", worst <= 1e-9, worst,
           1e-9, t0)


def test_criterion_05_density_ratio(points100):
    t0 = time.perf_counter()
    rho = haar.density(points100)
    rl = haar.density_from_coframe(points100) / rho
    rr = np.abs(np.linalg.det(right_coframe(points100).entries)) / rho
    spread = max(np.ptp(rl) / rl.mean(), np.ptp(rr) / rr.mean())
    same = abs(rl.mean() - rr.mean()) / rl.mean()
    worst = float(max(spread, same))
    print(f"  |det coframe| / density = {rl.mean():.12f} (left and right)")
    report(5, "coframe determinant / density constant", worst <= 1e-8,
           worst, 1e-8, t0)


def test_criterion_06_adjoint(points100):
    t0 = time.perf_counter()
    us = compose_many(haar.sample_angles(100, SEED_MC + 6))
    R = adjoint_matrix(us)
    worst_prop = float(max(
        np.linalg.norm(R @ np.swapaxes(R, 1, 2) - np.eye(8), axis=(1, 2)).max(),
        np.abs(np.linalg.det(R) - 1.0).max(),
        np.linalg.norm(adjoint_matrix(us[0::2] @ us[1::2]) - R[0::2] @ R[1::2],
                       axis=(1, 2)).max()))
    R = adjoint_matrix(compose_many(points100))
    worst_link = float(np.max(np.abs(
        right_field_frame(points100).entries
        - np.swapaxes(R, 1, 2) @ left_field_frame(points100).entries)))
    passed = worst_prop <= 1e-10 and worst_link <= 1e-9
    print(f"  orthogonality/homomorphism residual {worst_prop:.3e} (<= 1e-10), "
          f"frame link residual {worst_link:.3e} (<= 1e-9, sign +1)")
    report(6, "adjoint representation", passed, max(worst_prop, worst_link),
           1e-9, t0)


def test_criterion_07_characters():
    t0 = time.perf_counter()
    worst_mc = 0.0
    for name, val, se, target in character_integrals_mc(N_MC, SEED_MC):
        dev = abs(val - target)
        worst_mc = max(worst_mc, dev / (4 * se))
        print(f"  MC {name} = {val.real:+.5f}{val.imag:+.5f}i "
              f"(target {target}, 4*se {4 * se:.1e})")
    t_mc = time.perf_counter() - t0
    assert t_mc < 60.0, f"MC stage took {t_mc:.1f} s"

    t1 = time.perf_counter()
    worst_quad = 0.0
    for name, val, _, target in character_integrals_quadrature(6):
        worst_quad = max(worst_quad, abs(val - target))
        print(f"  quadrature {name} = {val.real:+.5f}{val.imag:+.5f}i "
              f"(target {target})")
    t_quad = time.perf_counter() - t1
    assert t_quad < 120.0, f"quadrature stage took {t_quad:.1f} s"

    passed = worst_mc <= 1.0 and worst_quad <= 0.02
    report(7, "character orthogonality (MC 1e6 within 4 sigma; "
              "quadrature 6 nodes within 0.02)", passed,
           max(worst_mc, worst_quad / 0.02), 1.0, t0)


def test_criterion_08_invariance():
    t0 = time.perf_counter()
    worst = invariance_deviations(N_MC, SEED_MC + 8)
    report(8, "translation invariance (5 translations; 3 class functions "
              "on the left, 2 entry functions on both sides; units of "
              "4 sigma)", worst <= 1.0, worst, 1.0, t0)


def test_criterion_09_volume():
    t0 = time.perf_counter()
    rep = haar.volume_report()
    pi5 = math.pi ** 5
    quad_err = abs(rep["analytic"] / gauss_legendre_volume(haar.RANGES_STATED) - 1.0)
    ok = (abs(rep["analytic"] - pi5) <= 1e-10 * pi5
          and quad_err <= 1e-10
          and rep["sphere_product_target"] == pytest.approx(2 * pi5)
          and rep["analytic_over_target"] == pytest.approx(0.5, rel=1e-12))
    print(f"  analytic volume over stated ranges = {rep['analytic']:.10f} "
          f"(pi^5 = {pi5:.10f})")
    print(f"  sphere-product target 2 pi^5 = {rep['sphere_product_target']:.10f}; "
          f"observed factor {rep['analytic_over_target']:.3f} (the stated "
          f"ranges fall short of the target by exactly 2)")
    print(f"  exact-cover volume = {rep['exact_cover_volume']:.10f} "
          f"(= 2 sqrt(3) pi^5)")
    report(9, "volume: analytic pi^5, quadrature agreement 1e-10",
           ok, quad_err, 1e-10, t0)


def test_criterion_10_decomposition_roundtrip():
    t0 = time.perf_counter()
    worst = 0.0
    for u in references.qr_haar_su3(1000, np.random.default_rng(SEED_MC + 10)):
        rep = decompose(u, full_output=True)
        worst = max(worst, rep.residual)

    # constructed boundary cases: each quarter-angle pinned to its edges
    base = np.array([0.9, 0.6, 1.3, 0.7, 1.1, 0.8, 0.5, 2.0])
    boundary = []
    for idx in (1, 3, 5):
        for v in (0.0, math.pi / 2):
            x = base.copy()
            x[idx] = v
            boundary.append(x)
    for combo in ((1, 3), (1, 5), (3, 5)):
        for v1 in (0.0, math.pi / 2):
            for v2 in (0.0, math.pi / 2):
                x = base.copy()
                x[combo[0]], x[combo[1]] = v1, v2
                boundary.append(x)
    assert len(boundary) >= 18
    boundary.append(np.zeros(8))
    boundary.append(np.array([0, 0, 0, math.pi / 2, 0, 0, 0, 0.0]))
    for x in boundary:
        rep = decompose(compose(x), full_output=True)
        worst = max(worst, rep.residual)
    report(10, f"decomposition roundtrip (1000 sampled + {len(boundary)} "
               f"boundary elements)", worst <= 1e-9, worst, 1e-9, t0,
           budget=10.0)


def test_criterion_11_frame_brackets():
    t0 = time.perf_counter()
    pts = haar_interior_points(10, seed=SEED_MC + 11, margin=0.2)
    worst = max(frame_bracket_residuals(pts))
    report(11, "frame commutation relations (10 points, both chiralities "
               "and cross)", worst <= 1e-6, worst, 1e-6, t0)
