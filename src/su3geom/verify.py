"""Identity checks: every structural claim the library rests on, runnable.

Four suites (algebra, frames, forms, measure) return lists of
:class:`CheckResult`; the CLI renders them and exit-codes on failures.
The closed-form tables are compared entrywise against the constructive
frames/coframes, and persistent mismatches are collected into a
:class:`TableDiff` typo report: the constructive route is ground truth,
the transcribed tables are the document under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import haar
from .euler import (COORD_NAMES, EulerAngles, PHI_PERIOD, compose, compose_many,
                    decompose, su2_subelement, canonicalize, factor_exponential)
from .gellmann import (LAMBDA, SQRT3, commutator, expand_in_basis,
                       gell_mann_matrix, structure_constants, verify_cartan_split)
from .invariant_forms import (left_coframe, left_coframe_closed,
                              maurer_cartan_matrix, right_coframe,
                              right_coframe_closed)
from .tangent_frames import (adjoint_matrix, left_field_frame,
                             left_field_frame_closed, maurer_cartan_coefficients,
                             partial_derivatives, right_field_frame,
                             right_field_frame_closed)

#: The full commutator table, unordered pairs i <= j: [lam_i, lam_j] as a
#: sparse {k: coefficient} map.  This is independent input data, not derived
#: from the code under test.
_I = 1j
_IS3 = 1j * SQRT3
COMMUTATOR_TABLE = {
    (1, 2): {3: 2 * _I}, (1, 3): {2: -2 * _I}, (1, 4): {7: _I},
    (1, 5): {6: -_I}, (1, 6): {5: _I}, (1, 7): {4: -_I}, (1, 8): {},
    (2, 3): {1: 2 * _I}, (2, 4): {6: _I}, (2, 5): {7: _I},
    (2, 6): {4: -_I}, (2, 7): {5: -_I}, (2, 8): {},
    (3, 4): {5: _I}, (3, 5): {4: -_I}, (3, 6): {7: -_I}, (3, 7): {6: _I},
    (3, 8): {},
    (4, 5): {3: _I, 8: _IS3}, (4, 6): {2: _I}, (4, 7): {1: _I},
    (4, 8): {5: -_IS3},
    (5, 6): {1: -_I}, (5, 7): {2: _I}, (5, 8): {4: _IS3},
    (6, 7): {3: -_I, 8: _IS3}, (6, 8): {7: -_IS3}, (7, 8): {6: _IS3},
}
for _i in range(1, 9):
    COMMUTATOR_TABLE[(_i, _i)] = {}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "threshold": self.threshold,
                "detail": self.detail}


@dataclass(frozen=True)
class EntryMismatch:
    """A closed-table entry that persistently disagrees with the construction."""

    table: str       # 'field' or 'form'
    chirality: str
    row: int         # 1-based field/form index
    column: str      # coordinate / differential name
    max_abs_diff: float
    mismatch_fraction: float
    closed_sample: complex
    constructive_sample: complex

    def describe(self):
        return (f"{self.chirality} {self.table} {self.row}, "
                f"{self.column}-entry: |closed - constructive| up to "
                f"{self.max_abs_diff:.3e} at {self.mismatch_fraction:.0%} "
                f"of points")


@dataclass
class TableDiff:
    """Entrywise diff of a transcribed table against the constructive one."""

    table: str
    chirality: str
    tol: float
    n_points: int
    entries: list = field(default_factory=list)

    @property
    def clean(self):
        return not self.entries

    @property
    def stable(self):
        """Every flagged entry mismatches at most points (not point noise)."""
        return all(e.mismatch_fraction >= 0.5 for e in self.entries)

    @property
    def unexplained_residual(self):
        """Largest diff among entries the stable typo report cannot claim."""
        return max((e.max_abs_diff for e in self.entries
                    if e.mismatch_fraction < 0.5), default=0.0)

    def describe(self):
        if self.clean:
            return (f"{self.chirality} {self.table} table matches the "
                    f"constructive frame at all {self.n_points} points")
        lines = [e.describe() for e in self.entries]
        return "suspected transcription typos: " + "; ".join(lines)


def haar_interior_points(n, seed, margin=0.05):
    """Haar-random angle rows with all chart denominators >= margin."""
    out = []
    batch = max(4 * n, 64)
    stream = 0
    while len(out) < n:
        xs = haar.sample_angles(batch, seed + stream)
        stream += 1
        ok = (
            (np.abs(np.sin(2 * xs[:, 1])) >= margin)
            & (np.abs(np.sin(2 * xs[:, 5])) >= margin)
            & (np.abs(np.sin(2 * xs[:, 3])) >= margin)
            & (np.abs(np.sin(xs[:, 3])) >= margin)
        )
        out.extend(xs[ok])
    return np.array(out[:n])


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def suite_algebra(tol=1e-12):
    checks = []

    worst = 0.0
    n_pairs = 0
    for (i, j), coeffs in sorted(COMMUTATOR_TABLE.items()):
        expected = sum((w * gell_mann_matrix(k) for k, w in coeffs.items()),
                       np.zeros((3, 3), dtype=complex))
        got = commutator(gell_mann_matrix(i), gell_mann_matrix(j))
        worst = max(worst, float(np.max(np.abs(got - expected))))
        n_pairs += 1
    checks.append(CheckResult(
        name="algebra.commutator_table", passed=worst <= tol,
        residual=worst, threshold=tol,
        detail=f"{n_pairs} unordered pairs against the reference table"))

    gram = np.einsum("iab,jba->ij", LAMBDA, LAMBDA)
    worst = float(np.max(np.abs(gram - 2 * np.eye(8))))
    checks.append(CheckResult(
        name="algebra.orthogonality", passed=worst <= tol,
        residual=worst, threshold=tol,
        detail="tr(lam_i lam_j) = 2 delta_ij, all 64 pairs"))

    worst = 0.0
    for i in range(8):
        for j in range(8):
            for k in range(8):
                J = (commutator(LAMBDA[i], commutator(LAMBDA[j], LAMBDA[k]))
                     + commutator(LAMBDA[j], commutator(LAMBDA[k], LAMBDA[i]))
                     + commutator(LAMBDA[k], commutator(LAMBDA[i], LAMBDA[j])))
                worst = max(worst, float(np.max(np.abs(J))))
    checks.append(CheckResult(
        name="algebra.jacobi", passed=worst <= tol, residual=worst,
        threshold=tol, detail="all 512 ordered triples"))

    C = structure_constants().C
    worst = float(np.max(np.abs(C + np.swapaxes(C, 0, 1))))
    checks.append(CheckResult(
        name="algebra.antisymmetry", passed=worst <= tol, residual=worst,
        threshold=tol, detail="C^k_ij = -C^k_ji"))

    worst = float(np.max(np.abs(C.real)))
    checks.append(CheckResult(
        name="algebra.imaginary_structure_constants", passed=worst <= tol,
        residual=worst, threshold=tol, detail="C = 2i f with f real"))

    cartan = verify_cartan_split(tol)
    checks.append(CheckResult(
        name="algebra.cartan_split", passed=cartan.ok,
        residual=cartan.max_leakage, threshold=tol,
        detail=", ".join(f"{k}: {v:.2e}" for k, v in cartan.sector_leakage.items())))

    return checks


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def defining_relation_residual(x, chirality):
    """|| sum_k a_ik d_k D + lam_i D ||_F (left) or + D lam_i (right), worst i."""
    dD = partial_derivatives(x)
    D = compose(x)
    frame = left_field_frame(x) if chirality == "left" else right_field_frame(x)
    applied = np.einsum("ik,kab->iab", frame.entries, dD)
    if chirality == "left":
        target = -np.einsum("iab,bc->iac", LAMBDA, D)
    else:
        target = -np.einsum("ab,ibc->iac", D, LAMBDA)
    return float(np.max(np.linalg.norm(applied - target, axis=(1, 2))))


def compare_table(points, chirality, table, tol=1e-9):
    """Diff the transcribed table against the constructive one at many points."""
    if table == "field":
        closed_fn = (left_field_frame_closed if chirality == "left"
                     else right_field_frame_closed)
        constructive_fn = (left_field_frame if chirality == "left"
                           else right_field_frame)
        colnames = COORD_NAMES
    else:
        closed_fn = (left_coframe_closed if chirality == "left"
                     else right_coframe_closed)
        constructive_fn = left_coframe if chirality == "left" else right_coframe
        colnames = tuple("d" + n for n in COORD_NAMES)
    n = len(points)
    diffs = np.empty((n, 8, 8))
    closed0 = constructive0 = None
    for idx, x in enumerate(points):
        closed = np.asarray(closed_fn(x).entries, dtype=complex)
        constructive = np.asarray(constructive_fn(x).entries, dtype=complex)
        if idx == 0:
            closed0, constructive0 = closed, constructive
        diffs[idx] = np.abs(closed - constructive)
    report = TableDiff(table=table, chirality=chirality, tol=tol, n_points=n)
    worst = diffs.max(axis=0)
    frac = (diffs > tol).mean(axis=0)
    for r in range(8):
        for cidx in range(8):
            if worst[r, cidx] > tol:
                report.entries.append(EntryMismatch(
                    table=table, chirality=chirality, row=r + 1,
                    column=colnames[cidx],
                    max_abs_diff=float(worst[r, cidx]),
                    mismatch_fraction=float(frac[r, cidx]),
                    closed_sample=complex(closed0[r, cidx]),
                    constructive_sample=complex(constructive0[r, cidx])))
    return report


def frame_bracket_residuals(x, h=1e-5):
    """Finite-difference frame commutators against the structure constants.

    Returns (left, right, cross) residuals at x: [L_i, L_j] = C^k_ij L_k,
    [R_i, R_j] = -C^k_ij R_k, [L_i, R_j] = 0, with the fields applied to
    every matrix entry of D as test functions.  The inner directional
    derivative is exact; the outer one is a central difference of step h.
    """
    C = structure_constants().C

    def apply_frames(x_):
        dD = partial_derivatives(x_)
        aL = left_field_frame(x_).entries
        aR = right_field_frame(x_).entries
        return (np.einsum("ik,kab->iab", aL, dD),
                np.einsum("ik,kab->iab", aR, dD))

    GL0, GR0 = apply_frames(x)
    dGL = np.empty((8, 8, 3, 3), dtype=complex)
    dGR = np.empty((8, 8, 3, 3), dtype=complex)
    for m in range(8):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[m] += h
        xm[m] -= h
        GLp, GRp = apply_frames(xp)
        GLm, GRm = apply_frames(xm)
        dGL[m] = (GLp - GLm) / (2 * h)
        dGR[m] = (GRp - GRm) / (2 * h)

    aL = left_field_frame(x).entries
    aR = right_field_frame(x).entries
    LL = np.einsum("im,mjab->ijab", aL, dGL)
    RR = np.einsum("im,mjab->ijab", aR, dGR)
    LR = np.einsum("im,mjab->ijab", aL, dGR)
    RL = np.einsum("jm,miab->ijab", aR, dGL)

    comm_LL = LL - np.swapaxes(LL, 0, 1)
    comm_RR = RR - np.swapaxes(RR, 0, 1)
    comm_LR = LR - RL  # [L_i, R_j] applied entrywise

    target_L = np.einsum("ijk,kab->ijab", C, GL0)
    target_R = -np.einsum("ijk,kab->ijab", C, GR0)

    res_left = float(np.max(np.abs(comm_LL - target_L)))
    res_right = float(np.max(np.abs(comm_RR - target_R)))
    res_cross = float(np.max(np.abs(comm_LR)))
    return res_left, res_right, res_cross


def suite_frames(n_points=100, seed=20, bracket_points=4):
    checks = []
    pts = haar_interior_points(n_points, seed)

    worst_l = max(defining_relation_residual(x, "left") for x in pts)
    worst_r = max(defining_relation_residual(x, "right") for x in pts)
    checks.append(CheckResult(
        name="frames.defining_left", passed=worst_l <= 1e-9,
        residual=worst_l, threshold=1e-9,
        detail=f"sum_k a_ik d_k D = -lam_i D at {n_points} points"))
    checks.append(CheckResult(
        name="frames.defining_right", passed=worst_r <= 1e-9,
        residual=worst_r, threshold=1e-9,
        detail=f"sum_k ar_ik d_k D = -D lam_i at {n_points} points"))

    for chir in ("left", "right"):
        diff = compare_table(pts, chir, "field")
        checks.append(CheckResult(
            name=f"frames.closed_table_{chir}", passed=diff.stable,
            residual=diff.unexplained_residual,
            threshold=1e-9, detail=diff.describe()))

    mc_rows_ok = True
    worst_row = 0.0
    for x in pts[: min(20, len(pts))]:
        c = maurer_cartan_coefficients(x, "left").c
        expect_alpha = np.zeros(8)
        expect_alpha[2] = 1.0
        expect_beta = np.zeros(8)
        expect_beta[0] = math.sin(2 * x[0])
        expect_beta[1] = math.cos(2 * x[0])
        cr = maurer_cartan_coefficients(x, "right").c
        expect_c_row = np.zeros(8)
        expect_c_row[2] = 1.0
        expect_phi = np.zeros(8)
        expect_phi[7] = 1.0
        worst_row = max(
            worst_row,
            float(np.max(np.abs(c[0] - expect_alpha))),
            float(np.max(np.abs(c[1] - expect_beta))),
            float(np.max(np.abs(cr[6] - expect_c_row))),
            float(np.max(np.abs(cr[7] - expect_phi))),
        )
    mc_rows_ok = worst_row <= 1e-12
    checks.append(CheckResult(
        name="frames.maurer_cartan_rows", passed=mc_rows_ok,
        residual=worst_row, threshold=1e-12,
        detail="alpha/beta rows (left) and c/phi rows (right) in closed form"))

    # adjoint representation
    rng = np.random.default_rng(seed + 1)
    worst_orth = worst_hom = worst_link = 0.0
    for _ in range(20):
        x = haar.sample_angles(2, int(rng.integers(1 << 31)))
        U, V = compose_many(x)
        R_u, R_v = adjoint_matrix(U), adjoint_matrix(V)
        worst_orth = max(worst_orth,
                         float(np.linalg.norm(R_u @ R_u.T - np.eye(8))),
                         float(abs(np.linalg.det(R_u) - 1.0)))
        worst_hom = max(worst_hom, float(np.linalg.norm(
            adjoint_matrix(U @ V) - R_u @ R_v)))
    for x in pts[: min(20, len(pts))]:
        R = adjoint_matrix(compose(x))
        aL = left_field_frame(x).entries
        aR = right_field_frame(x).entries
        worst_link = max(worst_link, float(np.max(np.abs(aR - R.T @ aL))))
    checks.append(CheckResult(
        name="frames.adjoint_orthogonal", passed=worst_orth <= 1e-10,
        residual=worst_orth, threshold=1e-10,
        detail="R R^T = I and det R = +1 on random elements"))
    checks.append(CheckResult(
        name="frames.adjoint_homomorphism", passed=worst_hom <= 1e-10,
        residual=worst_hom, threshold=1e-10, detail="R(UV) = R(U) R(V)"))
    checks.append(CheckResult(
        name="frames.adjoint_links_frames", passed=worst_link <= 1e-9,
        residual=worst_link, threshold=1e-9,
        detail="right frame = R(U)^T @ left frame (global sign +1)"))

    bpts = haar_interior_points(bracket_points, seed + 2, margin=0.2)
    wl = wr = wc = 0.0
    for x in bpts:
        rl, rr, rc = frame_bracket_residuals(x)
        wl, wr, wc = max(wl, rl), max(wr, rr), max(wc, rc)
    checks.append(CheckResult(
        name="frames.brackets_left", passed=wl <= 1e-6, residual=wl,
        threshold=1e-6,
        detail=f"[L_i, L_j] = C^k_ij L_k by nested differentiation "
               f"at {bracket_points} points"))
    checks.append(CheckResult(
        name="frames.brackets_right", passed=wr <= 1e-6, residual=wr,
        threshold=1e-6, detail="[R_i, R_j] = -C^k_ij R_k"))
    checks.append(CheckResult(
        name="frames.brackets_cross", passed=wc <= 1e-6, residual=wc,
        threshold=1e-6, detail="[L_i, R_j] = 0"))

    return checks


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def duality_residual(x, chirality):
    """|| b @ (real frame)^T - I ||_max for the given chirality."""
    if chirality == "left":
        b = left_coframe(x).entries
        frame = left_field_frame(x)
    else:
        b = right_coframe(x).entries
        frame = right_field_frame(x)
    pairing = b @ frame.real_frame().T
    return float(np.max(np.abs(pairing - np.eye(8))))


def _translation_pullback_residual(x, g, side, h=1e-6):
    """Residual of the coframe transformation law under translation by g.

    side = 'right':  y(x) = decompose(compose(x) g); the coframe built from
    (dD) D^-1 is invariant, b(y) J = b(x).
    side = 'left':   y(x) = decompose(g compose(x)); the forms mix by the
    adjoint matrix, b(y) J = R(g) b(x).
    Central differences need y(.) continuous across the stencil; returns
    None when the canonical box wraps inside it.
    """

    def ymap(x_):
        U = compose(x_)
        W = U @ g if side == "right" else g @ U
        return decompose(W).as_array()

    y0 = ymap(x)
    J = np.empty((8, 8))
    for m in range(8):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[m] += h
        xm[m] -= h
        yp, ym = ymap(xp), ymap(xm)
        if np.max(np.abs(yp - y0)) > 0.1 or np.max(np.abs(ym - y0)) > 0.1:
            return None  # canonical-box wrap inside the stencil
        J[:, m] = (yp - ym) / (2 * h)
    b_here = left_coframe(x).entries
    b_there = left_coframe(y0).entries
    if side == "right":
        target = b_here
    else:
        target = adjoint_matrix(g) @ b_here
    return float(np.max(np.abs(b_there @ J - target)))


def suite_forms(n_points=100, seed=30, pullback_points=10):
    checks = []
    pts = haar_interior_points(n_points, seed)

    worst_l = max(duality_residual(x, "left") for x in pts)
    worst_r = max(duality_residual(x, "right") for x in pts)
    checks.append(CheckResult(
        name="forms.duality_left", passed=worst_l <= 1e-9, residual=worst_l,
        threshold=1e-9, detail=f"<omega^l, X_i> = delta at {n_points} points"))
    checks.append(CheckResult(
        name="forms.duality_right", passed=worst_r <= 1e-9, residual=worst_r,
        threshold=1e-9, detail=f"<omega^l, X_i> = delta at {n_points} points"))

    worst = 0.0
    for x in pts[: min(20, len(pts))]:
        mcl = maurer_cartan_coefficients(x, "left")
        mcr = maurer_cartan_coefficients(x, "right")
        worst = max(worst, mcl.max_imag, mcr.max_imag)
    checks.append(CheckResult(
        name="forms.reality", passed=worst <= 1e-12, residual=worst,
        threshold=1e-12, detail="coframe entries real after the i convention"))

    for chir in ("left", "right"):
        diff = compare_table(pts, chir, "form")
        checks.append(CheckResult(
            name=f"forms.closed_table_{chir}", passed=diff.stable,
            residual=diff.unexplained_residual,
            threshold=1e-9, detail=diff.describe()))

    worst = 0.0
    for x in pts[: min(20, len(pts))]:
        c = maurer_cartan_matrix(x, "left")
        worst = max(worst, float(np.max(np.abs(c.T - left_coframe(x).entries))))
        c_r = maurer_cartan_matrix(x, "right")
        worst = max(worst, float(np.max(np.abs(c_r.T - right_coframe(x).entries))))
    checks.append(CheckResult(
        name="forms.maurer_cartan_matrix", passed=worst <= 1e-14,
        residual=worst, threshold=1e-14,
        detail="component matrix of the translated differential is the "
               "coframe transpose, both chiralities"))

    ratios_l = np.array([haar.density_from_coframe(x) / haar.density(x)
                         for x in pts])
    ratios_r = np.array([
        abs(np.linalg.det(right_coframe(x).entries)) / haar.density(x)
        for x in pts])
    spread = float(max(np.ptp(ratios_l) / ratios_l.mean(),
                       np.ptp(ratios_r) / ratios_r.mean()))
    same = float(abs(ratios_l.mean() - ratios_r.mean()) / ratios_l.mean())
    checks.append(CheckResult(
        name="forms.density_ratio_constant", passed=spread <= 1e-8,
        residual=spread, threshold=1e-8,
        detail=f"|det coframe| / density = {ratios_l.mean():.12f} "
               f"at {n_points} points (left chirality)"))
    checks.append(CheckResult(
        name="forms.density_ratio_left_right", passed=same <= 1e-8,
        residual=same, threshold=1e-8,
        detail="left and right determinants give the same constant"))

    # invariance under translation: the defining property, via pullback
    rng = np.random.default_rng(seed + 3)
    worst_inv = worst_cov = 0.0
    tried = 0
    done = 0
    while done < pullback_points and tried < 20 * pullback_points:
        tried += 1
        x = haar_interior_points(1, seed + 100 + tried, margin=0.15)[0]
        g = compose(haar.sample_angles(1, int(rng.integers(1 << 31)))[0])
        r_inv = _translation_pullback_residual(x, g, "right")
        r_cov = _translation_pullback_residual(x, g, "left")
        if r_inv is None or r_cov is None:
            continue
        worst_inv = max(worst_inv, r_inv)
        worst_cov = max(worst_cov, r_cov)
        done += 1
    checks.append(CheckResult(
        name="forms.invariance_right_translation", passed=worst_inv <= 1e-6,
        residual=worst_inv, threshold=1e-6,
        detail=f"pullback of the coframe under x -> decompose(compose(x) g) "
               f"equals the coframe, {done} points"))
    checks.append(CheckResult(
        name="forms.covariance_left_translation", passed=worst_cov <= 1e-6,
        residual=worst_cov, threshold=1e-6,
        detail="pullback under x -> decompose(g compose(x)) mixes by R(g)"))

    return checks


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def character_integrals_mc(n, seed):
    """The four Schur integrals by Monte Carlo; returns (name, value, se, target)."""

    def values(us):
        tr = np.einsum("nii->n", us)
        adj = np.abs(tr) ** 2 - 1.0
        return np.stack([
            np.abs(tr) ** 2,  # <fund, fund>      -> 1
            tr,               # <fund, 1>         -> 0
            adj * adj,        # <adj, adj>        -> 1
            tr * tr,          # <fund, antifund>  -> 0
        ], axis=1)

    means, ses = haar.mc_moments(values, n, seed)
    names = ("<fund,fund>", "<fund,1>", "<adj,adj>", "<fund,antifund>")
    targets = (1.0, 0.0, 1.0, 0.0)
    return list(zip(names, means, ses, targets))


def character_integrals_quadrature(nodes, node_cap=None):
    """Same four integrals by the separable product rule."""

    def make(fn):
        kw = {} if node_cap is None else {"node_cap": node_cap}
        return haar.integrate_quadrature(fn, nodes, vectorized=True, **kw)

    def with_trace(g):
        def fn(xs):
            tr = np.einsum("nii->n", compose_many(xs))
            return g(tr)
        return fn

    names = ("<fund,fund>", "<fund,1>", "<adj,adj>", "<fund,antifund>")
    targets = (1.0, 0.0, 1.0, 0.0)
    fns = (
        with_trace(lambda tr: np.abs(tr) ** 2),
        with_trace(lambda tr: tr),
        with_trace(lambda tr: ((np.abs(tr) ** 2 - 1) ** 2).astype(complex)),
        with_trace(lambda tr: tr * tr),
    )
    return [(nm, make(fn).estimate, None, tg)
            for nm, fn, tg in zip(names, fns, targets)]


_INVARIANCE_FUNCTIONS = (
    ("Re tr U", lambda tr, tr2: tr.real),
    ("|tr U|^2", lambda tr, tr2: np.abs(tr) ** 2),
    ("Re tr U^2", lambda tr, tr2: tr2.real),
    ("adjoint char", lambda tr, tr2: np.abs(tr) ** 2 - 1.0),
)


def invariance_deviations(n, seed, n_translations=5):
    """Translated vs untranslated sample averages, in units of 4 sigma.

    For fixed group elements g, compares MC[f(gU)] and MC[f(Ug)] with MC[f]
    for the four standard test functions; returns the worst deviation /
    (4 * combined standard error) over all (g, side, f).
    """
    gs = compose_many(haar.sample_angles(n_translations, seed + 17))

    def translates(us):
        # one stack at a time: U, then gU and Ug for each g
        yield us
        for g in gs:
            yield np.einsum("ab,nbc->nac", g, us)
            yield np.einsum("nab,bc->nac", us, g)

    def values(us):
        out = np.empty((len(us), 1 + 2 * n_translations,
                        len(_INVARIANCE_FUNCTIONS)))
        for row, vs in enumerate(translates(us)):
            tr = np.einsum("nii->n", vs)
            tr2 = np.einsum("nii->n", vs @ vs)
            for fi, (_, fn) in enumerate(_INVARIANCE_FUNCTIONS):
                out[:, row, fi] = fn(tr, tr2)
        return out

    means, ses = haar.mc_moments(values, n, seed)
    dev = np.abs(means[1:] - means[0])
    combined = 4.0 * np.hypot(ses[1:], ses[0])
    ratio = np.divide(dev, combined, out=np.zeros_like(dev), where=combined > 0)
    return float(ratio.max())


def suite_measure(n_mc=200_000, seed=40, nodes=5):
    checks = []

    x0 = EulerAngles(0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, 0.0)
    v = float(haar.density(x0))
    checks.append(CheckResult(
        name="measure.density_value", passed=abs(v - 0.5) <= 1e-15,
        residual=abs(v - 0.5), threshold=1e-15,
        detail="density(beta=b=theta=pi/4) = 1/2"))

    # group-layer spot checks: closed-form factors, the SU(2) block element,
    # canonical folding, sample materialization, character values
    worst = float(np.max(np.abs(
        factor_exponential(5, math.pi / 2)
        - np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=complex))))
    worst = max(worst, float(np.max(np.abs(
        su2_subelement(0.0, math.pi / 2, 0.0)
        - np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)))))
    shifted = np.zeros(8)
    shifted[0] = math.pi + 0.25
    folded = canonicalize(shifted)
    worst = max(worst, float(np.max(np.abs(
        compose(folded.as_array()) - compose(shifted)))))
    if not folded.is_canonical():
        worst = max(worst, 1.0)
    for U in compose_many(haar.sample_angles(3, seed)):
        worst = max(worst, float(np.linalg.norm(U.conj().T @ U - np.eye(3))))
    worst = max(worst, abs(haar.character(np.eye(3), "fundamental") - 3.0),
                abs(haar.character(np.eye(3), "adjoint") - 8.0))
    checks.append(CheckResult(
        name="measure.group_ops", passed=worst <= 1e-12, residual=worst,
        threshold=1e-12,
        detail="factor exponentials, SU(2) block, canonicalize, sample "
               "materialization, character values"))

    mc = haar.integrate_mc(
        lambda us: haar.character_many(us, "fundamental"),
        max(n_mc // 4, 10_000), seed + 21, vectorized=True)
    dev = abs(mc.estimate) / (4 * mc.std_error)
    checks.append(CheckResult(
        name="measure.mc_integrator", passed=dev <= 1.0, residual=dev,
        threshold=1.0,
        detail=f"integrate_mc of the fundamental character: "
               f"{mc.estimate.real:+.5f}{mc.estimate.imag:+.5f}i "
               f"(se {mc.std_error:.1e})"))

    vol = haar.group_volume()
    err = abs(vol - math.pi ** 5) / math.pi ** 5
    checks.append(CheckResult(
        name="measure.volume_stated_ranges", passed=err <= 1e-10,
        residual=err, threshold=1e-10,
        detail=f"analytic separable volume {vol:.10f} vs pi^5 "
               f"{math.pi ** 5:.10f}; sphere-product target is 2 pi^5"))

    xs = haar.sample_angles(n_mc, seed)
    worst = 0.0
    m_sin2theta = float(np.mean(np.sin(xs[:, 3]) ** 2))
    se = float(np.std(np.sin(xs[:, 3]) ** 2) / math.sqrt(n_mc))
    dev = abs(m_sin2theta - 2.0 / 3.0) / (4 * se)
    worst = max(worst, dev)
    beta_cdf = float(np.mean(xs[:, 1] <= 0.5))
    target = math.sin(0.5) ** 2
    se_b = math.sqrt(target * (1 - target) / n_mc)
    worst = max(worst, abs(beta_cdf - target) / (4 * se_b))
    checks.append(CheckResult(
        name="measure.sampler_marginals", passed=worst <= 1.0,
        residual=worst, threshold=1.0,
        detail="E[sin^2 theta] = 2/3 and P[beta <= 1/2] = sin^2(1/2), "
               "in units of 4 sigma"))

    worst = 0.0
    detail = []
    for nm, val, se, tgt in character_integrals_mc(n_mc, seed):
        dev = abs(val - tgt) / (4 * se)
        worst = max(worst, dev)
        detail.append(f"{nm} = {val.real:+.4f}{val.imag:+.4f}i (se {se:.1e})")
    checks.append(CheckResult(
        name="measure.characters_mc", passed=worst <= 1.0, residual=worst,
        threshold=1.0, detail="; ".join(detail)))

    worst = 0.0
    detail = []
    for nm, val, _, tgt in character_integrals_quadrature(nodes):
        worst = max(worst, abs(val - tgt))
        detail.append(f"{nm} = {val.real:+.5f}{val.imag:+.5f}i")
    checks.append(CheckResult(
        name="measure.characters_quadrature", passed=worst <= 0.02,
        residual=worst, threshold=0.02,
        detail=f"{nodes} nodes/dim: " + "; ".join(detail)))

    worst = invariance_deviations(min(n_mc, 200_000), seed + 5)
    checks.append(CheckResult(
        name="measure.translation_invariance", passed=worst <= 1.0,
        residual=worst, threshold=1.0,
        detail="left/right translated averages vs untranslated, "
               "in units of 4 sigma"))

    pts = haar_interior_points(40, seed + 9)
    ratios = np.array([haar.density_from_coframe(x) / haar.density(x)
                       for x in pts])
    spread = float(np.ptp(ratios) / ratios.mean())
    checks.append(CheckResult(
        name="measure.coframe_density_ratio", passed=spread <= 1e-8,
        residual=spread, threshold=1e-8,
        detail=f"|det coframe| / density constant = {ratios.mean():.12f}"))

    worst = 0.0
    for n_round in range(3):
        U = compose_many(haar.sample_angles(50, seed + 11 + n_round))
        for u in U:
            rep = decompose(u, full_output=True)
            worst = max(worst, rep.residual)
    checks.append(CheckResult(
        name="measure.decompose_roundtrip", passed=worst <= 1e-9,
        residual=worst, threshold=1e-9,
        detail="||compose(decompose(U)) - U||_F on 150 sampled elements"))

    return checks


SUITES = {
    "algebra": lambda points, seed: suite_algebra(),
    "frames": lambda points, seed: suite_frames(n_points=points, seed=seed),
    "forms": lambda points, seed: suite_forms(n_points=points, seed=seed),
    "measure": lambda points, seed: suite_measure(n_mc=points, seed=seed),
}


def run_suites(which="all", points=None, seed=7):
    """Run one suite or all of them; returns an ordered {suite: [CheckResult]}."""
    names = list(SUITES) if which == "all" else [which]
    out = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of "
                             f"{['all'] + list(SUITES)}")
        defaults = {"algebra": 0, "frames": 100, "forms": 100,
                    "measure": 200_000}
        pts = points if points is not None else defaults[name]
        out[name] = SUITES[name](pts, seed)
    return out
