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
from .euler import (COORD_NAMES, EulerAngles, compose, compose_many, decompose,
                    canonicalize, factor_exponential, unitarity_defect)
from .gellmann import (LAMBDA, SQRT3, commutator, gell_mann_matrix,
                       structure_constants, verify_cartan_split)
from .invariant_forms import (left_coframe, left_coframe_closed, right_coframe,
                              right_coframe_closed)
from .tangent_frames import (adjoint_matrix, chart_denominators,
                             left_field_frame, left_field_frame_closed,
                             maurer_cartan_coefficients, partial_derivatives,
                             right_field_frame, right_field_frame_closed)

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
    residual: float
    threshold: float
    detail: str = ""

    @property
    def passed(self):
        """residual <= threshold; a NaN residual fails."""
        return bool(self.residual <= self.threshold)

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
        xs = haar.sample_angles(batch, haar.sub_seed(seed, stream))
        stream += 1
        out.extend(xs[(np.abs(chart_denominators(xs)) >= margin).all(axis=1)])
    return np.array(out[:n])


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def suite_algebra():
    tol = 1e-12
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
        name="algebra.commutator_table", residual=worst, threshold=tol,
        detail=f"{n_pairs} unordered pairs against the reference table"))

    gram = np.einsum("iab,jba->ij", LAMBDA, LAMBDA)
    worst = float(np.max(np.abs(gram - 2 * np.eye(8))))
    checks.append(CheckResult(
        name="algebra.orthogonality", residual=worst, threshold=tol,
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
        name="algebra.jacobi", residual=worst, threshold=tol,
        detail="all 512 ordered triples"))

    C = structure_constants().C
    worst = float(np.max(np.abs(C + np.swapaxes(C, 0, 1))))
    checks.append(CheckResult(
        name="algebra.antisymmetry", residual=worst, threshold=tol,
        detail="C^k_ij = -C^k_ji"))

    worst = float(np.max(np.abs(C.real)))
    checks.append(CheckResult(
        name="algebra.imaginary_structure_constants", residual=worst,
        threshold=tol, detail="C = 2i f with f real"))

    cartan = verify_cartan_split()
    checks.append(CheckResult(
        name="algebra.cartan_split", residual=cartan.max_leakage,
        threshold=tol,
        detail=", ".join(f"{k}: {v:.2e}" for k, v in cartan.sector_leakage.items())))

    return checks


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def defining_relation_residual(x, chirality):
    """|| sum_k a_ik d_k D + lam_i D ||_F (left) or + D lam_i (right).

    The worst i over one point, (8,), or over all points of an (n, 8) array.
    """
    x = np.asarray(x, dtype=float)
    dD = partial_derivatives(x)
    D = compose_many(x.reshape(-1, 8)).reshape(x.shape[:-1] + (1, 3, 3))
    frame = left_field_frame(x) if chirality == "left" else right_field_frame(x)
    applied = np.einsum("...ik,...kab->...iab", frame.entries, dD)
    target = -(LAMBDA @ D if chirality == "left" else D @ LAMBDA)
    return float(np.max(np.linalg.norm(applied - target, axis=(-2, -1))))


#: Entries of a transcribed table that differ from the constructive one by
#: more than this are flagged.
TABLE_TOL = 1e-9


def compare_table(points, chirality, table):
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
    # the transcribed tables are scalar code, evaluated one point at a time
    closed = np.array([closed_fn(x).entries for x in points])
    constructive = constructive_fn(points).entries
    diffs = np.abs(closed - constructive)
    report = TableDiff(table=table, chirality=chirality, n_points=n)
    worst = diffs.max(axis=0)
    frac = (diffs > TABLE_TOL).mean(axis=0)
    for r in range(8):
        for cidx in range(8):
            if worst[r, cidx] > TABLE_TOL:
                report.entries.append(EntryMismatch(
                    table=table, chirality=chirality, row=r + 1,
                    column=colnames[cidx],
                    max_abs_diff=float(worst[r, cidx]),
                    mismatch_fraction=float(frac[r, cidx]),
                    closed_sample=complex(closed[0, r, cidx]),
                    constructive_sample=complex(constructive[0, r, cidx])))
    return report


#: Step h of the central differences in the bracket and divergence checks.
_STEP = 1e-5


def _central_steps():
    """Rows +h e_m, then -h e_m, m = 0..7: a central-difference stencil."""
    return np.concatenate([_STEP * np.eye(8), -_STEP * np.eye(8)])


def frame_bracket_residuals(points):
    """Finite-difference frame commutators against the structure constants.

    Returns the worst (left, right, cross) residuals over the (n, 8)
    points: [L_i, L_j] = C^k_ij L_k, [R_i, R_j] = -C^k_ij R_k,
    [L_i, R_j] = 0, with the fields applied to every matrix entry of D as
    test functions.  The inner directional derivative is exact; the outer
    one is a central difference, with each chirality's frames on the whole
    (n * 17, 8) stencil evaluated in one call.
    """
    C = structure_constants().C
    points = np.asarray(points, dtype=float)
    n = len(points)
    # per point: x, then x + h e_m and x - h e_m for m = 0..7
    steps = np.concatenate([np.zeros((1, 8)), _central_steps()])
    stencil = (points[:, None, :] + steps).reshape(-1, 8)
    dD = partial_derivatives(stencil).reshape(n, 17, 8, 3, 3)
    aL_all = left_field_frame(stencil).entries.reshape(n, 17, 8, 8)
    aR_all = right_field_frame(stencil).entries.reshape(n, 17, 8, 8)
    GL = np.einsum("psik,pskab->psiab", aL_all, dD)
    GR = np.einsum("psik,pskab->psiab", aR_all, dD)
    GL0, GR0 = GL[:, 0], GR[:, 0]
    dGL = (GL[:, 1:9] - GL[:, 9:]) / (2 * _STEP)
    dGR = (GR[:, 1:9] - GR[:, 9:]) / (2 * _STEP)

    aL, aR = aL_all[:, 0], aR_all[:, 0]
    LL = np.einsum("pim,pmjab->pijab", aL, dGL)
    RR = np.einsum("pim,pmjab->pijab", aR, dGR)
    LR = np.einsum("pim,pmjab->pijab", aL, dGR)
    RL = np.einsum("pjm,pmiab->pijab", aR, dGL)

    comm_LL = LL - np.swapaxes(LL, 1, 2)
    comm_RR = RR - np.swapaxes(RR, 1, 2)
    comm_LR = LR - RL  # [L_i, R_j] applied entrywise

    target_L = np.einsum("ijk,pkab->pijab", C, GL0)
    target_R = -np.einsum("ijk,pkab->pijab", C, GR0)

    res_left = float(np.max(np.abs(comm_LL - target_L)))
    res_right = float(np.max(np.abs(comm_RR - target_R)))
    res_cross = float(np.max(np.abs(comm_LR)))
    return res_left, res_right, res_cross


def suite_frames(n_points, seed):
    checks = []
    pts = haar_interior_points(n_points, seed)

    worst_l = defining_relation_residual(pts, "left")
    worst_r = defining_relation_residual(pts, "right")
    checks.append(CheckResult(
        name="frames.defining_left", residual=worst_l, threshold=1e-9,
        detail=f"sum_k a_ik d_k D = -lam_i D at {n_points} points"))
    checks.append(CheckResult(
        name="frames.defining_right", residual=worst_r, threshold=1e-9,
        detail=f"sum_k ar_ik d_k D = -D lam_i at {n_points} points"))

    for chir in ("left", "right"):
        diff = compare_table(pts, chir, "field")
        checks.append(CheckResult(
            name=f"frames.closed_table_{chir}",
            residual=diff.unexplained_residual, threshold=TABLE_TOL,
            detail=diff.describe()))

    sub = pts[:20]
    c = maurer_cartan_coefficients(sub, "left").c
    cr = maurer_cartan_coefficients(sub, "right").c
    e = np.eye(8)
    expect_beta = np.zeros((len(sub), 8))
    expect_beta[:, 0] = np.sin(2 * sub[:, 0])
    expect_beta[:, 1] = np.cos(2 * sub[:, 0])
    worst_row = float(max(
        np.max(np.abs(c[:, 0] - e[2])),     # alpha row: lam_3
        np.max(np.abs(c[:, 1] - expect_beta)),
        np.max(np.abs(cr[:, 6] - e[2])),    # c row: lam_3
        np.max(np.abs(cr[:, 7] - e[7])),    # phi row: lam_8
    ))
    checks.append(CheckResult(
        name="frames.maurer_cartan_rows", residual=worst_row, threshold=1e-12,
        detail="alpha/beta rows (left) and c/phi rows (right) in closed form"))

    # adjoint representation
    rng = np.random.default_rng(haar.sub_seed(seed, 1))
    pairs = compose_many(np.concatenate(
        [haar.sample_angles(2, int(rng.integers(1 << 31))) for _ in range(20)]))
    U, V = pairs[0::2], pairs[1::2]
    R_u, R_v = adjoint_matrix(U), adjoint_matrix(V)
    worst_orth = float(max(
        np.linalg.norm(R_u @ np.swapaxes(R_u, 1, 2) - np.eye(8), axis=(1, 2)).max(),
        np.abs(np.linalg.det(R_u) - 1.0).max()))
    worst_hom = float(np.linalg.norm(adjoint_matrix(U @ V) - R_u @ R_v,
                                     axis=(1, 2)).max())
    R = adjoint_matrix(compose_many(sub))
    worst_link = float(np.max(np.abs(right_field_frame(sub).entries
                                     - np.swapaxes(R, 1, 2) @ left_field_frame(sub).entries)))
    checks.append(CheckResult(
        name="frames.adjoint_orthogonal", residual=worst_orth, threshold=1e-10,
        detail="R R^T = I and det R = +1 on random elements"))
    checks.append(CheckResult(
        name="frames.adjoint_homomorphism", residual=worst_hom,
        threshold=1e-10, detail="R(UV) = R(U) R(V)"))
    checks.append(CheckResult(
        name="frames.adjoint_links_frames", residual=worst_link,
        threshold=1e-9,
        detail="right frame = R(U)^T @ left frame (global sign +1)"))

    bpts = haar_interior_points(4, haar.sub_seed(seed, 2), margin=0.2)
    wl, wr, wc = frame_bracket_residuals(bpts)
    checks.append(CheckResult(
        name="frames.brackets_left", residual=wl, threshold=1e-6,
        detail=f"[L_i, L_j] = C^k_ij L_k by nested differentiation "
               f"at {len(bpts)} points"))
    checks.append(CheckResult(
        name="frames.brackets_right", residual=wr, threshold=1e-6,
        detail="[R_i, R_j] = -C^k_ij R_k"))
    checks.append(CheckResult(
        name="frames.brackets_cross", residual=wc, threshold=1e-6,
        detail="[L_i, R_j] = 0"))

    return checks


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def duality_residual(x, chirality):
    """|| b @ (real frame)^T - I ||_max at one point, (8,), or over (n, 8)."""
    if chirality == "left":
        b = left_coframe(x).entries
        frame = left_field_frame(x)
    else:
        b = right_coframe(x).entries
        frame = right_field_frame(x)
    pairing = b @ np.swapaxes(frame.real_frame(), -1, -2)
    return float(np.max(np.abs(pairing - np.eye(8))))


def divergence_residual(points, chirality):
    """max |sum_k d_k(rho X_i^k)| over the points and i, rho = haar.density.

    The invariant fields preserve the Haar volume, so rho X_i is
    divergence-free in the Euler coordinates; a density off by any
    non-constant factor fails this.  Central differences, with the frames
    of the whole (n * 16, 8) stencil evaluated in one call.
    """
    points = np.asarray(points, dtype=float)
    stencil = (points[:, None, :] + _central_steps()).reshape(-1, 8)
    frame = left_field_frame if chirality == "left" else right_field_frame
    rho_x = (haar.density(stencil)[:, None, None]
             * frame(stencil).real_frame()).reshape(len(points), 2, 8, 8, 8)
    # rho_x[p, side, k, i, k'] at x_p +- h e_k; the divergence takes k' = k
    flux = np.einsum("pskik->psi", rho_x)
    return float(np.max(np.abs(flux[:, 0] - flux[:, 1]) / (2 * _STEP)))


def _translation_pullback_residual(x, g, side):
    """Residual of the coframe transformation law under translation by g.

    side = 'right':  y(x) = decompose(compose(x) g); the coframe built from
    (dD) D^-1 is invariant, b(y) J = b(x).
    side = 'left':   y(x) = decompose(g compose(x)); the forms mix by the
    adjoint matrix, b(y) J = R(g) b(x).
    Central differences of step h = 1e-6 need y(.) continuous across the
    stencil; returns None when the canonical box wraps inside it.
    """
    h = 1e-6

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


def suite_forms(n_points, seed):
    checks = []
    pts = haar_interior_points(n_points, seed)

    worst_l = duality_residual(pts, "left")
    worst_r = duality_residual(pts, "right")
    checks.append(CheckResult(
        name="forms.duality_left", residual=worst_l, threshold=1e-9,
        detail=f"<omega^l, X_i> = delta at {n_points} points"))
    checks.append(CheckResult(
        name="forms.duality_right", residual=worst_r, threshold=1e-9,
        detail=f"<omega_r^l, X_r,i> = delta at {n_points} points"))

    sub = pts[:20]
    worst = max(maurer_cartan_coefficients(sub, "left").max_imag,
                maurer_cartan_coefficients(sub, "right").max_imag)
    checks.append(CheckResult(
        name="forms.reality", residual=worst, threshold=1e-12,
        detail="coframe entries real after the i convention"))

    for chir in ("left", "right"):
        diff = compare_table(pts, chir, "form")
        checks.append(CheckResult(
            name=f"forms.closed_table_{chir}",
            residual=diff.unexplained_residual, threshold=TABLE_TOL,
            detail=diff.describe()))

    for chir in ("left", "right"):
        worst = divergence_residual(sub, chir)
        checks.append(CheckResult(
            name=f"forms.divergence_free_{chir}", residual=worst,
            threshold=1e-8,
            detail=f"sum_k d_k(rho X_i^k) = 0 for the real {chir} frame and "
                   f"the Haar density, at {len(sub)} points"))

    rho = haar.density(pts)
    ratios_l = haar.density_from_coframe(pts) / rho
    ratios_r = np.abs(np.linalg.det(right_coframe(pts).entries)) / rho
    spread = float(max(np.ptp(ratios_l) / ratios_l.mean(),
                       np.ptp(ratios_r) / ratios_r.mean()))
    same = float(abs(ratios_l.mean() - ratios_r.mean()) / ratios_l.mean())
    checks.append(CheckResult(
        name="forms.density_ratio_constant", residual=spread, threshold=1e-8,
        detail=f"|det coframe| / density = {ratios_l.mean():.12f} "
               f"at {n_points} points (left chirality)"))
    checks.append(CheckResult(
        name="forms.density_ratio_left_right", residual=same, threshold=1e-8,
        detail="left and right determinants give the same constant"))

    # invariance under translation: the defining property, via pullback
    rng = np.random.default_rng(haar.sub_seed(seed, 3))
    worst_inv = worst_cov = 0.0
    tried = 0
    done = 0
    while done < 10 and tried < 200:
        tried += 1
        x = haar_interior_points(1, haar.sub_seed(seed, 100 + tried), margin=0.15)[0]
        g = compose(haar.sample_angles(1, int(rng.integers(1 << 31)))[0])
        r_inv = _translation_pullback_residual(x, g, "right")
        r_cov = _translation_pullback_residual(x, g, "left")
        if r_inv is None or r_cov is None:
            continue
        worst_inv = max(worst_inv, r_inv)
        worst_cov = max(worst_cov, r_cov)
        done += 1
    checks.append(CheckResult(
        name="forms.invariance_right_translation", residual=worst_inv,
        threshold=1e-6,
        detail=f"pullback of the coframe under x -> decompose(compose(x) g) "
               f"equals the coframe, {done} points"))
    checks.append(CheckResult(
        name="forms.covariance_left_translation", residual=worst_cov,
        threshold=1e-6,
        detail="pullback under x -> decompose(g compose(x)) mixes by R(g)"))

    return checks


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


#: Names and Haar values of the four Schur integrals, the columns of
#: ``schur_integrands``.
SCHUR_NAMES = ("<fund,fund>", "<fund,1>", "<adj,adj>", "<fund,antifund>")
SCHUR_TARGETS = (1.0, 0.0, 1.0, 0.0)


def schur_integrands(us):
    """(m, 3, 3) elements -> (m, 4) integrands of the four Schur integrals."""
    tr = np.einsum("nii->n", us)
    adj = np.abs(tr) ** 2 - 1.0
    return np.stack([np.abs(tr) ** 2, tr, adj * adj, tr * tr], axis=1)


def character_integrals_mc(n, seed):
    """The four Schur integrals by Monte Carlo; returns (name, value, se, target)."""
    means, ses = haar.mc_moments(schur_integrands, n, seed)
    return list(zip(SCHUR_NAMES, means, ses, SCHUR_TARGETS))


def character_integrals_quadrature(nodes):
    """Same four integrals by the separable product rule, in one grid pass."""
    means, _ = haar.quadrature_mean(schur_integrands, nodes)
    return [(nm, complex(m), None, tg)
            for nm, m, tg in zip(SCHUR_NAMES, means, SCHUR_TARGETS)]


_N_TRANSLATIONS = 5


def invariance_deviations(n, seed):
    """Translated vs untranslated sample averages, in units of 4 sigma.

    For five fixed group elements g, compares MC[f(gU)] with MC[f] for
    the class functions Re tr M, |tr M|^2 and Re tr M^2, and MC[f(gU)] and
    MC[f(Ug)] with MC[f] for the entry functions |M_11|^2 and Re M_12
    (Haar means 1/3 and 0).  A class function takes the same value on gU
    and Ug = g^-1 (gU) g, so only the entry functions test right
    invariance.  Returns the worst deviation / (4 * combined standard
    error) over all (g, side, f).
    """
    gs = compose_many(haar.sample_angles(_N_TRANSLATIONS, haar.sub_seed(seed, 17)))
    # columns: 3 class functions of U, g_1 U, ..., g_5 U, then 2 entry
    # functions of U, g_1 U, ..., g_5 U, U g_1, ..., U g_5
    n_class = 3 * (1 + _N_TRANSLATIONS)
    n_entry = 2 * (1 + 2 * _N_TRANSLATIONS)

    def values(us):
        # column-contiguous, so each column is written in one sweep
        out = np.empty((n_class + n_entry, len(us))).T

        def put_entries(t, row):
            c = n_class + 2 * t
            out[:, c] = np.abs(row[:, 0]) ** 2
            out[:, c + 1] = row[:, 1].real

        def put_left(t, m):
            # m = U or gU; called with a temporary, so at most one
            # translated stack is alive at a time
            tr = np.einsum("nii->n", m)
            out[:, 3 * t] = tr.real
            out[:, 3 * t + 1] = np.abs(tr) ** 2
            out[:, 3 * t + 2] = np.einsum("nab,nba->n", m, m).real
            put_entries(t, m[:, 0, :2])

        put_left(0, us)
        for k, g in enumerate(gs, start=1):
            # gU and the first row of Ug (without forming Ug) as broadcast
            # multiply-adds: BLAS and einsum products slow down when
            # several chunks run them on threads at once
            put_left(k, sum(g[:, b, None] * us[:, b, None, :] for b in range(3)))
            put_entries(_N_TRANSLATIONS + k,
                        sum(us[:, 0, b, None] * g[b, :2] for b in range(3)))
        return out

    means, ses = haar.mc_moments(values, n, seed)
    worst = 0.0
    for cols, width in ((slice(0, n_class), 3), (slice(n_class, None), 2)):
        m, s = means[cols].reshape(-1, width), ses[cols].reshape(-1, width)
        dev = np.abs(m[1:] - m[0])
        combined = 4.0 * np.hypot(s[1:], s[0])
        ratio = np.divide(dev, combined, out=np.zeros_like(dev),
                          where=combined > 0)
        worst = max(worst, float(ratio.max()))
    return worst


def suite_measure(n_mc, seed):
    checks = []

    x0 = EulerAngles(0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, 0.0)
    v = float(haar.density(x0))
    checks.append(CheckResult(
        name="measure.density_value", residual=abs(v - 0.5), threshold=1e-15,
        detail="density(beta=b=theta=pi/4) = 1/2"))

    # group-layer spot checks: closed-form factors, the SU(2) block element,
    # canonical folding, sample materialization, character values
    worst = float(np.max(np.abs(
        factor_exponential(5, math.pi / 2)
        - np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=complex))))
    worst = max(worst, float(np.max(np.abs(
        compose([0.0, math.pi / 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        - np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)))))
    shifted = np.zeros(8)
    shifted[0] = math.pi + 0.25
    folded = canonicalize(shifted)
    worst = max(worst, float(np.max(np.abs(
        compose(folded.as_array()) - compose(shifted)))))
    if not folded.is_canonical():
        worst = max(worst, 1.0)
    worst = max(worst, unitarity_defect(compose_many(haar.sample_angles(3, seed)))[0])
    worst = max(worst, abs(haar.character(np.eye(3), "fundamental") - 3.0),
                abs(haar.character(np.eye(3), "adjoint") - 8.0))
    checks.append(CheckResult(
        name="measure.group_ops", residual=worst, threshold=1e-12,
        detail="factor exponentials, SU(2) block, canonicalize, sample "
               "materialization, character values"))

    mc = haar.integrate_mc(
        lambda us: haar.character(us, "fundamental"),
        max(n_mc // 4, 10_000), haar.sub_seed(seed, 21))
    dev = abs(mc.estimate) / (4 * mc.std_error)
    checks.append(CheckResult(
        name="measure.mc_integrator", residual=dev, threshold=1.0,
        detail=f"integrate_mc of the fundamental character: "
               f"{mc.estimate.real:+.5f}{mc.estimate.imag:+.5f}i "
               f"(se {mc.std_error:.1e})"))

    vol = haar.group_volume()
    err = abs(vol - math.pi ** 5) / math.pi ** 5
    checks.append(CheckResult(
        name="measure.volume_stated_ranges", residual=err, threshold=1e-10,
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
        name="measure.sampler_marginals", residual=worst, threshold=1.0,
        detail="E[sin^2 theta] = 2/3 and P[beta <= 1/2] = sin^2(1/2), "
               "in units of 4 sigma"))

    worst = 0.0
    detail = []
    for nm, val, se, tgt in character_integrals_mc(n_mc, seed):
        dev = abs(val - tgt) / (4 * se)
        worst = max(worst, dev)
        detail.append(f"{nm} = {val.real:+.4f}{val.imag:+.4f}i (se {se:.1e})")
    checks.append(CheckResult(
        name="measure.characters_mc", residual=worst, threshold=1.0,
        detail="; ".join(detail)))

    worst = 0.0
    detail = []
    for nm, val, _, tgt in character_integrals_quadrature(5):
        worst = max(worst, abs(val - tgt))
        detail.append(f"{nm} = {val.real:+.5f}{val.imag:+.5f}i")
    checks.append(CheckResult(
        name="measure.characters_quadrature", residual=worst, threshold=0.02,
        detail="5 nodes/dim: " + "; ".join(detail)))

    worst = invariance_deviations(min(n_mc, 200_000), haar.sub_seed(seed, 5))
    checks.append(CheckResult(
        name="measure.translation_invariance", residual=worst, threshold=1.0,
        detail="averages over gU of Re tr, |tr|^2 and Re tr M^2, and over "
               "gU and Ug of |M_11|^2 and Re M_12, vs untranslated, for 5 "
               "elements g, in units of 4 sigma"))

    worst = 0.0
    for n_round in range(3):
        U = compose_many(haar.sample_angles(50, haar.sub_seed(seed, 11 + n_round)))
        for u in U:
            rep = decompose(u, full_output=True)
            worst = max(worst, rep.residual)
    checks.append(CheckResult(
        name="measure.decompose_roundtrip", residual=worst, threshold=1e-9,
        detail="||compose(decompose(U)) - U||_F on 150 sampled elements"))

    return checks


#: Each suite, called as (points, seed), with its default and its smallest
#: sample count (Monte Carlo samples for measure; a standard error needs two).
SUITES = {
    "algebra": (lambda points, seed: suite_algebra(), 0, 0),
    "frames": (suite_frames, 100, 1),
    "forms": (suite_forms, 100, 1),
    "measure": (suite_measure, 200_000, 2),
}


def run_suites(which="all", points=None, seed=7):
    """Run one suite or all of them; returns an ordered {suite: [CheckResult]}."""
    names = list(SUITES) if which == "all" else [which]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; expected one of "
                             f"{['all'] + list(SUITES)}")
        if points is not None and points < SUITES[name][2]:
            raise ValueError(f"the {name} suite needs points >= "
                             f"{SUITES[name][2]}, got {points}")
    out = {}
    for name in names:
        suite, default, _ = SUITES[name]
        out[name] = suite(default if points is None else points, seed)
    return out
