"""Identity checks: every structural claim the library rests on, runnable.

Four suites (algebra, frames, forms, measure) are generators that yield
their :class:`CheckResult` objects one at a time; ``run_suites`` collects
them, and the CLI renders them and exit-codes on failures.  ``ROUTES``
holds the two functions behind each frame and coframe, the constructive
one and the transcribed closed-form table, and every request for one by
name goes through it.  The tables are compared entrywise against the
constructive frames/coframes, and persistent mismatches are collected
into a :class:`TableDiff` typo report: the constructive route is ground
truth, the transcribed tables are the document under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import haar
from .euler import (COORD_NAMES, DecompositionError, EulerAngles,
                    _as_angle_points, compose, compose_many, decompose,
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

#: (constructive, transcribed) functions of each frame ("field") and
#: coframe ("form") table, keyed by (table, chirality).
ROUTES = {
    ("field", "left"): (left_field_frame, left_field_frame_closed),
    ("field", "right"): (right_field_frame, right_field_frame_closed),
    ("form", "left"): (left_coframe, left_coframe_closed),
    ("form", "right"): (right_coframe, right_coframe_closed),
}

#: Column names of each table: the coordinates, and their differentials.
_COLUMNS = {"field": COORD_NAMES, "form": tuple("d" + n for n in COORD_NAMES)}


def _route(table, chirality):
    """``ROUTES[(table, chirality)]``; an unknown name is a ValueError."""
    try:
        return ROUTES[(table, chirality)]
    except KeyError:
        raise ValueError(f"no {table!r} table of chirality {chirality!r}; "
                         f"expected one of {sorted(ROUTES)}") from None


@dataclass(frozen=True)
class CheckResult:
    """One check's residual against its threshold.

    ``elapsed_s`` is the wall time ``run_suites`` measured from the previous
    check of the suite (or the suite's start) to this one; None for a
    result made outside it.  ``as_dict`` adds the margin, residual /
    threshold: at most 1 for a check that passes, NaN for a NaN residual.
    """

    name: str
    residual: float
    threshold: float
    detail: str = ""
    elapsed_s: float | None = None

    @property
    def passed(self):
        """residual <= threshold; a NaN residual fails."""
        return bool(self.residual <= self.threshold)

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "threshold": self.threshold,
                "margin": self.residual / self.threshold,
                "detail": self.detail, "elapsed_s": self.elapsed_s}


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
    worst = 0.0
    n_pairs = 0
    for (i, j), coeffs in sorted(COMMUTATOR_TABLE.items()):
        expected = sum((w * gell_mann_matrix(k) for k, w in coeffs.items()),
                       np.zeros((3, 3), dtype=complex))
        got = commutator(gell_mann_matrix(i), gell_mann_matrix(j))
        worst = max(worst, float(np.max(np.abs(got - expected))))
        n_pairs += 1
    yield CheckResult(
        name="algebra.commutator_table", residual=worst, threshold=tol,
        detail=f"{n_pairs} unordered pairs against the reference table")

    gram = np.einsum("iab,jba->ij", LAMBDA, LAMBDA)
    worst = float(np.max(np.abs(gram - 2 * np.eye(8))))
    yield CheckResult(
        name="algebra.orthogonality", residual=worst, threshold=tol,
        detail="tr(lam_i lam_j) = 2 delta_ij, all 64 pairs")

    # nested[i, j, k] = [lam_i, [lam_j, lam_k]]; J adds its cyclic transposes
    nested = commutator(LAMBDA[:, None, None],
                        commutator(LAMBDA[:, None], LAMBDA[None])[None])
    J = nested + nested.transpose(1, 2, 0, 3, 4) + nested.transpose(2, 0, 1, 3, 4)
    yield CheckResult(
        name="algebra.jacobi", residual=float(np.max(np.abs(J))), threshold=tol,
        detail="all 512 ordered triples")

    C = structure_constants()
    worst = float(np.max(np.abs(C + np.swapaxes(C, 0, 1))))
    yield CheckResult(
        name="algebra.antisymmetry", residual=worst, threshold=tol,
        detail="C^k_ij = -C^k_ji")

    worst = float(np.max(np.abs(C.real)))
    yield CheckResult(
        name="algebra.imaginary_structure_constants", residual=worst,
        threshold=tol, detail="C = 2i f with f real")

    leakage = verify_cartan_split()
    yield CheckResult(
        name="algebra.cartan_split", residual=max(leakage.values()), threshold=tol,
        detail=", ".join(f"{k}: {v:.2e}" for k, v in leakage.items()))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def defining_relation_residual(x, chirality):
    """|| sum_k a_ik d_k D + lam_i D ||_F (left) or + D lam_i (right).

    The worst i over one point, (8,), or over all points of an (n, 8) array.
    """
    x = _as_angle_points(x).reshape(-1, 8)
    frame = _route("field", chirality)[0](x)
    dD = partial_derivatives(x)
    D = compose_many(x)[:, None]
    applied = np.einsum("pik,pkab->piab", frame.entries, dD)
    target = -(LAMBDA @ D if chirality == "left" else D @ LAMBDA)
    return float(np.max(np.linalg.norm(applied - target, axis=(-2, -1))))


#: Entries of a transcribed table that differ from the constructive one by
#: more than this are flagged.
TABLE_TOL = 1e-9


def compare_table(points, chirality, table):
    """Diff the transcribed table against the constructive one at one point,
    (8,), or at every point of an (n, 8) array."""
    constructive_fn, closed_fn = _route(table, chirality)
    points = _as_angle_points(points).reshape(-1, 8)
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
                    column=_COLUMNS[table][cidx],
                    max_abs_diff=float(worst[r, cidx]),
                    mismatch_fraction=float(frac[r, cidx]),
                    closed_sample=complex(closed[0, r, cidx]),
                    constructive_sample=complex(constructive[0, r, cidx])))
    return report


def _closed_table_checks(suite, points, table):
    """The ``{suite}.closed_table_{left,right}`` checks of one table."""
    for chir in ("left", "right"):
        diff = compare_table(points, chir, table)
        yield CheckResult(
            name=f"{suite}.closed_table_{chir}",
            residual=diff.unexplained_residual, threshold=TABLE_TOL,
            detail=diff.describe())


#: Step h of the central differences in the bracket and divergence checks.
_STEP = 1e-5


def _stencil(points, h):
    """(n, 8) points -> (n * 17, 8) rows: each point, then the point + h e_m,
    then the point - h e_m, for m = 0..7."""
    steps = np.concatenate([np.zeros((1, 8)), h * np.eye(8), -h * np.eye(8)])
    return (points[:, None, :] + steps).reshape(-1, 8)


def _central_difference(values, h):
    """(n, 17, ...) values on the rows of ``_stencil`` -> (n, 8, ...)
    central differences along e_0, ..., e_7."""
    return (values[:, 1:9] - values[:, 9:]) / (2 * h)


def frame_bracket_residuals(points):
    """Finite-difference frame commutators against the structure constants.

    Returns the worst (left, right, cross) residuals over one point, (8,),
    or over (n, 8) points: [L_i, L_j] = C^k_ij L_k, [R_i, R_j] = -C^k_ij R_k,
    [L_i, R_j] = 0, with the fields applied to every matrix entry of D as
    test functions.  The inner directional derivative is exact; the outer
    one is a central difference, with each chirality's frames on the whole
    (n * 17, 8) stencil evaluated in one call.
    """
    C = structure_constants()
    points = _as_angle_points(points).reshape(-1, 8)
    n = len(points)
    stencil = _stencil(points, _STEP)
    dD = partial_derivatives(stencil).reshape(n, 17, 8, 3, 3)
    aL_all = left_field_frame(stencil).entries.reshape(n, 17, 8, 8)
    aR_all = right_field_frame(stencil).entries.reshape(n, 17, 8, 8)
    GL = np.einsum("psik,pskab->psiab", aL_all, dD)
    GR = np.einsum("psik,pskab->psiab", aR_all, dD)
    GL0, GR0 = GL[:, 0], GR[:, 0]
    dGL = _central_difference(GL, _STEP)
    dGR = _central_difference(GR, _STEP)

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
    pts = haar_interior_points(n_points, seed)

    for chir, relation in (("left", "a_ik d_k D = -lam_i D"),
                           ("right", "ar_ik d_k D = -D lam_i")):
        yield CheckResult(
            name=f"frames.defining_{chir}",
            residual=defining_relation_residual(pts, chir), threshold=1e-9,
            detail=f"sum_k {relation} at {n_points} points")

    yield from _closed_table_checks("frames", pts, "field")

    sub = pts[:20]
    c = maurer_cartan_coefficients(sub, "left").real
    cr = maurer_cartan_coefficients(sub, "right").real
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
    yield CheckResult(
        name="frames.maurer_cartan_rows", residual=worst_row, threshold=1e-12,
        detail="alpha/beta rows (left) and c/phi rows (right) in closed form")

    # adjoint representation
    pairs = compose_many(haar.sample_angles(40, haar.sub_seed(seed, 1)))
    U, V = pairs[0::2], pairs[1::2]
    R_u = adjoint_matrix(U)
    worst_orth = float(max(
        np.linalg.norm(R_u @ np.swapaxes(R_u, 1, 2) - np.eye(8), axis=(1, 2)).max(),
        np.abs(np.linalg.det(R_u) - 1.0).max()))
    yield CheckResult(
        name="frames.adjoint_orthogonal", residual=worst_orth, threshold=1e-10,
        detail="R R^T = I and det R = +1 on random elements")
    worst_hom = float(np.linalg.norm(adjoint_matrix(U @ V) - R_u @ adjoint_matrix(V),
                                     axis=(1, 2)).max())
    yield CheckResult(
        name="frames.adjoint_homomorphism", residual=worst_hom,
        threshold=1e-10, detail="R(UV) = R(U) R(V)")
    R = adjoint_matrix(compose_many(sub))
    worst_link = float(np.max(np.abs(right_field_frame(sub).entries
                                     - np.swapaxes(R, 1, 2) @ left_field_frame(sub).entries)))
    yield CheckResult(
        name="frames.adjoint_links_frames", residual=worst_link,
        threshold=1e-9,
        detail="right frame = R(U)^T @ left frame (global sign +1)")

    bpts = haar_interior_points(4, haar.sub_seed(seed, 2), margin=0.2)
    wl, wr, wc = frame_bracket_residuals(bpts)
    yield CheckResult(
        name="frames.brackets_left", residual=wl, threshold=1e-6,
        detail=f"[L_i, L_j] = C^k_ij L_k by nested differentiation "
               f"at {len(bpts)} points")
    yield CheckResult(
        name="frames.brackets_right", residual=wr, threshold=1e-6,
        detail="[R_i, R_j] = -C^k_ij R_k")
    yield CheckResult(
        name="frames.brackets_cross", residual=wc, threshold=1e-6,
        detail="[L_i, R_j] = 0")


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def duality_residual(x, chirality):
    """|| b @ (real frame)^T - I ||_max at one point, (8,), or over (n, 8)."""
    x = _as_angle_points(x).reshape(-1, 8)
    b = _route("form", chirality)[0](x).entries
    frame = _route("field", chirality)[0](x)
    pairing = b @ np.swapaxes(frame.real_frame(), -1, -2)
    return float(np.max(np.abs(pairing - np.eye(8))))


def divergence_residual(points, chirality):
    """max |sum_k d_k(rho X_i^k)| over i and one point, (8,), or (n, 8)
    points, rho = haar.density.

    The invariant fields preserve the Haar volume, so rho X_i is
    divergence-free in the Euler coordinates; a density off by any
    non-constant factor fails this.  Central differences, with the frames
    of the whole (n * 17, 8) stencil evaluated in one call.
    """
    frame = _route("field", chirality)[0]
    points = _as_angle_points(points).reshape(-1, 8)
    stencil = _stencil(points, _STEP)
    rho_x = (haar.density(stencil)[:, None, None]
             * frame(stencil).real_frame()).reshape(len(points), 17, 8, 8)
    # d_rho_x[p, m, i, k] = d_m (rho X_i^k) at x_p; the divergence takes k = m
    d_rho_x = _central_difference(rho_x, _STEP)
    return float(np.max(np.abs(np.einsum("pkik->pi", d_rho_x))))


def _translation_pullback_residual(x, g, side):
    """Residual of the coframe transformation law under translation by g.

    side = 'right':  y(x) = decompose(compose(x) g); the coframe built from
    (dD) D^-1 is invariant, b(y) J = b(x).
    side = 'left':   y(x) = decompose(g compose(x)); the forms mix by the
    adjoint matrix, b(y) J = R(g) b(x).
    Central differences of step h = 1e-6 need y(.) continuous across the
    stencil; returns None when the canonical box wraps inside it, and inf
    when ``decompose`` raises on a stencil element.
    """
    h = 1e-6
    us = compose_many(_stencil(_as_angle_points(x).reshape(1, 8), h))
    ws = us @ g if side == "right" else g @ us
    try:
        ys = np.array([decompose(w).as_array() for w in ws])
    except DecompositionError:  # residual above 1e-9: fail, do not end the run
        return math.inf
    if np.max(np.abs(ys[1:] - ys[0])) > 0.1:
        return None  # canonical-box wrap inside the stencil
    J = _central_difference(ys[None], h)[0].T  # J[:, m] = d_m y
    b_here = left_coframe(x).entries
    target = b_here if side == "right" else adjoint_matrix(g) @ b_here
    return float(np.max(np.abs(left_coframe(ys[0]).entries @ J - target)))


def suite_forms(n_points, seed):
    pts = haar_interior_points(n_points, seed)

    for chir, pairing in (("left", "<omega^l, X_i>"),
                          ("right", "<omega_r^l, X_r,i>")):
        yield CheckResult(
            name=f"forms.duality_{chir}",
            residual=duality_residual(pts, chir), threshold=1e-9,
            detail=f"{pairing} = delta at {n_points} points")

    sub = pts[:20]
    worst = max(float(np.abs(maurer_cartan_coefficients(sub, chir).imag).max())
                for chir in ("left", "right"))
    yield CheckResult(
        name="forms.reality", residual=worst, threshold=1e-12,
        detail="coframe entries real after the i convention")

    yield from _closed_table_checks("forms", pts, "form")

    for chir in ("left", "right"):
        worst = divergence_residual(sub, chir)
        yield CheckResult(
            name=f"forms.divergence_free_{chir}", residual=worst,
            threshold=1e-8,
            detail=f"sum_k d_k(rho X_i^k) = 0 for the real {chir} frame and "
                   f"the Haar density, at {len(sub)} points")

    rho = haar.density(pts)
    ratios_l = haar.density_from_coframe(pts) / rho
    ratios_r = np.abs(np.linalg.det(right_coframe(pts).entries)) / rho
    spread = float(max(np.ptp(ratios_l) / ratios_l.mean(),
                       np.ptp(ratios_r) / ratios_r.mean()))
    same = float(abs(ratios_l.mean() - ratios_r.mean()) / ratios_l.mean())
    yield CheckResult(
        name="forms.density_ratio_constant", residual=spread, threshold=1e-8,
        detail=f"|det coframe| / density = {ratios_l.mean():.12f} "
               f"at {n_points} points (left chirality)")
    yield CheckResult(
        name="forms.density_ratio_left_right", residual=same, threshold=1e-8,
        detail="left and right determinants give the same constant")

    # invariance under translation: the defining property, via pullback,
    # at the first 10 of 200 (point, element) pairs whose stencils stay
    # inside the canonical box
    xs = haar_interior_points(200, haar.sub_seed(seed, 100), margin=0.15)
    gs = compose_many(haar.sample_angles(200, haar.sub_seed(seed, 3)))
    worst_inv = worst_cov = 0.0
    done = 0
    for x, g in zip(xs, gs):
        r_inv = _translation_pullback_residual(x, g, "right")
        r_cov = _translation_pullback_residual(x, g, "left")
        if r_inv is None or r_cov is None:
            continue
        worst_inv = max(worst_inv, r_inv)
        worst_cov = max(worst_cov, r_cov)
        done += 1
        if done == 10:
            break
    yield CheckResult(
        name="forms.invariance_right_translation", residual=worst_inv,
        threshold=1e-6,
        detail=f"pullback of the coframe under x -> decompose(compose(x) g) "
               f"equals the coframe, {done} points")
    yield CheckResult(
        name="forms.covariance_left_translation", residual=worst_cov,
        threshold=1e-6,
        detail="pullback under x -> decompose(g compose(x)) mixes by R(g)")


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


#: Names and Haar values of the four Schur integrals, the columns of
#: ``schur_integrands``.
SCHUR_NAMES = ("<fund,fund>", "<fund,1>", "<adj,adj>", "<fund,antifund>")
SCHUR_TARGETS = (1.0, 0.0, 1.0, 0.0)


def schur_integrands(us):
    """(m, 3, 3) elements -> (m, 4) integrands of the four Schur integrals,
    as the transpose of a (4, m) array, so each column is contiguous.  On
    the entry-major stacks the integrators hand it, the three diagonal
    entries it reads are contiguous rows too."""
    out = np.empty((4, len(us)), dtype=complex)
    tr = us[:, 0, 0] + us[:, 1, 1] + us[:, 2, 2]
    abs2 = np.abs(tr) ** 2
    adj = abs2 - 1.0
    out[0], out[1], out[2], out[3] = abs2, tr, adj * adj, tr * tr
    return out.T


def character_integrals_mc(n, seed):
    """The four Schur integrals by Monte Carlo; returns (name, value, se, target)."""
    r = haar.integrate_mc(schur_integrands, n, seed)
    return list(zip(SCHUR_NAMES, r.estimate, r.std_error, SCHUR_TARGETS))


def character_integrals_quadrature(nodes):
    """Same four integrals by the separable product rule, in one grid pass."""
    means = haar.integrate_quadrature(schur_integrands, nodes).estimate
    return [(nm, complex(m), None, tg)
            for nm, m, tg in zip(SCHUR_NAMES, means, SCHUR_TARGETS)]


def _worst_4_sigma(estimate, se, target=0.0):
    """The worst |estimate - target| / (4 se) over the entries; an entry
    whose se is 0 reads 0.  Every Monte Carlo gate of the measure suite."""
    dev = np.abs(np.asarray(estimate) - target)
    se4 = 4.0 * np.asarray(se)
    return float(np.divide(dev, se4, out=np.zeros_like(dev), where=se4 > 0).max())


_N_TRANSLATIONS = 5


def invariance_deviations(n, seed):
    """Sample averages of f(gU) - f(U) and f(Ug) - f(U), in units of 4 sigma.

    For five fixed group elements g, averages the paired differences
    f(gU) - f(U) for the class functions Re tr M, |tr M|^2 and Re tr M^2,
    and f(gU) - f(U) and f(Ug) - f(U) for the entry functions |M_11|^2 and
    Re M_12 (Haar means 1/3 and 0), each over the same samples U.  A class
    function takes the same value on gU and Ug = g^-1 (gU) g, so only the
    entry functions test right invariance.  Haar invariance makes each
    mean 0; returns the worst |mean| / (4 * its standard error) over the
    35 (g, side, f).

    The class functions are formed from t = tr M alone.  The eigenvalues
    of M in SU(3) are unimodular and multiply to det M = 1, so their
    pairwise products sum to conj(t) and Cayley-Hamilton gives
    tr M^2 = t^2 - 2 conj(t): Re tr M^2 = Re(t^2) - 2 Re t.  Without
    det M = 1 the identity fails at order 1 (for e^{i pi/7} M, say), so it
    holds for U and gU only because ``compose_many`` returns group
    elements, unitary with det 1 to roundoff.
    """
    gs = compose_many(haar.sample_angles(_N_TRANSLATIONS, haar.sub_seed(seed, 17)))

    def values(us):
        # entry-major: u[3 b + c] = U_bc and each row of out are contiguous
        # (m,) rows, so each product is a vector multiply-add, with no BLAS
        # call whose threads would contend with the threads that run this.
        # Per g it forms only what it reads: the diagonal of gU for the
        # trace and (gU)_01, 12 scalar-row products, and the first two
        # entries of Ug, 6 more; all five g take 2.2-3.1 ms on an 8192-row
        # block.  Both integrators hand over entry-major stacks, so this is
        # a view, not a copy; any other stack is copied into entry-major rows
        u = np.ascontiguousarray(us.reshape(len(us), 9).T)
        # out[k]: the class and entry functions of g_k U, then the entry
        # functions of U g_k, each less its value at U
        out = np.empty((_N_TRANSLATIONS, 7, len(us)))

        def put_class(rows, t):
            rows[0] = t.real
            rows[1] = np.abs(t) ** 2
            rows[2] = (t * t).real - 2 * rows[0]

        def put_entries(rows, m00, m01):
            rows[0] = np.abs(m00) ** 2
            rows[1] = m01.real

        base = np.empty((5, len(us)))
        put_class(base, u[0] + u[4] + u[8])
        put_entries(base[3:], u[0], u[1])
        for g, rows in zip(gs, out):
            # (gU)_aa = sum_b g_ab U_ba
            m00, m11, m22 = (g[a, 0] * u[a] + g[a, 1] * u[3 + a] + g[a, 2] * u[6 + a]
                             for a in range(3))
            put_class(rows, m00 + m11 + m22)
            put_entries(rows[3:], m00, g[0, 0] * u[1] + g[0, 1] * u[4] + g[0, 2] * u[7])
            # the first row of Ug without forming Ug
            put_entries(rows[5:], *(u[0] * g[0, c] + u[1] * g[1, c] + u[2] * g[2, c]
                                    for c in range(2)))
            rows[:5] -= base
            rows[5:] -= base[3:]
        return out.reshape(-1, len(us)).T

    r = haar.integrate_mc(values, n, seed)
    return _worst_4_sigma(r.estimate, r.std_error)


def suite_measure(n_mc, seed):
    x0 = EulerAngles(0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, math.pi / 4, 0.0, 0.0)
    v = float(haar.density(x0))
    yield CheckResult(
        name="measure.density_value", residual=abs(v - 0.5), threshold=1e-15,
        detail="density(beta=b=theta=pi/4) = 1/2")

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
    yield CheckResult(
        name="measure.group_ops", residual=worst, threshold=1e-12,
        detail="factor exponentials, SU(2) block, canonicalize, sample "
               "materialization, character values")

    # decompose puts every element in the cover box (decompose_roundtrip);
    # if the box's coframe volume is vol SU(3), the mean number of preimages
    # is 1.  Macdonald (Invent. Math. 56 (1980) 93) gives vol SU(n) for the
    # metric tr(X^+ Y); the coframe is dual to the i lam_k, orthonormal
    # under tr(X^+ Y)/2, which scales the volume by 2^(-dim/2).
    n = 3
    macdonald = (math.sqrt(n) * (2 * math.pi) ** ((n * n + n - 2) // 2)
                 / math.prod(math.factorial(k) for k in range(1, n)))
    riemannian = macdonald * 2.0 ** (-(n * n - 1) / 2)
    pts = haar_interior_points(20, haar.sub_seed(seed, 30))
    ratio = float(np.mean(haar.density_from_coframe(pts) / haar.density(pts)))
    vol = ratio * haar.group_volume(haar.RANGES_COVER)
    yield CheckResult(
        name="measure.cover_volume", residual=abs(vol - riemannian) / riemannian,
        threshold=1e-12,
        detail=f"coframe volume of the cover box {vol:.10f} vs Macdonald's "
               f"vol SU(3) = sqrt(3) pi^5 = {riemannian:.10f}")

    vol = haar.group_volume()
    err = abs(vol - math.pi ** 5) / math.pi ** 5
    yield CheckResult(
        name="measure.volume_stated_ranges", residual=err, threshold=1e-10,
        detail=f"analytic separable volume {vol:.10f} vs pi^5 "
               f"{math.pi ** 5:.10f}; sphere-product target is 2 pi^5")

    xs = haar.sample_angles(n_mc, seed)
    sin2theta = np.sin(xs[:, 3]) ** 2
    p_beta = math.sin(0.5) ** 2
    worst = _worst_4_sigma(
        [np.mean(sin2theta), np.mean(xs[:, 1] <= 0.5)],
        [np.std(sin2theta) / math.sqrt(n_mc), math.sqrt(p_beta * (1 - p_beta) / n_mc)],
        [2.0 / 3.0, p_beta])
    yield CheckResult(
        name="measure.sampler_marginals", residual=worst, threshold=1.0,
        detail="E[sin^2 theta] = 2/3 and P[beta <= 1/2] = sin^2(1/2), "
               "in units of 4 sigma; 2 two-sided 4-sigma columns, so a "
               "correct library fails about 2 x 6.3e-5 = 1.3e-4 of runs")

    names, vals, ses, tgts = zip(*character_integrals_mc(n_mc, seed))
    yield CheckResult(
        name="measure.characters_mc", residual=_worst_4_sigma(vals, ses, tgts),
        threshold=1.0,
        detail="; ".join(f"{nm} = {val.real:+.4f}{val.imag:+.4f}i (se {se:.1e})"
                         for nm, val, se in zip(names, vals, ses))
        + "; 4 columns at 4 sigma: 2 real (chance 6.3e-5 each) and tr U, (tr U)^2"
          " complex, whose errors the centre makes isotropic (exp(-16) each), so "
          "a correct library fails about 1.3e-4 of runs (union bound)")

    worst = 0.0
    detail = []
    for nm, val, _, tgt in character_integrals_quadrature(5):
        worst = max(worst, abs(val - tgt))
        detail.append(f"{nm} = {val.real:+.5f}{val.imag:+.5f}i")
    yield CheckResult(
        name="measure.characters_quadrature", residual=worst, threshold=1e-12,
        detail="5 nodes per flat axis, exact for these degree-2 integrands: "
               + "; ".join(detail))

    n_inv = min(n_mc, 200_000)
    worst = invariance_deviations(n_inv, haar.sub_seed(seed, 5))
    yield CheckResult(
        name="measure.translation_invariance", residual=worst, threshold=1.0,
        detail="paired differences f(gU) - f(U) for Re tr, |tr|^2 and Re tr "
               "M^2, and f(gU) - f(U) and f(Ug) - f(U) for |M_11|^2 and Re "
               f"M_12, averaged over the same {n_inv} samples for 5 elements "
               "g, in units of 4 sigma of each difference; 35 two-sided "
               "4-sigma columns, so a correct library fails about 35 x "
               "6.3e-5 = 2.2e-3 of runs")

    worst = 0.0
    for n_round in range(3):
        U = compose_many(haar.sample_angles(50, haar.sub_seed(seed, 11 + n_round)))
        for u in U:
            try:
                rep = decompose(u, full_output=True)
            except DecompositionError:  # residual above 1e-9: fail, do not end the run
                worst = math.inf
                continue
            worst = max(worst, rep.residual)
            if not rep.angles.is_canonical():
                worst = max(worst, 1.0)
    yield CheckResult(
        name="measure.decompose_roundtrip", residual=worst, threshold=1e-9,
        detail="||compose(decompose(U)) - U||_F on 150 sampled elements, "
               "each inside the cover box")


#: Each suite, called as (points, seed), with its default and its smallest
#: sample count (Monte Carlo samples for measure; a standard error needs two).
SUITES = {
    "algebra": (lambda points, seed: suite_algebra(), 0, 0),
    "frames": (suite_frames, 100, 1),
    "forms": (suite_forms, 100, 1),
    "measure": (suite_measure, 200_000, 2),
}


def run_suites(which="all", points=None, seed=7):
    """Run one suite or all of them; returns an ordered {suite: [CheckResult]}.

    Each result carries in ``elapsed_s`` the time since the suite's previous
    yield: the cost of that check alone, except where checks share one
    computation, whose cost the first of them carries.
    ``frames.brackets_right`` and ``frames.brackets_cross`` (computed with
    ``frames.brackets_left``), ``forms.density_ratio_left_right`` (with
    ``forms.density_ratio_constant``) and ``forms.covariance_left_translation``
    (with ``forms.invariance_right_translation``) read about 0.
    """
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
        out[name] = []
        start = time.perf_counter()
        for check in suite(default if points is None else points, seed):
            now = time.perf_counter()
            out[name].append(replace(check, elapsed_s=now - start))
            start = now
    return out
