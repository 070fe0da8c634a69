"""The three workloads: inputs, one round of operations, and output checks.

A workload is a class with

``make_inputs(seed)``
    the inputs of a run, from the benchmark's own code only;
``run_round(inputs, ops)``
    one round of operations, each a call into su3geom's public API made
    through ``ops.call``; returns the outputs as a dict of arrays;
``check(inputs, outputs)``
    raises ``references.CheckFailed`` naming the check, and returns how many of the
    round's operations returned a wrong answer that counts as a failure.

Every round of a run repeats the same operations on the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

import references as ref
from references import require
from su3geom import euler, haar, invariant_forms, tangent_frames, verify
from su3geom.euler import DecompositionError
from su3geom.tangent_frames import ChartSingularityError

#: The documented errors that end one operation without ending the run.
FAILURES = (DecompositionError, ChartSingularityError)


def child_seeds(seed, k):
    """k independent 31-bit seeds for su3geom's samplers, derived from ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k) >> 1]


class HaarMC:
    """Monte Carlo Haar averages: 1.1 million sampled elements per round.

    Batched ``haar.sample_angles`` and ``euler.compose_many`` do nearly
    all the work; there is no grid and no per-point Python.
    """

    name = "haar_mc"
    CALIBRATION = "batched"
    CALIBRATE_EVERY = 1
    N_CHARACTERS = 500_000
    N_MOMENT = 500_000
    N_INVARIANCE = 100_000   # each sample is also translated by 5 elements on 2 sides
    N_REFERENCE = 200_000    # QR samples for the independent E|U_11|^4

    def make_inputs(self, seed):
        s_char, s_inv, s_mom, s_ref = child_seeds(seed, 4)
        return {"seed_characters": s_char, "seed_invariance": s_inv,
                "seed_moment": s_mom, "seed_reference": s_ref}

    def run_round(self, inputs, ops):
        chars = ops.call(verify.character_integrals_mc, self.N_CHARACTERS,
                         inputs["seed_characters"])
        worst = ops.call(verify.invariance_deviations, self.N_INVARIANCE,
                         inputs["seed_invariance"])
        moment = ops.call(haar.integrate_mc, u11_fourth, self.N_MOMENT,
                          inputs["seed_moment"], vectorized=True)
        return {
            "characters": np.array([c[1] for c in chars]),
            "characters_se": np.array([c[2] for c in chars]),
            "invariance": np.array([worst]),
            "moment": np.array([moment.estimate, moment.std_error]),
        }

    def check(self, inputs, out):
        # Schur orthogonality: <fund,fund> = 1, <fund,1> = 0, <adj,adj> = 1,
        # <fund,antifund> = 0
        for value, se, target in zip(out["characters"], out["characters_se"],
                                     (1.0, 0.0, 1.0, 0.0)):
            require(abs(value - target) <= 4 * se, "haar_mc.character_4sigma",
                    f"{value} vs {target}, se {se}")
        require(out["invariance"][0] <= 1.0, "haar_mc.invariance_deviation",
                f"{out['invariance'][0]} > 1")
        est, se = out["moment"][0], out["moment"][1].real
        # Weingarten: E|U_11|^4 = 2 / (d (d + 1)) = 1/6 for d = 3
        require(est.imag == 0 and abs(est.real - 1 / 6) <= 4 * se,
                "haar_mc.moment_weingarten_4sigma", f"{est} vs 1/6, se {se}")
        us = ref.qr_haar_su3(self.N_REFERENCE,
                             np.random.default_rng(inputs["seed_reference"]))
        m = np.abs(us[:, 0, 0]) ** 4
        ref_est, ref_se = m.mean(), m.std() / math.sqrt(len(m))
        require(abs(est.real - ref_est) <= 4 * math.hypot(se, ref_se),
                "haar_mc.moment_vs_qr_4sigma", f"{est.real} vs QR {ref_est}")
        return 0


def u11_fourth(us):
    return np.abs(us[:, 0, 0]) ** 4


class Quadrature:
    """The four character integrals by the product rule at 5 nodes per axis,
    and the group volume over two boxes.  Draws no random numbers.

    Building the grid, holding it in memory and composing it once per
    integrand dominate.  The gate runs 6 nodes (35 s); 5 keeps a round short.
    """

    name = "quadrature"
    CALIBRATION = "batched"
    CALIBRATE_EVERY = 1
    NODES = 5
    #: Nodes of the product grid; a phi axis with 3 | nodes gets one more.
    GRID_NODES = NODES ** 7 * (NODES + (NODES % 3 == 0))

    def make_inputs(self, seed):
        return {"nodes": self.NODES}

    def run_round(self, inputs, ops):
        chars = ops.call(verify.character_integrals_quadrature, inputs["nodes"])
        return {
            "characters": np.array([c[1] for c in chars]),
            "volumes": np.array([haar.group_volume(haar.RANGES_STATED),
                                 haar.group_volume(haar.RANGES_COVER)]),
        }

    def check(self, inputs, out):
        for value, target in zip(out["characters"], (1.0, 0.0, 1.0, 0.0)):
            require(abs(value - target) <= 0.02, "quadrature.character_0.02",
                    f"{value} vs {target}")
        for value, target, box in zip(out["volumes"],
                                      (ref.VOLUME_STATED, ref.VOLUME_COVER),
                                      ("stated", "cover")):
            require(abs(value - target) <= 1e-10, f"quadrature.volume_{box}",
                    f"{value!r} vs {target!r}")
        return 0


class Pointwise:
    """One element at a time: ``decompose`` on Haar elements and on a fixed
    boundary corpus, and the frames, coframes and adjoint matrix at Haar
    interior points.  Python overhead per call dominates.
    """

    name = "pointwise"
    CALIBRATION = "scalar"
    CALIBRATE_EVERY = 50
    N_HAAR = 500
    N_POINTS = 200
    MARGIN = 0.05             # beta, b, theta kept this far inside [0, pi/2]
    CORPUS_SEED = 2007        # the boundary corpus does not depend on --seed
    N_ROTATIONS = 2000
    FRAMES = (  # looked up at call time, so that traced runs see the wrappers
        (tangent_frames, "left_field_frame"),
        (tangent_frames, "right_field_frame"),
        (tangent_frames, "left_field_frame_closed"),
        (invariant_forms, "left_coframe"),
        (invariant_forms, "right_coframe"),
    )

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        points = ref.haar_interior_angles(self.N_POINTS, rng, self.MARGIN)
        corpus = boundary_corpus(np.random.default_rng(self.CORPUS_SEED),
                                 self.N_ROTATIONS)
        return {
            "haar": ref.qr_haar_su3(self.N_HAAR, rng),
            "corpus": corpus,
            "points": points,
            "point_elements": np.array([ref.euler_product(x) for x in points]),
        }

    def run_round(self, inputs, ops):
        out = {}
        for group in ("haar", "corpus"):
            angles = np.full((len(inputs[group]), 8), np.nan)
            for i, U in enumerate(inputs[group]):
                report = ops.call(euler.decompose, U, full_output=True)
                if report is not None:
                    angles[i] = report.angles.as_array()
            out[f"decompose_{group}"] = angles
        n = len(inputs["points"])
        for module, name in self.FRAMES:
            fn = getattr(module, name)
            out[name] = np.full((n, 8, 8), np.nan, dtype=complex)
            for p, x in enumerate(inputs["points"]):
                frame = ops.call(fn, x)
                if frame is not None:
                    out[name][p] = frame.entries
        out["adjoint_matrix"] = np.array([ops.call(tangent_frames.adjoint_matrix, U)
                                          for U in inputs["point_elements"]])
        return out

    def check(self, inputs, out):
        wrong = 0
        for group in ("haar", "corpus"):
            for U, x in zip(inputs[group], out[f"decompose_{group}"]):
                if np.isnan(x).any():
                    continue
                if not ref.in_cover_box(x):
                    wrong += 1  # a returned chart point outside the box is a wrong answer
                    continue
                residual = np.linalg.norm(ref.euler_product(x) - U)
                require(residual <= 1e-9, "pointwise.decompose_roundtrip",
                        f"{group} residual {residual:.3e}")

        lam = ref.GELL_MANN
        for p, (x, U) in enumerate(zip(inputs["points"], inputs["point_elements"])):
            if any(np.isnan(out[name][p]).any() for _, name in self.FRAMES):
                continue
            dD = ref.euler_partials_fd(x)
            left = -np.einsum("iab,bc->iac", lam, U)
            right = -np.einsum("ab,ibc->iac", U, lam)
            for name, target in (("left_field_frame", left), ("right_field_frame", right),
                                 ("left_field_frame_closed", left)):
                applied = np.einsum("ik,kab->iab", out[name][p], dD)
                residual = np.abs(applied - target).max()
                require(residual <= 1e-6, f"pointwise.{name}_defining_relation",
                        f"residual {residual:.3e} at point {p}")
            for form, frame in (("left_coframe", "left_field_frame"),
                                ("right_coframe", "right_field_frame")):
                real_frame = np.real(-1j * out[frame][p])
                pairing = out[form][p] @ real_frame.T
                residual = np.abs(pairing - np.eye(8)).max()
                require(residual <= 1e-9, f"pointwise.{form}_duality",
                        f"residual {residual:.3e} at point {p}")
            R = out["adjoint_matrix"][p]
            require(np.abs(R - ref.adjoint_reference(U)).max() <= 1e-12,
                    "pointwise.adjoint_entries", f"point {p}")
            require(np.abs(R @ R.T - np.eye(8)).max() <= 1e-12,
                    "pointwise.adjoint_orthogonal", f"point {p}")
            require(abs(np.linalg.det(R) - 1.0) <= 1e-12, "pointwise.adjoint_det",
                    f"point {p}")
        return wrong


def boundary_corpus(rng, n_rotations):
    """Elements on the edges of the chart, none depending on --seed.

    Real rotations, signed permutations, diagonal and centre elements, and
    products with beta, b or theta at 0 or pi/2 (the other angles random).
    """
    elements = list(ref.real_rotations(n_rotations, rng))
    elements += ref.signed_permutations()
    phases = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    elements += [np.diag([np.exp(1j * a), np.exp(1j * b), np.exp(-1j * (a + b))])
                 for a in phases for b in phases]
    elements += [np.exp(2j * math.pi * k / 3) * np.eye(3) for k in range(3)]
    for k in (1, 3, 5):
        for value in (0.0, math.pi / 2):
            for _ in range(10):
                x = np.array([rng.uniform(lo, hi) for lo, hi in ref.COVER_BOX])
                x[k] = value
                elements.append(ref.euler_product(x))
    return np.array(elements)


WORKLOADS = {w.name: w for w in (HaarMC(), Quadrature(), Pointwise())}
