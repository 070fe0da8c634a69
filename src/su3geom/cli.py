"""Command-line surface: verify, sample, decompose, frames, integrate, volume.

Exit codes: 0 success / all checks pass; 1 check failure; 2 usage error;
3 numeric failure (singular chart, non-unitary input, non-convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import haar, verify
from .euler import COORD_NAMES, DecompositionError, compose_many, decompose
from .invariant_forms import (left_coframe, left_coframe_closed, right_coframe,
                              right_coframe_closed)
from .serialize import (angles_to_json, dumps, matrix_from_json,
                        matrix_to_json, sample_csv_lines)
from .tangent_frames import (ChartSingularityError, left_field_frame,
                             left_field_frame_closed, right_field_frame,
                             right_field_frame_closed)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def cmd_verify(args):
    try:
        results = verify.run_suites(args.suite, points=args.points, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    all_ok = all(c.passed for checks in results.values() for c in checks)
    if args.json:
        payload = {suite: [c.as_dict() for c in checks]
                   for suite, checks in results.items()}
        payload["passed"] = all_ok
        print(dumps(payload))
    else:
        for suite, checks in results.items():
            print(f"[{suite}]")
            for c in checks:
                mark = "PASS" if c.passed else "FAIL"
                print(f"  {mark}  {c.name:<40} residual {c.residual:.3e} "
                      f"(threshold {c.threshold:.1e})")
                if c.detail:
                    print(f"        {c.detail}")
        print("all checks passed" if all_ok else "CHECK FAILURES", flush=True)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_sample(args):
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv" and args.emit != "angles":
        print("error: csv output only supports --emit angles", file=sys.stderr)
        return EXIT_USAGE
    try:
        xs = haar.sample_angles(args.n, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    weights = haar.density(xs)
    if args.format == "csv":
        for line in sample_csv_lines(xs, weights):
            print(line)
        return EXIT_OK
    if args.emit in ("matrices", "both"):
        us = compose_many(xs)
    out = []
    for i, row in enumerate(xs):
        rec = {}
        if args.emit in ("angles", "both"):
            rec["angles"] = angles_to_json(row)
            rec["weight"] = float(weights[i])
        if args.emit in ("matrices", "both"):
            rec["matrix"] = matrix_to_json(us[i])
        out.append(rec)
    print(dumps({"samples": out, "seed": args.seed, "n": args.n}))
    return EXIT_OK


def cmd_decompose(args):
    if args.file:
        try:
            text = open(args.file).read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        text = sys.stdin.read()
    try:
        U = matrix_from_json(json.loads(text))
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: cannot parse input matrix: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = decompose(U, full_output=True)
    except (ValueError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(dumps({
        "angles": angles_to_json(rep.angles),
        "residual": rep.residual,
        "gamma_extended": rep.gamma_extended,
        "phi_extended": rep.phi_extended,
    }))
    return EXIT_OK


_FRAME_FNS = {
    ("left", False, False): left_field_frame,
    ("left", False, True): left_field_frame_closed,
    ("right", False, False): right_field_frame,
    ("right", False, True): right_field_frame_closed,
    ("left", True, False): left_coframe,
    ("left", True, True): left_coframe_closed,
    ("right", True, False): right_coframe,
    ("right", True, True): right_coframe_closed,
}


def cmd_frames(args):
    if len(args.point) != 8:
        print("error: --point needs 8 angles", file=sys.stderr)
        return EXIT_USAGE
    x = np.asarray(args.point, dtype=float)
    fn = _FRAME_FNS[(args.chirality, args.forms, args.closed)]
    try:
        result = fn(x)
    except ChartSingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    basis = [("d" + n) if args.forms else n for n in COORD_NAMES]
    print(dumps({
        "matrix": matrix_to_json(result.entries),
        "chirality": result.chirality,
        "basis_order": basis,
        "kind": ("coframe" if args.forms else "frame")
                + ("_closed" if args.closed else ""),
        "point": angles_to_json(x),
    }))
    return EXIT_OK


def _parse_entrypoly(spec):
    """Monomial over matrix entries: "i,j,conj|noconj,power;..." (1-based)."""
    terms = []
    for chunk in spec.split(";"):
        parts = chunk.strip().split(",")
        if len(parts) != 4:
            raise ValueError(f"bad entrypoly term {chunk!r}: need i,j,conj?,power")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= 3 and 1 <= j <= 3):
            raise ValueError(f"entry indices must be in 1..3, got {i},{j}")
        conj = parts[2].strip().lower()
        if conj not in ("conj", "noconj"):
            raise ValueError(f"third field must be conj or noconj, got {parts[2]!r}")
        power = int(parts[3])
        if power < 1:
            raise ValueError(f"power must be >= 1, got {power}")
        terms.append((i - 1, j - 1, conj == "conj", power))
    if not terms:
        raise ValueError("empty entrypoly spec")
    return terms


def _integrand(args):
    if args.function == "tr":
        return lambda us: haar.character(us, "fundamental")
    if args.function == "abstr2":
        return lambda us: (np.abs(np.einsum("nii->n", us)) ** 2).astype(complex)
    if args.function == "adjchar":
        return lambda us: haar.character(us, "adjoint")
    terms = _parse_entrypoly(args.entrypoly)

    def fn(us):
        vals = np.ones(len(us), dtype=complex)
        for i, j, conj, power in terms:
            e = us[:, i, j]
            if conj:
                e = np.conj(e)
            vals = vals * e ** power
        return vals

    return fn


def cmd_integrate(args):
    if args.function == "entrypoly" and not args.entrypoly:
        print("error: --function entrypoly needs a spec argument", file=sys.stderr)
        return EXIT_USAGE
    try:
        fn = _integrand(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.method == "mc":
            result = haar.integrate_mc(fn, args.n, args.seed)
        else:
            result = haar.integrate_quadrature(fn, args.nodes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(dumps({
        "estimate_re": result.estimate.real,
        "estimate_im": result.estimate.imag,
        "std_error": result.std_error,
        "n": result.n,
        "method": result.method,
    }))
    return EXIT_OK


def cmd_volume(args):
    ranges = haar.RANGES_STATED
    if args.phi_range is not None:
        if not (math.isfinite(args.phi_range) and args.phi_range > 0):
            print("error: --phi-range must be positive and finite", file=sys.stderr)
            return EXIT_USAGE
        ranges = haar.AngleRanges(phi=(0.0, args.phi_range))
    rep = haar.volume_report(ranges)
    print(dumps(rep))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="su3geom",
        description="Euler-angle geometry of SU(3): verification, sampling, "
                    "factorization, frames and invariant integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity-check suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "algebra", "frames", "forms", "measure"])
    p.add_argument("--points", type=int, default=None,
                   help="sample count (suite-specific default)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sample", help="draw Haar samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--emit", default="angles",
                   choices=["angles", "matrices", "both"])
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("decompose", help="factor a 3x3 special-unitary matrix")
    p.add_argument("--file", default=None,
                   help="JSON matrix file (default: stdin)")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("frames", help="evaluate a frame or coframe at a point")
    p.add_argument("--point", type=float, nargs=8, required=True,
                   metavar=("ALPHA", "BETA", "GAMMA", "THETA",
                            "A", "B", "C", "PHI"))
    p.add_argument("--chirality", default="left", choices=["left", "right"])
    p.add_argument("--forms", action="store_true",
                   help="emit the one-form coframe instead of the vector frame")
    p.add_argument("--closed", action="store_true",
                   help="emit the transcribed closed-form table")
    p.set_defaults(fn=cmd_frames)

    p = sub.add_parser("integrate", help="Haar-average a function of U")
    p.add_argument("--function", required=True,
                   choices=["tr", "abstr2", "adjchar", "entrypoly"])
    p.add_argument("entrypoly", nargs="?", default=None,
                   help='monomial spec "i,j,conj|noconj,power;..." for '
                        "--function entrypoly (1-based entry indices)")
    p.add_argument("--method", default="mc", choices=["mc", "quad"])
    p.add_argument("--n", type=int, default=100_000, help="MC sample count")
    p.add_argument("--nodes", type=int, default=5, help="quadrature nodes/dim")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("volume", help="density integral over coordinate ranges")
    p.add_argument("--phi-range", type=float, default=None,
                   help="upper phi bound (default: the stated 2 pi)")
    p.set_defaults(fn=cmd_volume)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
