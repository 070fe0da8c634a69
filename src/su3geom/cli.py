"""Command-line surface: verify, sample, decompose, frames, integrate, volume.

Exit codes: 0 success / all checks pass; 1 check failure; 2 usage error;
3 numeric failure (singular chart, non-unitary input, non-convergence);
141 when the reader closes stdout early, as a shell reports for a writer
killed by SIGPIPE.  Commands raise, and only ``main`` maps an error to its
exit code and prints it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, haar, verify
from .euler import (COORD_NAMES, RANGES_STATED, AngleRanges, DecompositionError,
                    compose_many, decompose)
from .serialize import (angles_to_json, dumps, matrix_from_json,
                        matrix_to_json, sample_csv_lines)
from .tangent_frames import ChartSingularityError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _check_json(check):
    """``check.as_dict()`` with a non-finite residual or margin as None: JSON has no NaN."""
    return {k: None if k in ("residual", "margin") and not math.isfinite(v) else v
            for k, v in check.as_dict().items()}


def cmd_verify(args):
    results = verify.run_suites(args.suite, points=args.points, seed=args.seed)
    all_ok = all(c.passed for checks in results.values() for c in checks)
    if args.json:
        payload = {suite: [_check_json(c) for c in checks]
                   for suite, checks in results.items()}
        payload["passed"] = all_ok
        # what ran: each suite's sample count is --points or its default; a
        # suite whose default is 0 (algebra) samples nothing, whatever --points is
        defaults = {suite: verify.SUITES[suite][1] for suite in results}
        payload["run"] = {"seed": args.seed, "version": __version__, "points": {
            suite: args.points if args.points is not None and default else default
            for suite, default in defaults.items()}}
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
    if args.format == "csv" and args.emit != "angles":
        raise ValueError("csv output only supports --emit angles")
    xs = haar.sample_angles(args.n, args.seed)
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
    # an unreadable file is a usage error; main catches no OSError but a
    # closed stdout
    try:
        data = Path(args.file).read_bytes() if args.file else sys.stdin.buffer.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    try:
        # json.loads decodes the bytes; a bad encoding is a ValueError too
        U = matrix_from_json(json.loads(data))
    except ValueError as exc:
        raise ValueError(f"cannot parse input matrix: {exc}") from exc
    try:
        rep = decompose(U, full_output=True)
    except ValueError as exc:
        # a parsed matrix that is not special unitary is a numeric failure
        raise DecompositionError(str(exc)) from exc
    print(dumps({
        "angles": angles_to_json(rep.angles),
        "residual": rep.residual,
        "gamma_extended": rep.gamma_extended,
        "phi_extended": rep.phi_extended,
    }))
    return EXIT_OK


def cmd_frames(args):
    x = np.asarray(args.point, dtype=float)
    table = "form" if args.forms else "field"
    result = verify.ROUTES[(table, args.chirality)][args.closed](x)
    print(dumps({
        "matrix": matrix_to_json(result.entries),
        "chirality": args.chirality,
        "basis_order": list(verify._COLUMNS[table]),
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
    """The function of ``args`` on (m, 3, 3) stacks, and its degree.

    The degree is the larger of its degrees in U and in conj U: 1 for the
    characters, and the power sums of the two kinds of factors of a
    monomial.
    """
    if args.function == "tr":
        return (lambda us: haar.character(us, "fundamental")), 1
    if args.function == "abstr2":
        return (lambda us: (np.abs(haar.character(us, "fundamental")) ** 2).astype(complex)), 1
    if args.function == "adjchar":
        return (lambda us: haar.character(us, "adjoint")), 1
    terms = _parse_entrypoly(args.entrypoly)

    def fn(us):
        vals = np.ones(len(us), dtype=complex)
        for i, j, conj, power in terms:
            e = us[:, i, j]
            if conj:
                e = np.conj(e)
            vals = vals * e ** power
        return vals

    return fn, max(sum(power for *_, conj, power in terms if conj),
                   sum(power for *_, conj, power in terms if not conj))


def cmd_integrate(args):
    if args.function == "entrypoly" and not args.entrypoly:
        raise ValueError("--function entrypoly needs a spec argument")
    if args.function != "entrypoly" and args.entrypoly is not None:
        raise ValueError(f"--function {args.function} takes no spec argument, "
                         f"got {args.entrypoly!r}")
    fn, degree = _integrand(args)
    if args.method == "mc":
        result = haar.integrate_mc(fn, args.n, args.seed)
    else:
        # the product rule at N nodes is exact to degree (N - 1) // 2
        needed = 2 * degree + 1
        nodes = max(5, needed) if args.nodes is None else args.nodes
        if nodes < needed:
            raise ValueError(f"--nodes {nodes} is exact only to degree "
                             f"{(nodes - 1) // 2}; this integrand has degree "
                             f"{degree} and needs --nodes {needed} or more")
        result = haar.integrate_quadrature(fn, nodes)
    print(dumps({
        "estimate_re": result.estimate.real,
        "estimate_im": result.estimate.imag,
        "std_error": result.std_error,
        "n": result.n,
        "degree": result.degree,
        "elapsed_s": result.elapsed_s,
        "method": result.method,
    }))
    return EXIT_OK


def cmd_volume(args):
    ranges = RANGES_STATED
    if args.phi_range is not None:
        ranges = AngleRanges(phi=(0.0, args.phi_range))
    v = haar.group_volume(ranges)
    print(dumps({"analytic": v, "analytic_over_pi^5": v / math.pi ** 5}))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="su3geom",
        description="Euler-angle geometry of SU(3): verification, sampling, "
                    "factorization, frames and invariant integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity-check suites")
    p.add_argument("--suite", default="all",
                   choices=["all", *verify.SUITES])
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
                   metavar=tuple(n.upper() for n in COORD_NAMES))
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
    p.add_argument("--nodes", type=int, default=None,
                   help="quadrature nodes N per flat axis, exact to degree "
                        "(N - 1) // 2 (default: 5, or what the integrand's "
                        "degree needs)")
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
    # ChartSingularityError is a ValueError, so it must be caught first
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (ChartSingularityError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull, so
        # the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
