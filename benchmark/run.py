#!/usr/bin/env python3
"""The su3geom benchmark.

    python3 benchmark/run.py --workload {haar_mc,quadrature,pointwise}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; su3geom is imported from ``src/``.
The run sets up its inputs, repeats whole rounds of the workload's
operations for about S seconds, checks su3geom's outputs against
references computed without su3geom, and prints one JSON object as the
last line of standard output: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``, as ``BENCHMARK.json`` at the
root of the checkout lists them.  A failed check ends the run
with exit code 1 and the name of the check; a missing ``src/su3geom``
with exit code 2.  Full results and the first round's spans are written
to ``benchmark/results/``.  See benchmark/README.md.
"""

from __future__ import annotations

import os

# one process, one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from calibration import IMPORT_TASK, REFERENCE_S, Calibrator
from references import CheckFailed, require, selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-up is repeated this many times and the median reported.
SETUP_REPEATS = 7

#: Times the calibration imports and then ``import su3geom`` in a fresh
#: interpreter; prints both times in seconds.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                f"t0 = time.perf_counter(); {IMPORT_TASK}; t1 = time.perf_counter(); "
                "import su3geom, su3geom.verify; print(t1 - t0, time.perf_counter() - t1)")


def import_su3geom():
    """Import su3geom from this checkout's src/, and from nowhere else."""
    if not (SRC / "su3geom" / "__init__.py").is_file():
        print(f"benchmark: no su3geom sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import su3geom
    if Path(su3geom.__file__).resolve().parent != SRC / "su3geom":
        print(f"benchmark: su3geom was imported from {su3geom.__file__}",
              file=sys.stderr)
        sys.exit(2)


class OpLog:
    """Times the operations of one round and counts the documented failures.

    The calibration task runs before the first operation and after every
    ``every``-th, so each chunk of ``every`` operations is bracketed by two
    task times; the chunk's factor comes from their mean.  ``finish``
    closes the last chunk and scales the timings.
    """

    def __init__(self, failures, calibrator, every):
        self.failures = failures
        self.calibrator = calibrator
        self.every = every
        self.seconds = []
        self.failed = 0
        self.samples = [calibrator.sample()]
        self.chunks = []
        self.chunk_start = perf_counter()

    def call(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.failures:
            self.failed += 1
            return None
        finally:
            self.seconds.append(perf_counter() - start)
            if len(self.seconds) % self.every == 0:
                self._close_chunk()

    def _close_chunk(self):
        self.chunks.append(perf_counter() - self.chunk_start)
        self.samples.append(self.calibrator.sample())
        self.chunk_start = perf_counter()

    def finish(self):
        """Set raw_s, scaled_s and scaled (per operation) for the round."""
        if len(self.seconds) % self.every:
            self._close_chunk()
        factors = [self.calibrator.factor(pair)
                   for pair in zip(self.samples, self.samples[1:])]
        self.raw_s = sum(self.chunks)
        self.scaled_s = sum(c * f for c, f in zip(self.chunks, factors))
        self.seconds = np.array(self.seconds)
        self.scaled = self.seconds * np.repeat(factors, self.every)[:len(self.seconds)]


def set_up(workload, seed):
    """Import su3geom in a fresh interpreter and generate the inputs,
    ``SETUP_REPEATS`` times; returns the raw and the calibrated time of each
    repeat, and the inputs."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        task, t = (float(v) for v in done.stdout.split())
        start = perf_counter()
        inputs = workload.make_inputs(seed)
        t += perf_counter() - start
        raw.append(t)
        scaled.append(t * REFERENCE_S["import"] / task)
    return raw, scaled, inputs


def measure(workload, inputs, seconds, failures, calibrator, tracer):
    """Whole rounds until the next one would end after ``seconds``.

    Returns round 0's outputs and the OpLog of every round.  Every round's
    outputs must equal round 0's.
    """
    first = None
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops = OpLog(failures, calibrator, workload.CALIBRATE_EVERY)
        outputs = workload.run_round(inputs, ops)
        ops.finish()
        if tracer is not None:
            tracer.end_round(ops.scaled_s / ops.raw_s)
        if first is None:
            first = outputs
        else:
            require(same_outputs(first, outputs), "rounds_repeat",
                    f"round {len(rounds)} differs from round 0")
        rounds.append(ops)
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return first, rounds


def same_outputs(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k], equal_nan=True) for k in a)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=("haar_mc", "quadrature", "pointwise"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_su3geom()
    import tracing
    import workloads

    selftest()
    workload = workloads.WORKLOADS[args.workload]
    setup_raw, setup_scaled, inputs = set_up(workload, args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(workloads.FAILURES)
        tracing.install(tracer)
    first, rounds = measure(workload, inputs, args.seconds, workloads.FAILURES,
                            Calibrator(workload.CALIBRATION), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong = workload.check(inputs, first)

    attempted = sum(len(ops.seconds) for ops in rounds)
    failed = sum(ops.failed + wrong for ops in rounds)
    end_to_end = {
        "setup_s": statistics.median(setup_scaled),
        "run_s": statistics.median(ops.scaled_s for ops in rounds),
        "op_p50_ms": float(np.median(np.concatenate([ops.scaled for ops in rounds]))) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "run_s": statistics.median(ops.raw_s for ops in rounds),
        "op_p50_ms": float(np.median(np.concatenate([ops.seconds for ops in rounds]))) * 1e3,
    }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "round_raw_s": [ops.raw_s for ops in rounds],
        "round_scaled_s": [ops.scaled_s for ops in rounds],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "attempted": attempted, "failed": failed,
              "end_to_end": end_to_end, "end_to_end_raw": raw,
              "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled}

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if tracer is None:
        shown = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                 for m in spec["end_to_end"]}
    else:
        layers = tracer.layer_metrics()
        grid_nodes = (layers["verify.character_integrals_quadrature.calls"]
                      * getattr(workload, "GRID_NODES", 0))
        layers["quadrature.compose_per_node"] = (
            layers["euler.compose_many.items"] / grid_nodes if grid_nodes else 0.0)
        layers["euler.decompose.outside_box"] = wrong
        record["per_layer"] = layers
        shown = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                 for m in spec["per_layer"]}
        with open(RESULTS / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "items",
                                  "outcome"],
                       "spans": tracer.first_round_spans()}, fh)
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("# " + json.dumps(meta))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": shown}))


if __name__ == "__main__":
    try:
        main()
    except CheckFailed as exc:
        sys.exit(f"benchmark: check failed: {exc}")
