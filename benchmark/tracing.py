"""Spans around su3geom's public functions, recorded from outside the library.

``install`` replaces each traced function by a wrapper at every name
through which su3geom's modules look it up (``haar.compose_many`` and
``verify.compose_many`` are the same function as ``euler.compose_many``),
so calls made inside the library are traced as well as the benchmark's
own.  A span is (name, start, end, parent, items, outcome); the self time
of a span is its duration minus the durations of its children, which run
nested inside it on the one thread.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

import numpy as np


def _n_first(args, kwargs, result):
    return int(args[0] if args else kwargs["n"])


def _n_second(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _rows(args, kwargs, result):
    return int(np.shape(args[0])[0])


def _result_n(args, kwargs, result):
    return int(result.n)


#: (module, function, items) for every traced function; items counts the
#: work of one call (samples, elements or quadrature nodes), else 1.
TARGETS = (
    ("euler", "compose", None),
    ("euler", "compose_many", _rows),
    ("euler", "decompose", None),
    ("haar", "sample_angles", _n_first),
    ("haar", "integrate_mc", _n_second),
    ("haar", "integrate_quadrature", _result_n),
    ("haar", "group_volume", None),
    ("verify", "character_integrals_mc", _n_first),
    ("verify", "invariance_deviations", _n_first),
    ("verify", "character_integrals_quadrature", None),
    ("tangent_frames", "partial_derivatives", None),
    ("tangent_frames", "maurer_cartan_coefficients", None),
    ("tangent_frames", "left_field_frame", None),
    ("tangent_frames", "right_field_frame", None),
    ("tangent_frames", "left_field_frame_closed", None),
    ("tangent_frames", "adjoint_matrix", None),
    ("invariant_forms", "left_coframe", None),
    ("invariant_forms", "right_coframe", None),
)


class Tracer:
    """Records spans during rounds and reduces each round as it ends.

    The spans of the first round are kept whole for the trace file; later
    rounds keep only per-name sums and every call's duration.
    """

    def __init__(self, failures):
        self.failures = failures  # exception types that count as failed calls
        self.spans = []
        self.stack = []
        self.first_round = None
        self.per_round = []       # one {name: {calls, items, self_s, ...}} per round
        self.durations = {}       # name -> every call's duration, all rounds

    def wrap(self, name, fn, items):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            outcome = "ok"
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if getattr(result, "polished", False):
                    outcome = "polished"
                return result
            except self.failures:
                outcome = "failed"
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                n = items(args, kwargs, result) if items and outcome != "failed" else 1
                self.spans[index] = (name, start, end, parent, n, outcome)
        return traced

    def end_round(self, factor):
        """Reduce the round's spans, with times scaled by the calibration factor."""
        spans = self.spans
        self.spans = []
        if self.first_round is None:
            self.first_round = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        sums = {}
        for (name, start, end, _, n, outcome), covered in zip(spans, child):
            s = sums.setdefault(name, {"calls": 0, "items": 0, "self_s": 0.0,
                                       "total_s": 0.0, "failed": 0, "polished": 0})
            s["calls"] += 1
            s["items"] += n
            s["total_s"] += (end - start) * factor
            s["self_s"] += (end - start - covered) * factor
            s["failed"] += outcome == "failed"
            s["polished"] += outcome == "polished"
            self.durations.setdefault(name, []).append((end - start) * factor)
        self.per_round.append(sums)

    def layer_metrics(self):
        """Per-round medians of the sums, and call-time percentiles, by name.

        Every traced function gets every field; one never called reads 0.
        """
        out = {}
        for module, function, _ in TARGETS:
            name = f"{module}.{function}"
            rounds = [r.get(name, {}) for r in self.per_round]
            for field in ("calls", "items", "self_s", "total_s", "failed", "polished"):
                out[f"{name}.{field}"] = statistics.median(r.get(field, 0) for r in rounds)
            d = np.array(self.durations.get(name, [0.0])) * 1e6
            out[f"{name}.p50_us"] = float(np.percentile(d, 50))
            out[f"{name}.p99_us"] = float(np.percentile(d, 99))
        return out

    def first_round_spans(self):
        t0 = min((s[1] for s in self.first_round or ()), default=0.0)
        return [[name, start - t0, end - t0, parent, n, outcome]
                for name, start, end, parent, n, outcome in self.first_round or ()]


def install(tracer):
    """Wrap every target at each name su3geom's modules bind it to."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "su3geom" or name.startswith("su3geom.")]
    for module, function, items in TARGETS:
        original = getattr(sys.modules[f"su3geom.{module}"], function)
        wrapped = tracer.wrap(f"{module}.{function}", original, items)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
