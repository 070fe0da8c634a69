import importlib
import sys

import pytest

from conftest import ROOT, load_module


def test_benchmark_trace_targets_exist():
    # a traced benchmark run wraps each of these names; a missing one
    # would only show up there
    tracing = load_module("tracing")
    for module, function, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"su3geom.{module}"),
                                function)), (module, function)


class CountingOps:
    """The benchmark's ``ops.call`` without the timing: calls go through,
    and the errors that the benchmark counts as failed operations are counted."""

    def __init__(self, failures):
        self.failures = failures
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except self.failures:
            self.failed += 1
            return None


@pytest.mark.parametrize("name", ["haar_mc", "quadrature", "pointwise"])
def test_benchmark_round_passes_its_checks(monkeypatch, name):
    # one round of each workload against the API the benchmark pins, so
    # that a change to it fails here and not only in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    try:
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[name]
        inputs = workload.make_inputs(1)
        ops = CountingOps(workloads.FAILURES)
        outputs = workload.run_round(inputs, ops)
        assert ops.failed == 0
        assert workload.check(inputs, outputs) == 0
    finally:
        for module in ("workloads", "references"):
            sys.modules.pop(module, None)
