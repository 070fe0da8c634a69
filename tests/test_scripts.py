import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quadrature_convergence_stated_box_rows():
    script = load_script("quadrature_convergence")
    rows = script.stated_box_characters(3)
    assert len(rows) == 4
    for name, value, se, target in rows:
        assert isinstance(name, str) and se is None
        assert np.isfinite(value) and np.isfinite(target)


def test_quadrature_convergence_main_prints_every_row(capsys):
    script = load_script("quadrature_convergence")
    script.main()
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "nodes_per_dim" in line]
    # 3..7 nodes over the cover box, then 5 and 6 over the stated box
    assert [int(line.split("=")[1].split(":")[0]) for line in rows] == [3, 4, 5, 6, 7, 5, 6]
    assert "5 x 2 x 5 x 2 x 5 x 2 x 5 x 5 = 25000 nodes" in rows[2]


def test_benchmark_trace_targets_exist():
    # a traced benchmark run wraps each of these names; a missing one
    # would only show up there
    tracing = load_script("tracing", ROOT / "benchmark")
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
