import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import su3geom
from su3geom.serialize import dumps, matrix_from_json, matrix_to_json
from su3geom.verify import CheckResult

#: The directory holding the su3geom package under test; the CLI
#: subprocesses import from it too.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(su3geom.__file__))


def run_cli(*args, stdin=None, env=None):
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "su3geom.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path, **(env or {})})
    return proc


def test_verify_algebra_passes():
    proc = run_cli("verify", "--suite", "algebra")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_json_output():
    proc = run_cli("verify", "--suite", "algebra", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["algebra"]}
    assert "algebra.commutator_table" in names
    # canonical emission: parse -> re-emit is byte-identical
    assert dumps(json.loads(proc.stdout)) == proc.stdout.strip()


def test_verify_measure_json_output():
    # the Monte Carlo checks compute numpy residuals; passed is still a bool
    proc = run_cli("verify", "--suite", "measure", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert all(c["passed"] is True for c in payload["measure"])


def test_check_result_passed_is_residual_within_threshold():
    nan = CheckResult(name="nan", residual=float("nan"), threshold=1.0)
    assert nan.passed is False
    assert nan.as_dict()["passed"] is False
    edge = CheckResult(name="edge", residual=np.float64(1.0), threshold=1.0)
    assert edge.passed is True
    assert json.loads(dumps(edge.as_dict()))["passed"] is True
    assert CheckResult(name="over", residual=1.5, threshold=1.0).passed is False


def test_verify_unknown_suite_usage_error():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2


def test_sample_csv_deterministic():
    a = run_cli("sample", "--n", "3", "--seed", "1", "--format", "csv")
    b = run_cli("sample", "--n", "3", "--seed", "1", "--format", "csv")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "alpha,beta,gamma,theta,a,b,c,phi,weight"
    assert len(lines) == 4


def test_sample_depends_only_on_seed_and_n():
    # the rows depend on (seed, n) only, whatever the environment says
    proc = run_cli("sample", "--n", "2", "--seed", "1",
                   env={"SU3_GEOM_WORKERS": "3"})
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == [
        "0.95368710644280708,1.1712919889109403,0.98102374334249598,"
        "0.43340618856296831,2.8282767585566213,0.2302092071032201,"
        "2.3407623274291627,2.6800632459305689,0.042810347792619739",
        "1.2825923532626879,0.42359788219005806,1.6449202171397206,"
        "1.2581679133196753,2.3148858274734523,0.88760192413006134,"
        "0.84265715340928349,3.9952547104162521,0.38888261066404772",
    ]


def test_sample_workers_option_removed():
    assert run_cli("--workers", "2", "sample", "--n", "2").returncode == 2
    assert run_cli("sample", "--n", "2", "--workers", "2").returncode == 2


def test_sample_matrices_unitary_on_reread():
    proc = run_cli("sample", "--n", "4", "--seed", "2", "--format", "json",
                   "--emit", "matrices")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["samples"]) == 4
    for rec in payload["samples"]:
        U = matrix_from_json(rec["matrix"])
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(U) - 1.0) <= 1e-12


def test_sample_zero_usage_error():
    proc = run_cli("sample", "--n", "0")
    assert proc.returncode == 2


def test_sample_csv_matrices_usage_error():
    proc = run_cli("sample", "--n", "1", "--format", "csv",
                   "--emit", "matrices")
    assert proc.returncode == 2


def test_decompose_identity():
    text = dumps(matrix_to_json(np.eye(3, dtype=complex)))
    proc = run_cli("decompose", stdin=text)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert all(abs(v) <= 1e-12 for v in payload["angles"].values())
    assert payload["residual"] <= 1e-12


def test_decompose_piped_from_sample():
    proc = run_cli("sample", "--n", "5", "--seed", "7", "--format", "json",
                   "--emit", "matrices")
    for rec in json.loads(proc.stdout)["samples"]:
        out = run_cli("decompose", stdin=dumps(rec["matrix"]))
        assert out.returncode == 0
        assert json.loads(out.stdout)["residual"] <= 1e-9


def test_decompose_non_unitary_numeric_error():
    text = dumps(matrix_to_json(np.eye(3) * 1.5))
    proc = run_cli("decompose", stdin=text)
    assert proc.returncode == 3


def test_decompose_garbage_usage_error():
    proc = run_cli("decompose", stdin="not json at all")
    assert proc.returncode == 2


def test_decompose_nonfinite_usage_error():
    obj = matrix_to_json(np.eye(3, dtype=complex))
    obj["re"][1][1] = math.nan
    proc = run_cli("decompose", stdin=json.dumps(obj))
    assert proc.returncode == 2
    assert "finite" in proc.stderr


@pytest.mark.parametrize("suite,points", [("measure", 1), ("frames", 0),
                                          ("forms", 0), ("all", 1)])
def test_verify_too_few_points_usage_error(suite, points):
    proc = run_cli("verify", "--suite", suite, "--points", str(points))
    assert proc.returncode == 2
    assert f"got {points}" in proc.stderr


@pytest.mark.parametrize("args", [
    ("sample", "--n", "2", "--seed", "-1"),
    ("sample", "--n", "2", "--seed", str(2 ** 64)),
    ("integrate", "--function", "tr", "--seed", "-1"),
    ("integrate", "--function", "tr", "--seed", str(2 ** 64)),
    ("verify", "--seed", "-1"),
    ("verify", "--seed", str(2 ** 64)),
    ("volume", "--phi-range", "nan"),
    ("volume", "--phi-range", "inf"),
    ("frames", "--point", "0.4", "0.6", "1.1", "nan", "0.9", "0.5", "0.3", "2.0"),
])
def test_bad_input_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_verify_largest_seed_runs():
    # every stream verify derives from the seed wraps into [0, 2^64)
    proc = run_cli("verify", "--seed", str(2 ** 64 - 1), "--points", "2000")
    assert proc.returncode == 0, proc.stderr


def test_frames_singular_point():
    proc = run_cli("frames", "--point", "0", "0", "0", "0", "0", "0", "0", "0")
    assert proc.returncode == 3
    assert "sin(2*beta)" in proc.stderr


def test_frames_duality_through_cli():
    pt = ["0.4", "0.6", "1.1", "0.7", "0.9", "0.5", "0.3", "2.0"]
    frame = json.loads(run_cli("frames", "--point", *pt).stdout)
    forms = json.loads(run_cli("frames", "--point", *pt, "--forms").stdout)
    a = np.array(frame["matrix"]["re"]) + 1j * np.array(frame["matrix"]["im"])
    b = np.array(forms["matrix"]["re"]) + 1j * np.array(forms["matrix"]["im"])
    assert a.shape == b.shape == (8, 8)
    pairing = b.real @ np.real(-1j * a).T
    assert np.max(np.abs(pairing - np.eye(8))) <= 1e-9
    assert frame["basis_order"][0] == "alpha"
    assert forms["basis_order"][0] == "dalpha"
    assert frame["chirality"] == "left"


def test_frames_closed_variant_runs():
    pt = ["0.4", "0.6", "1.1", "0.7", "0.9", "0.5", "0.3", "2.0"]
    proc = run_cli("frames", "--point", *pt, "--chirality", "right", "--closed")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "frame_closed"


def test_integrate_abstr2_mc():
    proc = run_cli("integrate", "--function", "abstr2", "--method", "mc",
                   "--n", "200000", "--seed", "3")
    payload = json.loads(proc.stdout)
    assert abs(payload["estimate_re"] - 1.0) <= 4 * payload["std_error"]
    assert payload["method"] == "mc"


def test_integrate_entrypoly_entry_moment():
    proc = run_cli("integrate", "--function", "entrypoly",
                   "1,1,conj,1;1,1,noconj,1", "--method", "mc",
                   "--n", "200000", "--seed", "4")
    payload = json.loads(proc.stdout)
    assert abs(payload["estimate_re"] - 1.0 / 3.0) <= 4 * payload["std_error"]


def test_integrate_quadrature_tr():
    proc = run_cli("integrate", "--function", "tr", "--method", "quad",
                   "--nodes", "4")
    payload = json.loads(proc.stdout)
    assert abs(complex(payload["estimate_re"], payload["estimate_im"])) <= 0.02
    assert payload["std_error"] is None


def test_integrate_bad_entrypoly():
    proc = run_cli("integrate", "--function", "entrypoly", "5,1,conj,1")
    assert proc.returncode == 2
    proc = run_cli("integrate", "--function", "entrypoly")
    assert proc.returncode == 2


def test_volume_default():
    payload = json.loads(run_cli("volume").stdout)
    assert payload["analytic"] == pytest.approx(math.pi ** 5, rel=1e-12)
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-10)
    assert payload["sphere_product_target"] == pytest.approx(2 * math.pi ** 5)


def test_volume_phi_range():
    payload = json.loads(run_cli("volume", "--phi-range",
                                 str(4 * math.pi)).stdout)
    assert payload["analytic"] == pytest.approx(2 * math.pi ** 5, rel=1e-12)
