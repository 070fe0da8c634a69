import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import su3geom
from su3geom import cli, haar, verify
from su3geom.euler import COORD_NAMES, compose_many
from su3geom.serialize import dumps, matrix_from_json, matrix_to_json
from su3geom.verify import CheckResult, run_suites

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


def test_verify_json_states_what_ran(capsys):
    # one top-level "run" object beside the suites and "passed": the seed,
    # the version and each suite's sample count, its default or --points
    assert cli.main(["verify", "--json", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"algebra", "frames", "forms", "measure", "passed", "run"}
    assert payload["run"] == {
        "seed": 3, "version": su3geom.__version__,
        "points": {"algebra": 0, "frames": 100, "forms": 100, "measure": 200_000}}
    assert cli.main(["verify", "--suite", "frames", "--points", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"frames", "passed", "run"}
    assert payload["run"] == {"seed": 7, "version": su3geom.__version__,
                              "points": {"frames": 5}}


def test_verify_json_reports_no_points_for_the_algebra_suite(capsys, monkeypatch):
    # the algebra suite samples nothing: it reports its default, 0,
    # whatever --points is, and the other suites report --points
    assert cli.main(["verify", "--suite", "algebra", "--points", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["points"] == {"algebra": 0}
    monkeypatch.setattr(verify, "run_suites",
                        lambda which, points, seed: {suite: [] for suite in verify.SUITES})
    assert cli.main(["verify", "--points", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["run"]["points"] == {
        "algebra": 0, "frames": 3, "forms": 3, "measure": 3}


def test_verify_measure_json_output():
    # the Monte Carlo checks compute numpy residuals; passed is still a bool
    proc = run_cli("verify", "--suite", "measure", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert all(c["passed"] is True for c in payload["measure"])
    assert "measure.cover_volume" in {c["name"] for c in payload["measure"]}
    assert all(c["elapsed_s"] >= 0 for c in payload["measure"])
    assert all(c["margin"] <= 1 for c in payload["measure"])


def test_run_suites_stamps_each_check_with_its_time():
    # the time since the previous yield: none negative, and together no
    # more than the wall time of the run
    start = time.perf_counter()
    results = run_suites("all", points=20, seed=3)
    wall = time.perf_counter() - start
    elapsed = [c.elapsed_s for checks in results.values() for c in checks]
    assert list(results) == ["algebra", "frames", "forms", "measure"]
    assert all(e >= 0 for e in elapsed)
    assert sum(elapsed) <= wall
    assert CheckResult(name="bare", residual=0.0, threshold=1.0).as_dict()["elapsed_s"] is None


def test_each_check_carries_its_own_time(monkeypatch):
    # a right-chirality residual that sleeps shows on its own check, not on
    # the left check yielded before it
    for name in ("defining_relation_residual", "duality_residual"):
        def slow_on_right(x, chirality, residual=getattr(verify, name)):
            if chirality == "right":
                time.sleep(0.05)
            return residual(x, chirality)
        monkeypatch.setattr(verify, name, slow_on_right)
    elapsed = {c.name: c.elapsed_s
               for suite in ("frames", "forms")
               for c in run_suites(suite, points=4)[suite]}
    for pair in ("frames.defining", "forms.duality"):
        assert elapsed[f"{pair}_right"] >= 0.05
        assert elapsed[f"{pair}_left"] < 0.05


#: Every check of ``run_suites("all")`` and its threshold, in order.
PINNED_CHECKS = [
    ("algebra.commutator_table", 1e-12),
    ("algebra.orthogonality", 1e-12),
    ("algebra.jacobi", 1e-12),
    ("algebra.antisymmetry", 1e-12),
    ("algebra.imaginary_structure_constants", 1e-12),
    ("algebra.cartan_split", 1e-12),
    ("frames.defining_left", 1e-09),
    ("frames.defining_right", 1e-09),
    ("frames.closed_table_left", 1e-09),
    ("frames.closed_table_right", 1e-09),
    ("frames.maurer_cartan_rows", 1e-12),
    ("frames.adjoint_orthogonal", 1e-10),
    ("frames.adjoint_homomorphism", 1e-10),
    ("frames.adjoint_links_frames", 1e-09),
    ("frames.brackets_left", 1e-06),
    ("frames.brackets_right", 1e-06),
    ("frames.brackets_cross", 1e-06),
    ("forms.duality_left", 1e-09),
    ("forms.duality_right", 1e-09),
    ("forms.reality", 1e-12),
    ("forms.closed_table_left", 1e-09),
    ("forms.closed_table_right", 1e-09),
    ("forms.divergence_free_left", 1e-08),
    ("forms.divergence_free_right", 1e-08),
    ("forms.density_ratio_constant", 1e-08),
    ("forms.density_ratio_left_right", 1e-08),
    ("forms.invariance_right_translation", 1e-06),
    ("forms.covariance_left_translation", 1e-06),
    ("measure.density_value", 1e-15),
    ("measure.group_ops", 1e-12),
    ("measure.cover_volume", 1e-12),
    ("measure.volume_stated_ranges", 1e-10),
    ("measure.sampler_marginals", 1.0),
    ("measure.characters_mc", 1.0),
    ("measure.characters_quadrature", 1e-12),
    ("measure.translation_invariance", 1.0),
    ("measure.decompose_roundtrip", 1e-09),
]


def test_suites_yield_the_pinned_checks():
    # no rework of the suites drops, renames, reorders or loosens a check
    results = run_suites("all", points=4)
    assert [(c.name, c.threshold) for checks in results.values()
            for c in checks] == PINNED_CHECKS


def test_check_result_passed_is_residual_within_threshold():
    nan = CheckResult(name="nan", residual=float("nan"), threshold=1.0)
    assert nan.passed is False
    assert nan.as_dict()["passed"] is False
    edge = CheckResult(name="edge", residual=np.float64(1.0), threshold=1.0)
    assert edge.passed is True
    assert json.loads(dumps(edge.as_dict()))["passed"] is True
    assert CheckResult(name="over", residual=1.5, threshold=1.0).passed is False


def test_check_result_as_dict_keys_and_margin():
    check = CheckResult(name="half", residual=0.5, threshold=2.0)
    assert set(check.as_dict()) == {"name", "passed", "residual", "threshold",
                                    "margin", "detail", "elapsed_s"}
    assert check.as_dict()["margin"] == 0.25
    nan = CheckResult(name="nan", residual=float("nan"), threshold=1.0).as_dict()
    assert math.isnan(nan["margin"]) and nan["passed"] is False


@pytest.mark.parametrize("residual", [math.nan, math.inf])
def test_verify_json_writes_a_nonfinite_residual_as_null(monkeypatch, capsys, residual):
    # JSON has no NaN or infinity: the check reads null and fails, and the
    # exit code is the plain form's 1, not a usage error from the encoder
    algebra, default, minimum = verify.SUITES["algebra"]

    def broken_jacobi(points, seed):
        for check in algebra(points, seed):
            yield (dataclasses.replace(check, residual=residual)
                   if check.name == "algebra.jacobi" else check)

    monkeypatch.setitem(verify.SUITES, "algebra", (broken_jacobi, default, minimum))
    assert cli.main(["verify", "--suite", "algebra"]) == 1
    assert "FAIL  algebra.jacobi" in capsys.readouterr().out
    assert cli.main(["verify", "--suite", "algebra", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    for check in payload["algebra"]:
        broken = check["name"] == "algebra.jacobi"
        assert check["passed"] is not broken
        assert (check["residual"] is None) is broken
        assert (check["margin"] is None) is broken


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


def test_sample_csv_rows_parse_back_to_the_sampler(capsys):
    # 17 significant digits: every angle and weight reads back exactly
    assert cli.main(["sample", "--n", "300", "--seed", "5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,beta,gamma,theta,a,b,c,phi,weight"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    xs = haar.sample_angles(300, 5)
    assert np.array_equal(rows[:, :8], xs)
    assert np.array_equal(rows[:, 8], haar.density(xs))


def test_sample_json_matrices_are_compose_many(capsys):
    assert cli.main(["sample", "--n", "300", "--seed", "5", "--format", "json",
                     "--emit", "both"]) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    xs = haar.sample_angles(300, 5)
    assert np.array_equal([[rec["angles"][k] for k in COORD_NAMES] for rec in samples], xs)
    assert np.array_equal([rec["weight"] for rec in samples], haar.density(xs))
    assert np.array_equal([matrix_from_json(rec["matrix"]) for rec in samples],
                          compose_many(xs))


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


def test_decompose_non_numeric_entry_usage_error():
    # numpy alone would read a JSON true among numbers as 1
    for entry in ({}, True):
        obj = matrix_to_json(np.eye(3, dtype=complex))
        obj["re"][2][2] = entry
        proc = run_cli("decompose", stdin=json.dumps(obj))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


def test_decompose_ragged_rows_usage_error():
    obj = matrix_to_json(np.eye(3, dtype=complex))
    obj["im"][2][2] = [1]
    proc = run_cli("decompose", stdin=json.dumps(obj))
    assert proc.returncode == 2
    assert "expected (3, 3) matrices" in proc.stderr


def test_decompose_file_not_utf8_usage_error(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_bytes(b'{"re": \xff}')
    proc = run_cli("decompose", "--file", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


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
    ("sample", "--n", "0"),
    ("sample", "--n", "-3"),
    ("volume", "--phi-range", "0"),
    ("volume", "--phi-range", "-1"),
    ("integrate", "--function", "tr", "--method", "quad", "--nodes", "1000001"),
    # a spec that only entrypoly reads, given with another function
    ("integrate", "--function", "tr", "1,1,conj,1", "--method", "quad"),
    ("integrate", "--function", "abstr2", "1,1,conj,1", "--method", "quad"),
    ("integrate", "--function", "adjchar", "1,1,conj,1", "--method", "quad"),
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


def test_frames_wrong_point_count_usage_error():
    # argparse rejects anything but 8 values for --point with its own usage text
    proc = run_cli("frames", "--point", "1", "2", "3")
    assert proc.returncode == 2
    assert "expected 8 arguments" in proc.stderr


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


@pytest.mark.parametrize("chirality", ["left", "right"])
@pytest.mark.parametrize("forms", [False, True], ids=["field", "form"])
@pytest.mark.parametrize("closed", [False, True], ids=["constructive", "closed"])
def test_frames_serves_the_matching_function(capsys, chirality, forms, closed):
    # named by hand, so the test does not read the CLI's own routing
    kind = ("coframe" if forms else "frame") + ("_closed" if closed else "")
    name = f"{chirality}_" + ("" if forms else "field_") + kind
    pt = [0.4, 0.6, 1.1, 0.7, 0.9, 0.5, 0.3, 2.0]
    flags = ["--forms"] * forms + ["--closed"] * closed
    code = cli.main(["frames", "--point", *map(str, pt), "--chirality", chirality,
                     *flags])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    expected = getattr(su3geom, name)(np.array(pt)).entries
    got = np.array(payload["matrix"]["re"]) + 1j * np.array(payload["matrix"]["im"])
    assert np.array_equal(got, expected)
    assert payload["kind"] == kind
    names = ["alpha", "beta", "gamma", "theta", "a", "b", "c", "phi"]
    assert payload["basis_order"] == (["d" + n for n in names] if forms else names)
    assert payload["chirality"] == chirality


def test_closed_stdout_exits_141():
    # the reader takes one line and goes; the writer stops without a traceback
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "su3geom.cli", "sample", "--n", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.readline().startswith(b"alpha,")
    proc.stdout.close()
    assert proc.wait(timeout=600) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


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


def test_integrate_quadrature_refuses_too_few_nodes():
    # E|U_11|^6 = 1/10 has degree 3, past the 5-node rule's degree 2
    spec = ("integrate", "--function", "entrypoly", "1,1,noconj,3;1,1,conj,3",
            "--method", "quad")
    proc = run_cli(*spec, "--nodes", "5")
    assert proc.returncode == 2
    assert "--nodes 7" in proc.stderr


def test_integrate_quadrature_default_nodes_follow_the_degree():
    spec = ("integrate", "--function", "entrypoly", "1,1,noconj,3;1,1,conj,3",
            "--method", "quad")
    payload = json.loads(run_cli(*spec).stdout)
    assert abs(complex(payload["estimate_re"], payload["estimate_im"]) - 0.1) <= 1e-12


def test_integrate_quadrature_runs_tr_at_the_fewest_nodes():
    proc = run_cli("integrate", "--function", "tr", "--method", "quad", "--nodes", "3")
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["estimate_re"]) <= 1e-12


def test_integrate_reports_the_degree_of_the_rule():
    # an even node count gets the degree of the odd count below it
    payload = json.loads(run_cli("integrate", "--function", "tr", "--method", "quad",
                                 "--nodes", "6").stdout)
    assert payload["degree"] == 2 and payload["n"] == 25_000
    payload = json.loads(run_cli("integrate", "--function", "tr", "--method", "mc",
                                 "--n", "1000").stdout)
    assert payload["degree"] is None


def test_integrate_reports_elapsed_time():
    for method in (("--method", "mc", "--n", "1000"), ("--method", "quad", "--nodes", "3")):
        payload = json.loads(run_cli("integrate", "--function", "tr", *method).stdout)
        assert math.isfinite(payload["elapsed_s"]) and payload["elapsed_s"] >= 0


def test_integrate_bad_entrypoly():
    proc = run_cli("integrate", "--function", "entrypoly", "5,1,conj,1")
    assert proc.returncode == 2
    proc = run_cli("integrate", "--function", "entrypoly")
    assert proc.returncode == 2


def test_volume_default():
    payload = json.loads(run_cli("volume").stdout)
    assert payload["analytic"] == pytest.approx(math.pi ** 5, rel=1e-12)
    assert payload["sphere_product_target"] == pytest.approx(2 * math.pi ** 5)


def test_volume_phi_range():
    payload = json.loads(run_cli("volume", "--phi-range",
                                 str(4 * math.pi)).stdout)
    assert payload["analytic"] == pytest.approx(2 * math.pi ** 5, rel=1e-12)
