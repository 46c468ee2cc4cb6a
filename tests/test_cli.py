"""Command-line interface: flags, exit codes, report artifacts, determinism."""

import json
import subprocess
import sys
import warnings

import pytest

from superint import cli, geometry, systems
from superint.cli import build_parser, main

BASE = [sys.executable, "-m", "superint.cli"]

GENERIC_FLAGS = ["--class", "I1", "--kappa", "1", "--lambda", "0.5", "--mu", "-0.3",
                 "--nu", "2", "--k", "0.4", "--ell", "-0.1", "--m", "0.2", "--n", "1"]


def run(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kw)


def test_verify_full_suite():
    r = run("verify", *GENERIC_FLAGS, "--points", "100", "--seed", "12648430",
            "--no-timestamp")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["schema"] == "superint-report/1"
    assert [i["name"] for i in doc["identities"]] == ["HA", "HB", "HC",
                                                      "AC_row", "BC_row"]
    assert doc["pass"] is True and doc["correction_applied"] is False
    assert doc["seed"] == 12648430


def test_verify_parse_error_exits_2():
    r = run("verify", "--class", "I1", "--kappa", "abc")
    assert r.returncode == 2
    assert "invalid float" in r.stderr


def test_missing_spec_exits_2():
    r = run("verify")
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_sampling_failure_exits_3():
    r = run("verify", "--class", "I1")  # all parameters zero: g vanishes
    assert r.returncode == 3
    assert "SamplingError" in r.stderr


@pytest.mark.parametrize("cmd", ["casimir", "curvature", "revolution", "linear"])
def test_every_sampling_command_exits_3_when_sampling_fails(cmd, capsys):
    # as `verify` above: the all-zero I1 spec keeps no point
    assert main([cmd, "--class", "I1", "--no-timestamp"]) == 3
    assert capsys.readouterr().err.startswith("SamplingError: domain for I1 rejected")


@pytest.mark.parametrize("argv", [
    ["linear", "--class", "I1", "--mu", "0.5", "--nu", "1.5", "--m", "0.2", "--n", "0.1",
     "--sign", "both"],
    ["revolution", "--class", "I1", "--mu", "0.5", "--nu", "1.5"],
    ["curvature", *GENERIC_FLAGS],
])
def test_each_geometry_command_samples_its_points_once(argv, monkeypatch, capsys):
    # every (sign, coords) check of `linear` and both coords of `revolution`
    # read the one sample: the same seed would only draw the same points again
    calls = []

    def spy(*args):
        calls.append(args)
        return systems.sample_points(*args)

    for module in (cli, geometry):
        monkeypatch.setattr(module, "sample_points", spy, raising=False)
    assert main([*argv, "--no-timestamp"]) in (0, 1)
    assert len(calls) == 1


def test_spec_file(tmp_path):
    doc = {"class": "II3", "kappa": 1.0, "lambda": 0.5, "mu": -0.3, "nu": 2.0,
           "k": 0.4, "ell": -0.1, "m": 0.2, "n": 1.0}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    r = run("casimir", "--spec-file", str(path), "--no-timestamp")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["spec"] == doc and out["kind"] == "casimir"


def test_bad_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"class": "II3"}')
    r = run("verify", "--spec-file", str(path))
    assert r.returncode == 2
    # documents that are no object, and parameters that are no number
    rest = '"class": "I1", "lambda": 0, "mu": 0, "nu": 1, "k": 0, "ell": 0, "m": 0, "n": 0'
    for text in ["3", "[]", '"I1"', "null"] + [
            f'{{{rest}, "kappa": {value}}}' for value in ("null", "[1]", "{}")]:
        path.write_text(text)
        assert main(["verify", "--spec-file", str(path)]) == 2, text
        assert capsys.readouterr().err.startswith("config error: bad spec file"), text


def test_curvature_expectation():
    flat = ["--class", "II1", "--kappa", "1"]
    assert run("curvature", *flat, "--expect", "zero").returncode == 0
    assert run("curvature", *flat, "--expect", "constant").returncode == 1


def test_revolution_command():
    r = run("revolution", "--class", "I1", "--mu", "0.5", "--nu", "1.5",
            "--no-timestamp")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["result"]["liouville"] == "DiffOnly"


def test_linear_command_both_signs():
    r = run("linear", "--class", "I1", "--mu", "0.5", "--nu", "1.5",
            "--m", "0.2", "--n", "0.1", "--sign", "both", "--no-timestamp")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["pass"] is True
    assert doc["residuals"]["plus/liouville"] <= 1e-9


def test_tables_t3_summary():
    r = run("tables", "--table", "T3", "--draws", "2", "--no-timestamp")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["rows"]) == 11
    assert all(row["status"] == "verified" for row in doc["rows"])


TRAJECTORY = ["trajectory", "--class", "II2", "--nu", "2", "--initial", "1,1,0.7,0.6"]


def test_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    r = run("trajectory", "--class", "II2", "--kappa", "0.3", "--nu", "2",
            "--k", "0.3", "--n", "0.2", "--initial", "1,1,0.7,0.6",
            "--t-end", "1", "--output", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,xi,eta,p_xi,p_eta,H,A,B,K"
    assert len(lines) > 2
    summary = json.loads(r.stderr)
    assert summary["status"] == "completed"


@pytest.mark.parametrize("argv, momenta, scale", [
    # H = 22.9 from the momenta: scaled twice by 0.7, and the summary says so
    (["trajectory", "--class", "II2", "--kappa", "0.3", "--nu", "2", "--k", "0.3",
      "--n", "0.2", "--initial", "1,1,9,8"], (9.0 * 0.7 * 0.7, 8.0 * 0.7 * 0.7), 0.7 * 0.7),
    # H = 272.9 from the potential: no scaling reaches 10, the state is kept
    (["trajectory", "--class", "II1", "--k", "500", "--nu", "1", "--mu", "1",
      "--initial", "1,1.2,0.6,0.7"], (0.6, 0.7), None),
    (TRAJECTORY, (0.7, 0.6), None),
])
def test_trajectory_integrates_the_initial_state_it_reports(argv, momenta, scale,
                                                             tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main([*argv, "--t-end", "1", "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary.get("momentum_scale") == scale
    first = out.read_text().split("\n")[1].split(",")
    assert (float(first[3]), float(first[4])) == momenta


def test_trajectory_bad_initial_exits_2():
    r = run("trajectory", "--class", "II2", "--nu", "2", "--initial", "1,2,3")
    assert r.returncode == 2


def test_trajectory_overflowing_initial_state_exits_3():
    # the tilde metric squares X + Y = 2e200, which overflows a float
    r = run("trajectory", "--class", "II1", "--kappa", "1", "--mu", "1", "--nu", "1",
            "--initial", "1e200,1,0.1,0.1", "--t-end", "1")
    assert r.returncode == 3
    assert r.stderr.strip() == "DomainError: initial state outside class domain"


@pytest.mark.parametrize("argv", [
    ["casimir", "--class", "II3", "--kappa", "1e155", "--nu", "1"],  # through the fit
    ["verify", "--class", "II3", "--kappa", "1e155", "--nu", "1"],
    ["casimir", "--class", "I1", "--kappa", "1e160"],
])
def test_a_residual_maximum_that_is_not_finite_exits_3(argv):
    r = run(*argv, "--no-timestamp")
    assert r.returncode == 3 and r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].startswith("DomainError: ")


def test_dump_catalog():
    r = run("dump-catalog")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "superint-catalog/1"
    assert len(doc["rows"]) == 53


def test_reports_byte_identical_across_thread_counts():
    args = ["verify", *GENERIC_FLAGS, "--points", "300", "--seed", "777",
            "--no-timestamp"]
    a = run(*args, "--threads", "1")
    b = run(*args, "--threads", "4")
    c = run(*args, "--threads", "1")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_output_file_replaces_stdout(tmp_path):
    out = tmp_path / "r.json"
    args = ["verify", *GENERIC_FLAGS, "--points", "100", "--no-timestamp"]
    to_file = run(*args, "--output", str(out))
    to_stdout = run(*args)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == ""
    assert out.read_text() == to_stdout.stdout


def test_import_leaves_scipy_optimize_unloaded():
    # only the affine correction uses scipy.optimize, and it rarely runs
    # and the structure constants need no numpy.polynomial
    code = ("import sys, superint.cli; "
            "print('scipy.optimize' in sys.modules, 'numpy.polynomial' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False False"


@pytest.mark.parametrize("argv", [
    ["verify", "--class", "I1", "--nu", "2", "--points", "0"],
    ["casimir", "--class", "I1", "--nu", "2", "--points", "-3"],
    ["curvature", "--class", "I1", "--nu", "2", "--points", "0"],
    ["tables", "--table", "T3", "--points", "-1"],
    ["tables", "--table", "T3", "--draws", "0"],
    ["tables", "--table", "T3", "--draws", "-2"],
])
def test_non_positive_counts_exit_2(argv, capsys):
    # a count of zero checks nothing: it is a configuration error, not a pass
    assert main(argv) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--t-end", "0"], ["--t-end", "-1"], ["--t-end", "inf"],
    ["--rel-tol", "-0.001"], ["--abs-tol", "-1"], ["--abs-tol", "inf"],
    ["--rel-tol", "0", "--abs-tol", "0"],
])
def test_bad_trajectory_controls_exit_2(flags, tmp_path):
    assert main(TRAJECTORY + flags + ["--output", str(tmp_path / "t.csv")]) == 2
    assert not (tmp_path / "t.csv").exists()


_SPEC = ["--class", "I1", "--nu", "2"]


@pytest.mark.parametrize("argv", [
    [cmd, *_SPEC, "--seed", "-1"] for cmd in ("verify", "casimir", "curvature",
                                               "revolution", "linear")
] + [["tables", "--table", "T3", "--seed", "-5"]])
def test_negative_seeds_exit_2(argv, capsys):
    # a seed numpy would refuse is a configuration error, not a traceback
    assert main(argv) == 2
    assert "must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", *_SPEC, "--tol-bracket", "-1"],
    ["verify", *_SPEC, "--tol-bracket", "nan"],
    ["verify", *_SPEC, "--tol-nested", "-1e-3"],
    ["casimir", *_SPEC, "--tol-nested", "nan"],
    ["casimir", *_SPEC, "--tol-nested", "inf"],
    ["linear", *_SPEC, "--tol-bracket", "-0.5"],
])
def test_bad_tolerances_exit_2(argv, capsys):
    # a negative or NaN tolerance would fail every identity
    assert main(argv) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["--class", "I1", "--mu", "1", "--nu", "2", "--initial", "1,1,0.1,0.1"],
     "DomainError"),     # xi = eta, the pole of G
    (["--class", "II1", "--mu", "1", "--nu", "1", "--initial", "1,1.2,1e200,1e200"],
     "StepFailure"),     # H overflows
])
def test_trajectory_errors_come_without_numpy_warnings(argv, error, capsys, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["trajectory", *argv, "--output", str(tmp_path / "t.csv")])
    assert code == 3 and [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--t-end", "nan"], ["--rel-tol", "nan"]])
def test_nan_trajectory_controls_fail_to_parse(flags):
    # checked at parse time only: a NaN end time that got through would
    # integrate until the step budget ran out
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(TRAJECTORY + flags)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    TRAJECTORY + ["--points", "10"],
    ["curvature", "--class", "II1", "--kappa", "1", "--threads", "2"],
    ["revolution", "--class", "I1", "--nu", "1", "--tol-nested", "1e-3"],
    ["verify", "--class", "I1", "--nu", "2", "--format", "csv"],
])
def test_flags_a_command_does_not_read_exit_2(argv):
    assert main(argv) == 2


@pytest.mark.parametrize("argv, dest, value", [
    (["verify", "--class", "I1", "--kappa", "-1e-3"], "p_kappa", -1e-3),
    (["casimir", "--class", "II2", "--nu", "-2E+1"], "p_nu", -20.0),
    (["verify", "--class", "I1", "--mu", "-.5"], "p_mu", -0.5),
    (["trajectory", "--class", "I3", "--initial", "-0.5,0.3,0.1,0.2"],
     "initial", "-0.5,0.3,0.1,0.2"),
])
def test_negative_values_parse_in_any_notation(argv, dest, value):
    assert getattr(build_parser().parse_args(argv), dest) == value


def test_trajectory_evaluates_the_conserved_values_once(monkeypatch, tmp_path):
    # one evaluation along the trajectory feeds the CSV and the drift summary
    import superint.cli as cli_mod
    import superint.dynamics as dynamics_mod

    calls = []
    real = dynamics_mod.conserved_values

    def spy(spec, points):
        calls.append(points.shape)
        return real(spec, points)

    monkeypatch.setattr(dynamics_mod, "conserved_values", spy)
    monkeypatch.setattr(cli_mod, "conserved_values", spy, raising=False)
    assert main(TRAJECTORY + ["--t-end", "1", "--output", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 1


def test_negative_e_notation_reaches_the_flags_own_check(capsys):
    # read as the value of --rel-tol, which then rejects it as negative
    assert main(TRAJECTORY + ["--rel-tol", "-1e-10"]) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--class", "I1", "--bogus", "1"],
    ["verify", "--class", "I1", "-x"],
    ["verify", "--class", "I1", "--kappa", "--mu", "1"],
])
def test_unknown_or_missing_values_still_exit_2(argv):
    assert main(argv) == 2


def test_pinned_defaults_come_from_their_modules(monkeypatch):
    from superint import dynamics, geometry, poisson

    # `linear` judges {H, L} against the bound the catalog rows use
    monkeypatch.setattr(geometry, "TOL_LINEAR", 3e-9)
    parser = build_parser()
    assert parser.parse_args(["linear", "--class", "I1"]).tol_bracket == 3e-9
    assert parser.parse_args(["verify", "--class", "I1"]).tol_bracket == poisson.TOL_BRACKET
    ns = parser.parse_args(["trajectory", "--class", "I1", "--initial", "1,1,0,0"])
    assert ns.rel_tol is dynamics.REL_TOL and ns.abs_tol is dynamics.ABS_TOL


def test_spec_flags_are_the_wire_names():
    from superint.catalog import PARAM_NAMES
    from superint.cli import _spec_from_args
    from superint.systems import SystemSpec

    argv = ["verify", "--class", "II2"]
    for i, name in enumerate(PARAM_NAMES):
        argv += [f"--{name}", str(i + 1)]
    assert _spec_from_args(build_parser().parse_args(argv)) == SystemSpec("II2", *range(1, 9))
