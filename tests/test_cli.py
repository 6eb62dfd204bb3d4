"""CLI behavior: subcommands, formats, exit codes, determinism."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from csforms import checks
from csforms.cli import MAX_FD_STEP, MAX_K, build_parser, main
from csforms.liealg import MAX_MATRIX_SIZE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_coeffs_all_pass(capsys):
    code, out = run(capsys, "coeffs", "--k", "8")
    assert code == 0
    assert "checks passed" in out


def test_coeffs_json_schema(capsys):
    code, out = run(capsys, "coeffs", "--k", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["summary"]["failed"] == 0
    payload = report["config"]["payload"]
    assert payload["k"] == 3
    assert {"i": 0, "j": 0, "num": 1, "den": 1} in payload["table"]
    assert all(r["num"] == 0 for r in payload["residuals"])
    assert payload["fiber_constant"] == {"num": 3, "den": 20}


def test_json_determinism(capsys):
    # the integrals run through batched BLAS products; BLAS threads are not pinned here
    for argv in (
        ("identities", "--seed", "7"),
        ("gauss-bonnet",),
        ("fiber-norm",),
        ("obstruction",),
        ("degree",),
        ("suite-all", "--points", "3"),
    ):
        _, out1 = run(capsys, *argv, "--json")
        _, out2 = run(capsys, *argv, "--json")
        assert out1 == out2, argv


def test_csv_output(capsys):
    code, out = run(capsys, "chern-number", "--csv")
    assert code == 0
    head = out.splitlines()[0]
    assert head == "name,anchor,computed,expected,tolerance,passed"
    assert "chern_number_s2" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run(capsys, "degree", "--json", "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    recs = {r["name"]: r for r in report["records"]}
    assert recs["quaternionic_degrees_pair"]["passed"]
    assert {recs["quaternionic_degrees_pair"]["extra"]["a1"], recs["quaternionic_degrees_pair"]["extra"]["a2"]} == {2, -2}


@pytest.mark.parametrize("where", ["missing_dir/report.json", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, where):
    # a missing directory, and a path that is a directory
    path = tmp_path / where
    code = main(["coeffs", "--k", "2", "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and str(path) in err


def test_heterotic_check_cli(capsys):
    code, out = run(capsys, "heterotic-check", "--bundle", "ut_s2", "--points", "5")
    assert code == 0
    assert "heterotic" in out


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_heterotic_default_with_a_vanishing_right_side_is_usage_error(capsys, seed):
    # twisted_u2:u1's default c_2 is a 4-form over a 2-dimensional base, and its
    # split kills it on Psi: P(Omega) - P(Psi) = 0, so no seed can pass the record
    code = main(["heterotic-check", "--bundle", "twisted_u2:u1", "--seed", seed])
    err = capsys.readouterr().err
    assert code == 2
    assert "P(Omega) - P(Psi) vanishes on twisted_u2:u1" in err and "--poly" in err and "Traceback" not in err
    code, out = run(capsys, "heterotic-check", "--bundle", "twisted_u2:u1", "--poly", "c1", "--points", "5", "--seed", seed, "--json")
    (rec,) = json.loads(out)["records"]
    assert code == 0 and rec["extra"]["scale"] >= checks.NONVACUITY_FLOOR


def test_unknown_bundle_is_usage_error(capsys):
    code = main(["heterotic-check", "--bundle", "no_such_bundle", "--points", "2"])
    assert code == 2


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs"])  # missing --k
    assert exc.value.code == 2


def test_tightened_tolerance_fails(capsys):
    # finite differences cannot meet 1e-12, so the run must flag failures
    code, out = run(capsys, "heterotic-check", "--bundle", "ut_s2", "--points", "3", "--tol", "1e-12")
    assert code == 1
    assert "FAIL" in out


def test_algebra_dump(capsys):
    code, out = run(capsys, "algebra", "--dump", "so4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["payload"]["dim"] == 6


def test_obstruction_cli(capsys):
    code, out = run(capsys, "obstruction", "--bundle", "ut_s2", "--chain", "cap:pi/3", "--section", "rotational")
    assert code == 0
    assert "obstruction" in out


def test_obstruction_cli_on_the_s4_cap(capsys, monkeypatch):
    # a 4-D chain defaults to order 8 and its boundary to 16
    seen = []
    original = checks.obstruction_identity_check

    def recording(chart, P, chainspec, section, quad_order, boundary_quad_order):
        seen.append((quad_order, boundary_quad_order))
        return original(chart, P, chainspec, section, quad_order, boundary_quad_order)

    monkeypatch.setattr(checks, "obstruction_identity_check", recording)
    code, out = run(capsys, "obstruction", "--bundle", "frame_s4", "--chain", "cap:pi/3")
    assert code == 0 and "obstruction_frame_s4_cap:pi/3_height_gradient" in out
    assert seen == [(8, 16)]


def test_obstruction_refuses_its_orders_before_any_integral(capsys, monkeypatch):
    # the 8^6-node chain rule is allowed, its 16^5-node boundary rule exceeds the node cap
    def fail(*args, **kwargs):
        raise AssertionError("integrated before refusing the boundary order")

    monkeypatch.setattr(checks, "obstruction_identity_check", fail)
    assert main(["obstruction", "--bundle", "frame_s6", "--quad-order", "8"]) == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["obstruction", "gauss-bonnet"])
def test_quad_order_sets_the_boundary_order(capsys, monkeypatch, command):
    # --quad-order N reaches the boundary circles too, at 2N (24 -> 48 by default)
    original = checks.obstruction_identity_check
    signature = inspect.signature(original)
    seen = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append((bound.arguments["quad_order"], bound.arguments["boundary_quad_order"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "obstruction_identity_check", recording)
    run(capsys, command, "--quad-order", "4", "--json")
    assert seen and set(seen) == {(4, 8)}
    seen.clear()
    run(capsys, command, "--json")
    assert seen and set(seen) == {(24, 48)}


def test_fiber_norm_all_pass(capsys):
    code, out = run(capsys, "fiber-norm", "--quad-order", "6", "--json")
    assert code == 0
    recs = {r["name"]: r for r in json.loads(out)["records"]}
    literal = recs["fiber_norm_b1_literal_integrand"]
    assert literal["passed"]
    assert literal["expected"] == -6.0


@pytest.mark.parametrize(
    "argv",
    [
        ["heterotic-check", "--bundle", "ut_s2", "--points", "0"],
        ["heterotic-check", "--bundle", "ut_s2", "--fd-step", "0"],
        ["heterotic-check", "--bundle", "ut_s2", "--fd-step", "nan"],
        ["chern-number", "--quad-order", "0"],
        ["obstruction", "--bundle", "hopf_u1"],
        ["obstruction", "--chain", "no_such_chain"],
        ["obstruction", "--section", "no_such_section"],
        ["fiber-norm", "--bundle", "nonsense"],
        ["gauss-bonnet", "--bundle", "ut_s2"],
        ["gauss-bonnet", "--chain", "full_sphere"],
        ["chern-number", "--bundle", "hopf_u1"],
        ["coeffs", "--k", "2", "--tol", "nan"],
        ["coeffs", "--k", "2", "--tol", "-1"],
        ["coeffs", "--k", "2", "--tol", "inf"],
        ["coeffs", "--k", "0"],
        ["coeffs", "--k", "-2"],
        ["algebra", "--dump", "u-3"],
        ["algebra", "--dump", "so-1"],
        # flags a subcommand does not read
        ["degree", "--quad-order", "4"],
        ["identities", "--points", "3"],
        ["identities", "--quad-order", "2"],
        ["pontryagin-split", "--quad-order", "3"],
        ["chern-number", "--fd-step", "0.1"],
        ["algebra", "--dump", "so4", "--tol", "1"],
        ["coeffs", "--k", "2", "--seed", "3"],
        ["gauss-bonnet", "--points", "5"],
        ["suite-all", "--quick"],
        ["chern-number", "--json", "--csv"],
        # an order whose Gauss-Legendre rule alone would need 75 GiB
        ["chern-number", "--quad-order", "100000"],
        ["fiber-norm", "--bundle", "frame_s4", "--quad-order", "1025"],
        # orders each axis accepts whose product rules exceed the node cap
        ["fiber-norm", "--bundle", "frame_s4", "--quad-order", "1024"],
        ["gauss-bonnet", "--quad-order", "1024"],
        # a 4-form on the 3-dimensional ut_s2 total space; an undocumented name
        ["heterotic-check", "--bundle", "ut_s2", "--poly", "p1"],
        ["heterotic-check", "--bundle", "ut_s2", "--poly", "trace_power_2"],
        # a section frame_s4 does not have
        ["obstruction", "--bundle", "frame_s4", "--chain", "full_sphere", "--section", "sigma1"],
        # a 1-D order within the node cap whose rule alone would need 75 GiB
        ["fiber-norm", "--bundle", "ut_s2", "--quad-order", "100000"],
        # a flat or linear bundle whose base dimension is not an integer
        ["heterotic-check", "--bundle", "flat:so4:x"],
        ["heterotic-check", "--bundle", "linear:u3:x"],
        # a 6-D chain has no default order
        ["obstruction", "--bundle", "frame_s6"],
    ],
)
def test_rejected_input_exits_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value or the flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["algebra", "--dump", "so"], "cannot parse algebra tag 'so': expected so<n>, su<n> or u<n>"),
        (["algebra", "--dump", "u2x"], "cannot parse algebra tag 'u2x': expected so<n>, su<n> or u<n>"),
        (["heterotic-check", "--bundle", "linear:so:3"], "cannot parse algebra tag 'so': expected so<n>"),
        (["heterotic-check", "--bundle", "flat:so4:3:sox"], "cannot parse algebra tag 'sox': expected so<n>"),
        (["heterotic-check", "--bundle", "flat:so4:3:so3x"], "cannot parse algebra tag 'so3x': expected so<n>"),
        (["algebra", "--dump", "so17"], f"matrix size must be >= 0 and <= {MAX_MATRIX_SIZE}, got so(17)"),
        (["heterotic-check", "--bundle", "flat:so17:3"], f"matrix size must be >= 0 and <= {MAX_MATRIX_SIZE}, got so(17)"),
        (["identities", "--seed", "-1"], "argument --seed: must be a finite number >= 0, got -1"),
        # the exact tables grow fast in k
        (["coeffs", "--k", str(MAX_K + 1)], f"argument --k: must be a finite number > 0 and <= {MAX_K}, got {MAX_K + 1}"),
        # coeffs --k prints the fiber constant; fiber-norm has no --k
        (["fiber-norm", "--bundle", "ut_s2", "--k", "3"], "unrecognized arguments: --k 3"),
        (["heterotic-check", "--bundle", "hopf_u1", "--poly", "euler"], "euler needs so(2k) with k >= 1; hopf_u1 has u(1)"),
        (
            ["heterotic-check", "--bundle", "frame_s4", "--fd-step", repr(MAX_FD_STEP * (1 + 1e-15))],
            f"argument --fd-step: must be a finite number > 0 and <= {MAX_FD_STEP:g}, got",
        ),
    ],
    ids=[
        "dump-no-size",
        "dump-bad-size",
        "bundle-no-size",
        "split-no-size",
        "split-bad-size",
        "dump-above-max-size",
        "bundle-above-max-size",
        "negative-seed",
        "coeffs-k-above-max",
        "fiber-norm-k",
        "euler-off-so",
        "fd-step-above-bound",
    ],
)
def test_rejected_input_names_what_was_wrong(capsys, argv, message):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "argv", [["heterotic-check", "--bundle", "frame_s4"], ["suite-all", "--points", "20"]], ids=["heterotic", "suite"]
)
def test_fd_step_at_its_bound_runs_without_warnings(capsys, argv):
    # a step this large fails the checks, but every value stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--fd-step", repr(MAX_FD_STEP)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""


def test_fiber_norm_refuses_its_orders_before_the_first_integral(capsys, monkeypatch):
    # order 2048 is accepted on the circle, but its alternate lift runs at 4096
    calls = []
    real = checks.fiber_integral
    monkeypatch.setattr(checks, "fiber_integral", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    with pytest.raises(ValueError, match="4096"):
        checks.fiber_norm_checks(quad_order=2048, bundle="ut_s2")
    assert calls == []
    assert main(["fiber-norm", "--bundle", "ut_s2", "--quad-order", "2048"]) == 2
    assert calls == []
    assert "4096" in capsys.readouterr().err


def test_fiber_norm_bundle_selects_records(capsys):
    code, out = run(capsys, "fiber-norm", "--bundle", "ut_s2", "--quad-order", "6", "--json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["records"]]
    assert names == ["fiber_norm_circle", "fiber_lift_independence_circle", "fiber_constant_identity"]


@pytest.mark.parametrize("tag", ["so1", "u0"])
def test_zero_dimensional_algebra_dump(capsys, tag):
    code, out = run(capsys, "algebra", "--dump", tag, "--json")
    assert code == 0
    assert json.loads(out)["config"]["payload"] == {"dim": 0, "basis": []}


OUTPUT_FLAGS = {"-h", "--help", "--json", "--csv", "--out"}
SWEEP_FLAGS = {"--seed", "--points", "--fd-step", "--tol"}
QUADRATURE_FLAGS = {"--quad-order", "--tol"}
HONORED_FLAGS = {
    "coeffs": {"--k", "--tol"},
    "algebra": {"--dump"},
    "identities": {"--seed", "--fd-step", "--tol"},
    "heterotic-check": {"--bundle", "--poly"} | SWEEP_FLAGS,
    "pontryagin-split": SWEEP_FLAGS,
    "suite-all": SWEEP_FLAGS,
    "gauss-bonnet": QUADRATURE_FLAGS,
    "chern-number": QUADRATURE_FLAGS,
    "fiber-norm": {"--bundle"} | QUADRATURE_FLAGS,
    "obstruction": {"--bundle", "--chain", "--section"} | QUADRATURE_FLAGS,
    "degree": {"--tol"},
}


def test_subcommand_flags():
    # a new flag must be read by its subcommand and added here
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(HONORED_FLAGS)
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        assert options == OUTPUT_FLAGS | HONORED_FLAGS[name], name


@pytest.mark.parametrize(
    "argv,config",
    [
        (["degree"], {"command": "degree"}),
        (
            ["heterotic-check", "--bundle", "ut_s2", "--points", "2"],
            {"command": "heterotic-check", "bundle": "ut_s2", "poly": None, "seed": 0, "fd_step": 1e-4, "points": 2},
        ),
        (
            ["obstruction"],
            {"command": "obstruction", "bundle": "ut_s2", "chain": "cap:pi/3", "section": "height_gradient"},
        ),
    ],
    ids=["degree", "heterotic-check", "obstruction"],
)
def test_config_echoes_only_taken_flags(capsys, argv, config):
    code, out = run(capsys, *argv, "--json", "--tol", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {**config, "tol_override": 0.5}
    assert all(r["tolerance"] == 0.5 for r in report["records"])


@pytest.mark.parametrize("n", ["0", "-1"])
def test_flat_bundle_needs_a_positive_base_dimension(capsys, n):
    code = main(["heterotic-check", "--bundle", f"flat:so4:{n}", "--poly", "euler"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"bundle flat:so4:{n} needs a base dimension n >= 1" in err


def test_vacuous_heterotic_check_exits_2(capsys):
    # on a flat bundle P(Omega) = P(Psi) = 0: the identity compares zeros, a usage error
    code = main(["heterotic-check", "--bundle", "flat:so4:3", "--poly", "euler", "--points", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "the right-hand side P(Omega) - P(Psi) vanishes on flat:so4:3 for euler" in captured.err


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "bundle, poly, code",
    [("twisted_u2:u1", "c2", 2), ("linear:so4:2:so3", "euler", 2), ("linear:so4:2:so3", "p1", 0)],
)
def test_explicit_poly_with_a_vanishing_right_side_exits_2(capsys, seed, bundle, poly, code):
    # c2 and euler are 4-forms whose P(Omega) - P(Psi) vanishes over these 2-D bases; p1 on the
    # same chart is a 4-form too, and its right side does not vanish
    got = main(["heterotic-check", "--bundle", bundle, "--poly", poly, "--points", "5", "--seed", str(seed)])
    err = capsys.readouterr().err
    assert got == code
    assert (f"P(Omega) - P(Psi) vanishes on {bundle} for {poly}" in err) == (code == 2)


def test_poly_help_names_every_polynomial():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    (poly,) = [a for a in sub.choices["heterotic-check"]._actions if "--poly" in a.option_strings]
    assert poly.help.startswith(" | ".join(checks.POLY_NAMES))


def test_numerical_failure_exits_1(capsys, monkeypatch):
    def fail(**kwargs):
        raise ArithmeticError("chern_1 value unexpectedly complex: (1+1j)")

    monkeypatch.setattr(checks, "chern_number_checks", fail)
    code = main(["chern-number"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("numerical failure: ") and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "csforms", "coeffs", "--k", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "checks passed" in out.stdout


def test_the_library_runs_without_scipy():
    # scipy is a test and benchmark dependency only; a stray import in src/
    # would pass every other test, which run with it installed
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; sys.modules['scipy'] = None; from csforms.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", code, "suite-all", "--points", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
