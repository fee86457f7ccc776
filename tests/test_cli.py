import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from klstab import cli
from klstab.analyzer import sweep
from klstab.boundary import custom_condition, silw_condition
from klstab.cli import parse_grid, run_cli, UsageError
from klstab.scheme import make_beam_warming
from klstab.simulator import IBVPRun, sigma_scan


def test_parse_grid_inclusive_endpoint():
    grid = parse_grid("0.05:2.0:0.01")
    assert len(grid) == 196
    assert abs(grid[0] - 0.05) < 1e-15
    assert abs(grid[-1] - 2.0) < 1e-12
    np.testing.assert_allclose(np.diff(grid), 0.01)


def test_parse_grid_negative_values():
    grid = parse_grid("-0.5:0.48:0.02")
    assert len(grid) == 50
    assert abs(grid[0] + 0.5) < 1e-15


def test_parse_grid_errors():
    for bad in ("1:2", "a:b:c", "2:1:0.1", "0:1:-0.5", "0:1e300:1e-300", "0:1e12:1"):
        with pytest.raises(UsageError):
            parse_grid(bad)


@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda-grid", "0.5:0.5000000000003:1e-13"],
    ["sweep", "--lambda-grid", "0.5:0.5:1", "--sigma-grid=1e-13:4e-13:1e-13"],
    ["simulate", "--lambda", "0.6", "--sigma-grid=1e-13:4e-13:1e-13", "--grid-points", "20"],
])
def test_a_grid_whose_rounded_points_repeat_is_refused(capsys, argv):
    # a step below the 12 decimals that grid points keep would repeat points
    assert run_cli(argv + ["--silw", "2", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid points repeat") and captured.err.count("\n") == 1


def test_check_stable_exit_zero(capsys):
    code = run_cli(["check", "--preset", "beam-warming", "--lambda", "0.7", "--silw", "2", "3"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "StronglyStable"


def test_check_unstable_exit_two(capsys):
    code = run_cli(["check", "--lambda", "1.4", "--silw", "2", "3"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "UnstableExteriorEigenvalue"


def test_check_cauchy_violation_exit_three(capsys):
    code = run_cli(["check", "--lambda", "2.1", "--silw", "2", "3"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "AssumptionViolated"


def test_check_boundary_zero_exit_two(capsys):
    code = run_cli(["check", "--lambda", "1.0", "--silw", "2", "3"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "UnstableBoundaryZero"


def test_check_degenerate_boundary_zero_is_unresolved(capsys):
    # at CFL 1e-12 the characteristic polynomial degenerates at the boundary
    # zero z = 1, which leaves that zero unclassified but keeps the verdict
    code = run_cli(["check", "--lambda", "1e-12", "--silw", "2", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["status"] == "UnstableBoundaryZero"
    assert [zero["classification"] for zero in payload["boundary_zeros"]] == ["unresolved"]


def test_check_with_sigma(capsys):
    code = run_cli(["check", "--lambda", "1.3", "--silw", "2", "3", "--sigma", "0.3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "StronglyStable"


def test_usage_errors_exit_one(capsys):
    assert run_cli(["check", "--lambda", "0.7"]) == 1
    assert run_cli(["check", "--silw", "2", "3"]) == 1
    assert run_cli(["sweep", "--silw", "2", "3"]) == 1
    assert run_cli(["sweep", "--silw", "2", "3", "--lambda-grid", "nope"]) == 1
    assert run_cli(["check", "--preset", "upwind9", "--lambda", "1.0", "--silw", "2", "3"]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["check", "--lambda", "0.7", "--silw", "2", "3", "--bogus"], "unrecognized arguments: --bogus"),
    (["check", "--lambda", "abc", "--silw", "2", "3"], "argument --lambda: invalid float value: 'abc'"),
    (["check", "--lambda", "0.7", "--silw"], "argument --silw: expected 2 arguments"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["check", "--lambda", "0.7", "--silw", "2", "3", "--bogus", "-1e-3"], "unrecognized arguments: --bogus -1e-3"),
])
def test_argparse_errors_print_one_line(capsys, argv, message):
    assert run_cli(argv) == 1
    # the choices of an unknown command are quoted on some Python versions only
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith(f"error: {message}")


def test_help_exits_zero(capsys):
    assert run_cli(["check", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: klstab check") and captured.err == ""


def test_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli([
        "curve", "--lambda", "0.7", "--silw", "2", "3", "--samples", "128", "--out", str(out)
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 130


def test_sweep_csv_values(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "sweep", "--preset", "beam-warming", "--silw", "2", "3",
        "--lambda-grid", "0.5:1.7:0.4", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,sigma,zero_count,status"
    rows = dict()
    for line in lines[1:]:
        lam, sigma, count, status = line.split(",")
        rows[float(lam)] = (int(count), status)
    assert rows[0.5] == (0, "StronglyStable")
    assert rows[0.9] == (0, "StronglyStable")
    assert rows[1.3][0] >= 1
    assert rows[1.7] == (0, "StronglyStable")


def test_sweep_parallel_byte_identical(tmp_path):
    args = [
        "sweep", "--preset", "beam-warming", "--silw", "2", "3",
        "--lambda-grid", "0.2:1.8:0.1", "--sigma-grid=-0.2:0.2:0.2",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1), "--jobs", "1"]) == 0
    assert run_cli(args + ["--out", str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_csv(tmp_path):
    out = tmp_path / "field.csv"
    code = run_cli([
        "simulate", "--lambda", "0.6", "--silw", "2", "3",
        "--sigma-grid=-0.5:-0.46:0.02", "--grid-points", "200",
        "--final-time", "0.1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sigma,x,value_clipped,max_amplitude_unclipped"
    assert len(lines) == 1 + 3 * 202


def test_simulate_matches_the_readme_csv(capsys):
    # the README example, whose output earlier releases printed byte for byte
    assert run_cli(["simulate", "--lambda", "0.6", "--silw", "2", "3", "--sigma-grid=-0.5:0.48:0.02"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "44515b629bbebaf05ac55111bf140346ab3efe6933ebc719d2922f87d351f7dd"
    )


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-points", "0", "at least one interior cell"),
    ("--velocity", "0", "velocity must be positive"),
    ("--velocity", "-1", "velocity must be positive"),
    ("--final-time", "-1", "final time must be positive"),
    # 1.7e303 steps: the data table would exceed numpy's largest dimension
    ("--final-time", "1e300", "--final-time or --velocity: the final time T=1e+300"),
    # dt = 0 at an infinite velocity
    ("--velocity", "inf", "--grid-points, --final-time or --velocity: the advection velocity must be finite"),
])
def test_simulate_rejects_bad_run_geometry(capsys, flag, value, message):
    argv = ["simulate", "--lambda", "0.6", "--silw", "2", "3", "--sigma-grid=0:0:1", flag, value]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_simulate_warns_on_derivative_fallback(capsys):
    # S5ILW6 needs a fourth derivative of the pulse, which has analytic ones up to the third
    s = make_beam_warming(0.6)
    scan = sigma_scan(
        s,
        bc_family=lambda sg: silw_condition(2, 5, 6, sg),
        sigma_grid=[0.0, 0.1],
        run_factory=lambda sg: IBVPRun.from_cfl(s, J=100, sigma=sg),
    )
    assert scan.fd_derivative_fallbacks == (True, True)
    argv = ["simulate", "--lambda", "0.6", "--sigma-grid=0:0.1:0.1", "--grid-points", "100"]
    assert run_cli(argv + ["--silw", "5", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == scan.to_csv()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ") and "2 of 2 offsets" in lines[0], lines
    assert run_cli(argv + ["--silw", "2", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_scheme_flags_and_config_build_one_scheme(tmp_path, capsys):
    # a preset by default, by flag and by config, and Beam-Warming's coefficients by flag and by config
    config = tmp_path / "config.json"
    for lam in (0.5, 1.4):
        coefficients = [float(a) for a in make_beam_warming(lam).a]
        argvs = [
            ["check", "--lambda", repr(lam)],
            ["check", "--preset", "beam-warming", "--lambda", repr(lam)],
            ["check", "--coefficients", *map(repr, coefficients), "--lambda", repr(lam)],
        ]
        for scheme in ({"preset": "beam-warming", "lambda": lam}, {"coefficients": coefficients, "lambda": lam}):
            path = tmp_path / f"config-{len(argvs)}.json"
            path.write_text(json.dumps(scheme))
            argvs.append(["check", "--config", str(path)])
        outputs = []
        for argv in argvs:
            code = run_cli(argv + ["--silw", "2", "3"])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0][1].startswith("{") and outputs[0][2] == ""
        assert all(output == outputs[0] for output in outputs), lam
    config.write_text(json.dumps({"preset": "upwind9", "lambda": 0.7}))
    # an unknown preset is refused before a missing CFL number is
    for argv in (["--preset", "upwind9", "--lambda", "0.7"], ["--config", str(config)], ["--preset", "upwind9"]):
        assert run_cli(["check", "--silw", "2", "3"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown scheme preset 'upwind9'; available: ['beam-warming']\n"


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "preset": "beam-warming", "lambda": 1.4, "silw": [2, 3], "sigma": 0.0, "unit-circle-tol": 1e-6,
    }))
    code = run_cli(["check", "--config", str(config)])
    assert code == 2
    capsys.readouterr()
    # flag overrides the file value
    code = run_cli(["check", "--config", str(config), "--lambda", "0.7"])
    assert code == 0
    capsys.readouterr()


def test_custom_boundary_file(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"b": [[0.0, 0.0], [0.0, 0.0]]}))
    code = run_cli(["check", "--lambda", "0.8", "--silw", "2", "3", "--custom-b", str(bfile)])
    capsys.readouterr()
    assert code == 1  # both boundary flags given -> silw wins is ambiguous; require one
    code = run_cli(["check", "--lambda", "0.8", "--custom-b", str(bfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["status"] == "StronglyStable"


@pytest.mark.parametrize("command", ["check", "curve"])
def test_sigma_is_refused_beside_a_custom_boundary(tmp_path, capsys, command):
    # a custom b has no offset, so an offset beside it would be ignored
    bfile, config = tmp_path / "b.json", tmp_path / "config.json"
    bfile.write_text(json.dumps({"b": [[0.3, -0.2, 0.1], [0.5, 0.1, -0.05]]}))
    argv = [command, "--lambda", "0.7"]
    assert run_cli(argv + ["--custom-b", str(bfile)]) == 0
    capsys.readouterr()
    for extra, keys in ((["--custom-b", str(bfile), "--sigma", "0.3"], {}),
                        (["--custom-b", str(bfile), "--sigma", "7"], {}),
                        (["--custom-b", str(bfile)], {"sigma": 0.3}),
                        (["--sigma", "0.3"], {"custom-b": str(bfile)}),
                        ([], {"custom-b": str(bfile), "sigma": 0.0})):
        config.write_text(json.dumps(keys))
        assert run_cli(argv + extra + ["--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sigma sets the offset of a --silw boundary; a --custom-b boundary has none\n"


@pytest.mark.parametrize("content, message", [
    ({"b": [[0.0, 0.0], [0.0, 0.0]], "sigma": 0.3, "bogus": 1},
     'bad boundary condition: a --custom-b file holds exactly the key "b", got ["b", "bogus", "sigma"]'),
    ({}, 'bad boundary condition: a --custom-b file holds exactly the key "b", got []'),
    ([[0.0, 0.0], [0.0, 0.0]], "a --custom-b file must be a JSON object, got [[0.0, 0.0], [0.0, 0.0]]"),
    ({"b": [0.1, 0.2]}, "bad boundary condition: custom boundary matrix must be two-dimensional"),
    # json.load reads NaN and Infinity, which json.dumps writes
    ({"b": [[float("nan"), 0.1, 0.2], [0.1, 0.2, 0.3]]},
     "bad boundary condition: b must be finite, got [[nan, 0.1, 0.2], [0.1, 0.2, 0.3]]"),
    ({"b": [[0.1, 0.2, 0.3], [0.1, float("inf"), 0.3]]},
     "bad boundary condition: b must be finite, got [[0.1, 0.2, 0.3], [0.1, inf, 0.3]]"),
])
@pytest.mark.filterwarnings("error")  # no numpy warning precedes the error line
def test_custom_b_file_holds_exactly_b(tmp_path, capsys, content, message):
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps(content))
    for argv in (["check", "--lambda", "0.8"], ["curve", "--lambda", "0.8"], ["sweep", "--lambda-grid", "0.8:0.8:1"],
                 ["simulate", "--lambda", "0.6", "--sigma-grid=0:0:1", "--grid-points", "20"]):
        assert run_cli(argv + ["--custom-b", str(bfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "klstab", "check", "--lambda", "0.7", "--silw", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "StronglyStable"


def test_origin_tol_flag_changes_verdict(capsys):
    # near the Fig. 5 edge the curve passes about 0.05 from the origin
    args = ["check", "--lambda", "1.52", "--silw", "2", "3"]
    assert run_cli(args) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "StronglyStable"
    assert run_cli(args + ["--origin-tol", "0.9"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "UnstableBoundaryZero"


def test_library_errors_print_one_line(capsys):
    cases = [
        (["check", "--lambda", "0.7", "--silw", "2", "3", "--samples", "10"], "n0 must be at least 64"),
        (["sweep", "--lambda-grid", "0.5:0.7:0.1", "--silw", "2", "3", "--samples", "10"], "n0 must be at least 64"),
        # refused by the call, also where no pair passes validate (CFL 2.5 is not Cauchy stable)
        (["check", "--lambda", "2.5", "--silw", "2", "3", "--samples", "10"], "n0 must be at least 64"),
        (["sweep", "--silw", "2", "3", "--lambda-grid", "2.5:2.6:0.1", "--samples", "10"], "n0 must be at least 64"),
        (["simulate", "--lambda", "0.7", "--silw", "2", "5", "--grid-points", "3"],
         "boundary uses 5 interior points but the run has only 3"),
        (["check", "--lambda", "0.7", "--silw", "4", "3"], "need 0 <= k_d <= d"),
        (["check", "--lambda", "0.7", "--silw", "2", "3", "--origin-tol", "-1"], "origin_tol must be positive"),
        (["check", "--lambda", "0.7", "--silw", "2", "3", "--origin-tol", "inf"],
         "tolerance origin_tol must be positive and finite, got inf"),
        (["check", "--lambda", "1e-13", "--silw", "2", "3"], "at CFL 1e-13 the trimmed stencil"),
    ]
    for argv, message in cases:
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_an_allocation_that_fails_prints_one_line(capsys, monkeypatch):
    # the backstop behind the size bounds: a MemoryError, as numpy raises for an array it cannot allocate
    message = "Unable to allocate 1.46 TiB for an array with shape (100000000001,) and data type complex128"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "analyze", refuse)
    assert run_cli(CHECK) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_reduction_beyond_the_float_range_prints_one_line(tmp_path, capsys):
    # a_{-2} is about -5e-10 at CFL 1e-9, so a_{-r}^(-m) with m = 40 overflows
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": [[0.1] * 40] * 2}))
    for command in ("check", "curve"):
        assert run_cli([command, "--lambda", "1e-9", "--custom-b", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "beyond the float range" in lines[0], lines
    out = tmp_path / "map.csv"
    assert run_cli(["sweep", "--lambda-grid", "1e-9:1e-9:1", "--custom-b", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["1e-09,0.0,-1,Inconclusive"]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings are not printed
@pytest.mark.parametrize("lam", ["0.7", "1.45"])
def test_a_boundary_whose_reduction_leaves_the_float_range_prints_one_line(tmp_path, capsys, lam):
    # finite rows whose det C (at CFL 0.7) or update block itself (at CFL 1.45) overflows: check and curve refuse
    # the pair, and its sweep cell is Inconclusive
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": [[1.7e308, 0.1, 0.2], [1.7e308, 0.2, 0.3]]}))
    for command in ("check", "curve"):
        assert run_cli([command, "--lambda", lam, "--custom-b", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the determinant curve is not finite: det C or its prefactor leaves the "
                                "float range\n")
    assert run_cli(["sweep", "--lambda-grid", f"{lam}:{lam}:1", "--custom-b", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [f"{lam},0.0,-1,Inconclusive"] and captured.err == ""


def test_a_sweep_cell_whose_boundary_raises_is_inconclusive(capsys):
    # sigma = 0.5 lies outside [-1/2, 1/2): that cell reads -1,Inconclusive, the others are decided, and the sweep
    # exits 0 with an empty stderr; the first cell is still checked up front
    argv = ["sweep", "--silw", "2", "3", "--lambda-grid", "0.7:0.7:1"]
    assert run_cli(argv + ["--sigma-grid", "0:0.25:0.25"]) == 0
    decided = capsys.readouterr().out.splitlines()
    assert run_cli(argv + ["--sigma-grid", "0:0.5:0.25"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == decided + ["0.7,0.5,-1,Inconclusive"] and captured.err == ""
    assert run_cli(argv + ["--sigma-grid", "0.5:0.5:1"]) == 1
    assert capsys.readouterr().err == "error: bad boundary condition: sigma must lie in [-1/2, 1/2), got 0.5\n"


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings are not printed
def test_a_curve_beyond_the_float_range_is_inconclusive_without_warnings(tmp_path, capsys):
    # an extrapolation weight of 8e307 leaves det C finite, with coefficients 8e307 and -1.6e308, and its curve
    # beyond the float range around z = -1: the verdict is Inconclusive, exit 4, and stderr stays empty
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"b": [[8e307, 0.0]]}))
    assert run_cli(["check", "--coefficients", "0.5", "0.5", "--lambda", "0.5", "--custom-b", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = json.loads(captured.out)
    assert verdict["status"] == "Inconclusive"
    assert verdict["diagnostics"]["notes"] == ["winding failed: curve is not finite at t=2.2457478734645786"]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings are not printed
def test_a_curve_that_is_not_finite_prints_one_line(tmp_path, capsys):
    # a_{-1} = -1e200 leaves det C NaN: curve refuses the pair, and check finds it not Cauchy stable
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"b": [[0.1, 0.2, 0.3]]}))
    argv = ["--coefficients", "-1e200", "0.5", "--lambda", "1", "--custom-b", str(path), "--samples", "64"]
    assert run_cli(["curve"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the determinant curve is not finite: det C or its prefactor leaves the float range\n"
    assert run_cli(["check"] + argv) == 3


@pytest.mark.parametrize("argv, message", [
    (["check", "--lambda", "nan", "--silw", "2", "3"], "CFL number must be finite, got nan"),
    (["check", "--lambda", "inf", "--silw", "2", "3"], "CFL number must be finite, got inf"),
    (["check", "--lambda=-inf", "--silw", "2", "3"], "CFL number must be finite, got -inf"),
    (["check", "--coefficients", "0.5", "0.5", "--lambda", "nan", "--silw", "1", "1"],
     "CFL number must be finite, got nan"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0.5:0.5:1", "--sigma-grid=nan:nan:1"],
     "grid bounds and step must be finite: 'nan:nan:1'"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0.5:inf:0.1"],
     "grid bounds and step must be finite: '0.5:inf:0.1'"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0.5:0.6:nan"],
     "grid bounds and step must be finite: '0.5:0.6:nan'"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0:1e300:1e-300"],
     "grid has too many points: '0:1e300:1e-300'"),
    (["check", "--coefficients", "nan", "0.5", "--lambda", "0.5", "--silw", "1", "1"],
     "scheme coefficients must be finite, got [nan, 0.5]"),
    (["check", "--coefficients", "0.5", "inf", "--lambda", "0.5", "--silw", "1", "1"],
     "scheme coefficients must be finite, got [0.5, inf]"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0:1e12:1"],
     "grid has too many points: '0:1e12:1'"),
    # sizes beyond the grid bound are refused before anything is allocated
    (["check", "--lambda", "0.7", "--silw", "2", "3", "--samples", "100000000000"],
     "samples must be at most 10000000, got 100000000000"),
    (["curve", "--lambda", "0.7", "--silw", "2", "3", "--samples", "100000000000"],
     "samples must be at most 10000000, got 100000000000"),
    (["sweep", "--silw", "2", "3", "--lambda-grid", "0.7:0.7:1", "--samples", "100000000000"],
     "samples must be at most 10000000, got 100000000000"),
    (["simulate", "--lambda", "0.7", "--silw", "2", "3", "--grid-points", "100000000000", "--final-time", "1e-9"],
     "grid-points must be at most 10000000, got 100000000000"),
    (["sweep", "--silw", "2", "3", "--lambda-grid=-0.5:0.5:0.5"], "all CFL grid values must be positive"),
    # a_{-1} = -1e200: det C overflows, and the curve is NaN
    (["curve", "--coefficients", "-1e200", "0.5", "--lambda", "1", "--silw", "1", "3", "--samples", "64"],
     "the determinant curve is not finite"),
])
def test_nonfinite_input_prints_one_line(capsys, argv, message):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_check_next_to_unit_cfl_prints_a_verdict(capsys):
    # the block's spectral radius is 1 + 7e-8 here, inside the unit-circle band
    assert run_cli(["check", "--lambda", "1.0000001", "--silw", "2", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["status"] == "Inconclusive"
    assert len(payload["diagnostics"]["det_c_coefficients"]) == 4


@pytest.mark.parametrize("argv, exit_code", [
    (["check", "--lambda", "1.0000001", "--silw", "2", "3",
      "--coefficients", "5.0000005029193364e-08", "0.99999999999999", "-4.9999995029193354e-08"], 4),
    (["check", "--lambda", "0.7", "--silw", "2", "3", "--coefficients", "-1e-3", "1", "0.001"], 3),
])
def test_negative_values_in_exponent_form_are_values(tmp_path, capsys, argv, exit_code):
    # argparse's own negative-number pattern has no exponent; by flags and by config key, one verdict
    at = argv.index("--coefficients")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"coefficients": [float(value) for value in argv[at + 1:]]}))
    assert run_cli(argv) == exit_code
    by_flags = capsys.readouterr()
    assert by_flags.err == "" and json.loads(by_flags.out)["diagnostics"]["assumptions"]["a0"] == float(argv[-1])
    assert run_cli(argv[:at] + ["--config", str(config)]) == exit_code
    assert capsys.readouterr() == by_flags


def test_sweep_records_failing_cells_as_inconclusive(tmp_path):
    # At CFL 1e-12 the stencil trims to width 1 with a_0 = 1 - 1.5e-12, and
    # classifying its boundary zero at z = 1 degenerates; the zero is recorded
    # as unresolved, and the cell gets the verdict of its 2e-12 neighbour.
    # (A cell that raises is covered by tests/test_analyzer.py.) Next to CFL 1
    # every cell gets a verdict: at CFL 1 +- 1e-7 the block's spectral radius
    # is 1 +- 7e-8, inside the unit-circle band, so the cells above 1 are
    # Inconclusive by the count comparison, not by a raise.
    grids = {
        "0.000000000001:0.000000000002:0.000000000001": [
            (1e-12, -1, "UnstableBoundaryZero"),
            (2e-12, -1, "UnstableBoundaryZero"),
        ],
        "0.9999998:1.0000002:0.0000001": [
            (0.9999998, 0, "StronglyStable"),
            (0.9999999, 0, "StronglyStable"),
            (1.0, -1, "UnstableBoundaryZero"),
            (1.0000001, -1, "Inconclusive"),
            (1.0000002, -1, "Inconclusive"),
        ],
    }
    for grid, expected in grids.items():
        args = [
            "sweep", "--preset", "beam-warming", "--silw", "2", "3",
            "--lambda-grid", grid, "--sigma-grid=0:0:1",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1), "--jobs", "1"]) == 0
        assert run_cli(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [line.split(",") for line in out1.read_text().strip().split("\n")[1:]]
        assert [(float(lam), int(count), status) for lam, _, count, status in rows] == expected


def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys):
    out = tmp_path / "map.csv"
    for jobs in ("0", "-2"):
        argv = ["sweep", "--silw", "2", "3", "--lambda-grid", "0.5:0.6:0.1", "--jobs", jobs, "--out", str(out)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "jobs" in lines[0], lines
    assert not out.exists()


def test_sigma_flag_overrides_config_silw_sigma(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"silw": [2, 3]}))
    code = run_cli(["check", "--config", str(config), "--lambda", "1.3", "--sigma", "0.3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "StronglyStable"
    config.write_text(json.dumps({"silw": [2, 3], "sigma": 0.3}))
    assert run_cli(["check", "--config", str(config), "--lambda", "1.3"]) == 0
    assert run_cli(["check", "--config", str(config), "--lambda", "1.3", "--sigma", "0"]) == 2
    capsys.readouterr()


def test_check_and_sweep_agree_on_wider_custom_boundary(tmp_path, capsys):
    # at CFL 1 Beam-Warming trims to width 1, so the first of the two rows is dropped
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"b": [[0.3, -0.2, 0.1], [0.5, 0.1, -0.05]]}))
    code = run_cli(["check", "--lambda", "1", "--custom-b", str(bfile)])
    verdict = json.loads(capsys.readouterr().out)
    out = tmp_path / "map.csv"
    assert run_cli(["sweep", "--lambda-grid", "1:1:1", "--custom-b", str(bfile), "--out", str(out)]) == 0
    _, _, count, status = out.read_text().strip().split("\n")[1].split(",")
    assert code == 0 and verdict["status"] == status == "StronglyStable"
    assert verdict["exterior_zero_count"] == int(count) == 0


def test_sweep_rejects_silw_with_custom_b(tmp_path, capsys):
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"b": [[0.0, 0.0], [0.0, 0.0]]}))
    argv = ["sweep", "--silw", "2", "3", "--custom-b", str(bfile), "--lambda-grid", "0.5:1.5:0.5"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not both" in lines[0], lines


def test_preset_is_refused_beside_coefficients(tmp_path, capsys):
    # a preset, even one that does not exist, is not dropped in silence beside --coefficients: one error line on
    # every command, by flags and by config
    coefficients = [repr(float(a)) for a in make_beam_warming(0.7).a]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "nosuch"}))
    for argv in COMMANDS.values():
        for preset in (["--preset", "beam-warming"], ["--preset", "nosuch"], ["--config", str(config)]):
            assert run_cli(argv + ["--coefficients", *coefficients] + preset) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: give either --preset or --coefficients, not both\n"


def test_sweep_takes_config_custom_boundary(tmp_path, capsys):
    b = [[0.0, 0.0], [0.0, 0.0]]
    bfile, config = tmp_path / "b.json", tmp_path / "config.json"
    bfile.write_text(json.dumps({"b": b}))
    config.write_text(json.dumps({"custom-b": str(bfile)}))
    argv = ["sweep", "--lambda-grid", "0.5:1.5:0.25"]
    assert run_cli(argv + ["--config", str(config)]) == 0
    from_config = capsys.readouterr().out
    assert run_cli(argv + ["--custom-b", str(bfile)]) == 0
    assert capsys.readouterr().out == from_config
    assert len(from_config.strip().split("\n")) == 6


def test_sweep_reports_a_bad_config_boundary_once(tmp_path, capsys):
    # one row cannot fill Beam-Warming's two ghost points below CFL 1
    bfile, config = tmp_path / "b.json", tmp_path / "config.json"
    bfile.write_text(json.dumps({"b": [[0.0, 0.0]]}))
    config.write_text(json.dumps({"custom-b": str(bfile)}))
    argv = ["sweep", "--config", str(config), "--lambda-grid", "0.5:1.5:0.25", "--jobs", "2"]
    assert run_cli(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: bad boundary condition: boundary condition has 1 ghost rows, scheme needs 2"], lines


def test_simulate_takes_custom_and_config_boundaries(tmp_path, capsys):
    argv = ["simulate", "--lambda", "0.6", "--sigma-grid=0:0.1:0.1", "--grid-points", "50"]
    b = [[0.0, 1.0], [0.0, 1.0]]
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"b": b}))
    assert run_cli(argv + ["--custom-b", str(bfile)]) == 0
    s = make_beam_warming(0.6)
    scan = sigma_scan(
        s,
        bc_family=lambda sg: custom_condition(b),
        sigma_grid=[0.0, 0.1],
        run_factory=lambda sg: IBVPRun.from_cfl(s, J=50, sigma=sg),
    )
    assert capsys.readouterr().out == scan.to_csv()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"silw": [2, 3]}))
    assert run_cli(argv + ["--config", str(config)]) == 0
    from_config = capsys.readouterr().out
    assert run_cli(argv + ["--silw", "2", "3"]) == 0
    assert capsys.readouterr().out == from_config


def test_simulate_runs_a_custom_boundary_once(tmp_path, capsys, monkeypatch):
    from klstab import simulator

    b = [[0.0, 1.0], [0.0, 1.0]]
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps({"b": b}))
    s = make_beam_warming(0.6)
    # the per-offset output: one scan per offset, rows concatenated under one header
    scans = [
        sigma_scan(
            s,
            bc_family=lambda _: custom_condition(b),
            sigma_grid=[sg],
            run_factory=lambda sg: IBVPRun.from_cfl(s, J=50, sigma=sg),
        ).to_csv().split("\n", 1)
        for sg in (0.0, 0.1, 0.2)
    ]
    per_offset = scans[0][0] + "\n" + "".join(body for _, body in scans)
    marched = []
    march = simulator.march
    monkeypatch.setattr(simulator, "march", lambda s, pairs, *a: marched.append(len(pairs)) or march(s, pairs, *a))
    argv = ["simulate", "--lambda", "0.6", "--sigma-grid=0:0.2:0.1", "--grid-points", "50",
            "--custom-b", str(bfile)]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == per_offset
    assert captured.err == ""
    assert marched == [1]


CHECK = ["check", "--lambda", "0.7", "--silw", "2", "3"]
SWEEP = ["sweep", "--silw", "2", "3", "--lambda-grid", "0.7:0.7:1"]
COMMANDS = {
    "check": CHECK,
    "sweep": SWEEP,
    "curve": ["curve", "--lambda", "0.7", "--silw", "2", "3"],
    "simulate": ["simulate", "--lambda", "0.6", "--silw", "2", "3", "--sigma-grid=0:0:1"],
}


@pytest.mark.parametrize("flag, value, rejected_by", [
    ("--samples", "1024", ("simulate",)),
    ("--cluster-radius", "1e-7", ("simulate", "curve")),
    ("--unit-circle-tol", "1e-6", ("simulate", "curve")),
    ("--origin-tol", "1e-8", ("simulate", "curve")),
    # no sweep classifies a boundary zero
    ("--kernel-tol", "1e-7", ("simulate", "curve", "sweep")),
    ("--cauchy-tol", "1e-10", ("simulate", "curve")),
    # not abbreviated to --lambda-grid either
    ("--lambda", "0.7", ("sweep",)),
])
def test_flags_only_on_commands_that_use_them(flag, value, rejected_by):
    for command in rejected_by:
        assert run_cli(COMMANDS[command] + [flag, value]) == 1, command
    for command in {"check", "sweep"} - set(rejected_by):
        assert run_cli(COMMANDS[command] + [flag, value]) == 0, command


def test_gamma_tol_flag_is_gone(capsys):
    for argv in COMMANDS.values():
        assert run_cli(argv + ["--gamma-tol", "1e-6"]) == 1
    assert "--gamma-tol" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    # a key is a flag's long name: no underscore twin, no tolerance without a flag
    ({"origin_tol": 1e-8}, 'unknown config keys "origin_tol"'),
    ({"trim-rel": 1e-12}, 'unknown config keys "trim-rel"'),
    ({"gamma-tol": 1e-6}, 'unknown config keys "gamma-tol"'),
    ([1, 2], "a config file must be a JSON object, got [1, 2]"),
    # the nested objects of earlier releases
    ({"tolerances": {"origin_tol": 1e-8}}, 'unknown config keys "tolerances"'),
    ({"scheme": {"lambda": 1.4}}, 'unknown config keys "scheme"'),
    ({"cluster-radius": 1e400}, "tolerance cluster_radius must be positive and finite, got inf"),
    ({"bogus": 1}, 'unknown config keys "bogus"'),
    ({"lam": 0.7, "Jobs": 2}, 'unknown config keys "Jobs", "lam"'),
    ({"lamda": 1.4, "sigmaa": 0.3}, 'unknown config keys "lamda", "sigmaa"'),
    ({"scheme": {"preset": "beam-warming"}, "boundary": {"silw": {"kd": 2, "d": 3}}},
     'unknown config keys "boundary", "scheme"'),
    ({"lambda_grid": "0.5:0.7:0.1"}, 'unknown config keys "lambda_grid"'),
    ({"custom_b": "b.json", "sigma_grid": "0:0:1"}, 'unknown config keys "custom_b", "sigma_grid"'),
    ({"config": "other.json"}, 'unknown config keys "config"'),
    ({"silw": [2, 3], "custom-b": "b.json"}, "give either --silw or --custom-b, not both"),
])
def test_config_errors_print_one_line(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # a config boundary is read only without --silw
    assert run_cli((CHECK[:3] if "silw" in config else CHECK) + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, config, message", [
    (CHECK, {"origin-tol": [1]}, 'config key "origin-tol" must be a number, got [1]'),
    (CHECK, {"samples": [1]}, 'config key "samples" must be an integer, got [1]'),
    (["check", "--lambda", "0.7"], {"silw": 5}, 'config key "silw" must be a list of 2 integers, got 5'),
    (["sweep", "--silw", "2", "3"], {"lambda-grid": 5}, 'config key "lambda-grid" must be a string, got 5'),
    (CHECK, {"samples": 100.7}, 'config key "samples" must be an integer, got 100.7'),
    (CHECK, {"samples": 1e400}, 'config key "samples" must be an integer, got Infinity'),
    (SWEEP, {"jobs": [2]}, 'config key "jobs" must be an integer, got [2]'),
    (SWEEP, {"jobs": 1.5}, 'config key "jobs" must be an integer, got 1.5'),
    (SWEEP, {"jobs": "2"}, 'config key "jobs" must be an integer, got "2"'),
    (SWEEP, {"jobs": True}, 'config key "jobs" must be an integer, got true'),
    (SWEEP, {"samples": 10**11}, "samples must be at most 10000000, got 100000000000"),
    # a config jobs of 0 is refused as the flag's is
    (SWEEP, {"jobs": 0}, "jobs must be at least 1, got 0"),
    (["check", "--lambda", "0.7"], {"silw": [2.7, 3]}, 'config key "silw" must be a list of 2 integers, got [2.7, 3]'),
    (["check", "--lambda", "0.7"], {"silw": [True, 3]}, 'config key "silw" must be a list of 2 integers, got [true, 3]'),
    (["check", "--lambda", "0.7"], {"silw": [2, 3, 4]}, 'config key "silw" must be a list of 2 integers, got [2, 3, 4]'),
    (CHECK, {"sigma": "0.3"}, 'config key "sigma" must be a number, got "0.3"'),
    (CHECK, {"coefficients": [0.5, "0.5"]}, 'config key "coefficients" must be a list of numbers, got [0.5, "0.5"]'),
    (CHECK, {"preset": 1}, 'config key "preset" must be a string, got 1'),
    (["curve", "--lambda", "0.7", "--silw", "2", "3"], {"no-normalize": "yes"},
     'config key "no-normalize" must be true or false, got "yes"'),
    (["simulate", "--lambda", "0.6", "--silw", "2", "3"], {"grid-points": 20.0},
     'config key "grid-points" must be an integer, got 20.0'),
    (["simulate", "--lambda", "0.6", "--silw", "2", "3"], {"grid-points": 10**11, "final-time": 1e-9},
     "grid-points must be at most 10000000, got 100000000000"),
])
def test_config_values_of_the_wrong_type_print_one_line(tmp_path, capsys, argv, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "samples", 5),
    ("check", "jobs", 2),
    ("curve", "jobs", 2),
    ("simulate", "jobs", 2),
    # known keys a command does not read: a grid on a one-pair command, one offset on a grid command
    ("check", "lambda-grid", "nope"),
    ("sweep", "sigma", 0.3),
    ("simulate", "sigma", 0.1),
    ("simulate", "origin-tol", 0.9),
    ("curve", "origin-tol", 0.9),
    ("curve", "sigma-grid", "0:0.1:0.1"),
    ("sweep", "lambda", 1.4),
    # the run geometry of simulate, and curve's switch
    ("check", "grid-points", 20),
    ("sweep", "final-time", 0.1),
    ("curve", "velocity", 2.0),
    ("check", "no-normalize", True),
])
def test_config_knobs_a_command_lacks_are_refused(tmp_path, capsys, command, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    assert run_cli(COMMANDS[command] + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f'error: config key "{key}" does not act on {command}']


def test_config_keys_a_command_lacks_are_named_on_one_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda-grid": "nope", "sigma-grid": 5, "lambda": 0.7}))
    assert run_cli(CHECK + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ['error: config keys "lambda-grid", "sigma-grid" do not act on check']


def test_config_jobs_acts_and_the_flag_overrides_it(tmp_path, capsys, monkeypatch):
    calls = []

    def recorded(*args, jobs, **kwargs):
        calls.append(jobs)
        return sweep(*args, jobs=jobs, **kwargs)

    monkeypatch.setattr(cli, "sweep", recorded)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"jobs": 2}))
    assert run_cli(SWEEP) == 0
    serial = capsys.readouterr().out
    assert run_cli(SWEEP + ["--config", str(path)]) == 0
    assert capsys.readouterr().out == serial
    assert run_cli(SWEEP + ["--config", str(path), "--jobs", "3"]) == 0
    assert calls == [1, 2, 3]


def test_config_lambda_acts_as_the_flag_does(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": 1.4}))
    assert run_cli(["check", "--silw", "2", "3", "--config", str(path)]) == 2
    assert run_cli(["check", "--silw", "2", "3", "--config", str(path), "--lambda", "0.7"]) == 0


def test_import_leaves_scipy_unloaded():
    # the package runs on numpy alone, so a cold start does not pay for importing scipy
    code = "import sys, klstab; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Every flag of every command, as (command, long name): the parser is the one list of config keys
FLAGS = [(command, action.option_strings[-1][2:]) for command, parser in cli._build_parser().commands.items()
         for action in parser._actions if action.dest not in ("help", "config")]
# Two values of each flag's key, valid JSON of its type; the second gives other output than the first
FLAG_VALUES = {
    "preset": ("beam-warming", "upwind9"),
    "coefficients": ([float(a) for a in make_beam_warming(0.7).a], [0.0]),
    "silw": ([2, 3], [4, 3]),
    "custom-b": ("b.json", "missing.json"),
    "out": ("a.out", "b.out"),
    "no-normalize": (True, False),
    "lambda-grid": ("0.5:0.7:0.1", "nope"),
    "sigma-grid": ("-0.2:0:0.1", "nope"),
    "jobs": (2, 0),
    "grid-points": (20, 0),
    "final-time": (0.1, -1.0),
    "velocity": (0.5, 0.0),
    "lambda": (0.7, 2.1),
    "sigma": (0.3, 0.7),
    "samples": (128, 10),
    "cluster-radius": (1e-6, -1.0),
    "unit-circle-tol": (1e-5, -1.0),
    "origin-tol": (0.9, -1.0),
    "kernel-tol": (1e-6, -1.0),
    "cauchy-tol": (1e-9, -1.0),
}
# The other flags of each run, as config values
FLAG_BASES = {
    "check": {"lambda": 0.7, "silw": [2, 3]},
    "curve": {"lambda": 0.7, "silw": [2, 3], "samples": 64},
    "sweep": {"silw": [2, 3], "lambda-grid": "0.7:0.7:1"},
    "simulate": {"lambda": 0.6, "silw": [2, 3], "sigma-grid": "0:0:1", "grid-points": 20},
}


def test_a_config_has_one_key_per_flag():
    assert {key for _, key in FLAGS} == set(FLAG_VALUES) and len(FLAG_VALUES) == 20


@pytest.mark.parametrize("command, key", FLAGS)
def test_each_config_key_acts_as_its_flag_which_overrides_it(tmp_path, capsys, monkeypatch, command, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps({"b": [[0.0, 0.0], [0.0, 0.0]]}))
    value, other = FLAG_VALUES[key]
    base = {k: v for k, v in FLAG_BASES[command].items() if k != key and not (key == "custom-b" and k == "silw")}

    def run(flags, config):
        argv = [command]
        for k, v in {**base, **flags}.items():
            if v is True:
                argv.append(f"--{k}")
            elif isinstance(v, list):
                argv += [f"--{k}", *map(repr, v)]
            else:
                argv.append(f"--{k}={v}")
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = run_cli(argv + ["--config", "config.json"])
        captured = capsys.readouterr()
        written = {path.name: path.read_bytes() for path in sorted(tmp_path.glob("*.out"))}
        for path in tmp_path.glob("*.out"):
            path.unlink()
        return code, captured.out, captured.err, written

    by_flag = run({key: value}, {})
    assert run({}, {key: value}) == by_flag
    assert run({key: value}, {key: other}) == by_flag
    assert run({}, {key: other}) != by_flag
