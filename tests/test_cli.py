import cmath
import contextlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import ar1quad
from ar1quad import ModelParams, TransformPoint, closed_form, ergodic_constants, roots, sigma_via_recursion, transform
from ar1quad.cli import main

from util import count_calls, rel_err


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_alpha_zero(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--theta", "0.5", "--m", "0", "--x", "1", "--alpha", "0", "--t", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == 1.0
    assert payload["value_im"] == 0.0
    assert payload["log_value_re"] == 0.0
    sigma = complex(payload["sigma_re"], payload["sigma_im"])
    assert rel_err(sigma, sigma_via_recursion(ModelParams(0.5, 0.0), TransformPoint(0.0), 1.0, 7)) <= 1e-13
    assert payload["in_domain"] is True


def test_transform_horizon_zero_value(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--theta", "0.5", "--m", "1", "--x", "0.3",
        "--alpha", "-0.25", "--t", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value_re"] - math.exp(-0.25 * 0.09)) < 1e-15
    assert abs(payload["value_re"] - 0.977751) < 1e-6


def test_transform_out_of_domain_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--theta", "0.5", "--m", "1", "--x", "0.3",
        "--alpha", "0.2", "--alpha-im", "0.0", "--t", "5",
    )
    assert code == 2
    assert json.loads(out) == {"error": "out_of_domain"}


def test_transform_output_round_trips_exactly(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--theta", "0.6", "--m", "1", "--x", "0.5",
        "--alpha", "-0.3", "--t", "11",
    )
    assert code == 0
    payload = json.loads(out)
    tv = transform(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5, 11)
    assert payload["log_value_re"] == tv.log_value.real
    assert payload["value_re"] == tv.value.real
    assert payload["sigma_re"] == tv.sigma_t.real


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "--theta", "0.5"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 64


def test_invalid_theta_exits_64(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--theta", "1.5", "--x", "0", "--alpha", "-0.5", "--t", "1"
    )
    assert code == 64
    assert "theta" in err


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_non_finite_start_exits_64(capsys, x):
    for command, extra in (("transform", ["--t", "5"]), ("ergodic", []), ("sweep", ["--t", "1:3"])):
        code, out, err = run_cli(
            capsys, command, "--theta", "0.6", "--m", "1", f"--x={x}", "--alpha", "-0.3", *extra
        )
        assert code == 64, command
        assert out == "" and "x must be finite" in err


@pytest.mark.parametrize("alpha", [["--alpha", "nan"], ["--alpha=-inf"], ["--alpha", "-0.3", "--alpha-im", "inf"],
                                   ["--alpha", "-inf"]])
def test_non_finite_alpha_exits_64(capsys, alpha):
    # invalid input, not an out-of-domain point (exit 2) or error rows (exit 0)
    for command, extra in (("transform", ["--t", "5"]), ("ergodic", []), ("sweep", ["--t", "1:3"])):
        code, out, err = run_cli(capsys, command, "--theta", "0.6", "--m", "1", "--x", "0.5", *alpha, *extra)
        assert code == 64, command
        assert out == "" and "alpha must be finite" in err


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
@pytest.mark.parametrize("flag, name", [("--x", "x"), ("--m", "m"), ("--alpha-im", "alpha")])
def test_space_separated_negative_non_finite_value_exits_64(capsys, flag, name, value):
    # "-inf" after a flag is its value, not an unknown option: float() reads
    # it and the finiteness check rejects it, as for --x=-inf
    for command, extra in (("transform", ["--t", "5"]), ("ergodic", []), ("sweep", ["--t", "1:3"])):
        code, out, err = run_cli(capsys, command, "--theta", "0.6", "--m", "1", "--x", "0.5", "--alpha", "-0.3",
                                 *extra, flag, value)
        assert code == 64, command
        assert out == "" and f"{name} must be finite" in err


def test_value_that_only_starts_like_a_negative_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transform", "--theta", "0.6", "--x", "0.5", "--alpha", "-infx", "--t", "3"])
    assert info.value.code == 64
    assert "invalid float value: '-infx'" in capsys.readouterr().err


def test_ergodic_reference_value(capsys):
    code, out, _ = run_cli(
        capsys, "ergodic", "--theta", "0.5", "--m", "0", "--x", "0", "--alpha", "-0.5"
    )
    assert code == 0
    payload = json.loads(out)
    lam_plus = roots(ModelParams(0.5), TransformPoint(-0.5)).lambda_plus
    assert abs(payload["Lambda_re"] - (-0.5 * cmath.log(lam_plus)).real) < 1e-15
    assert 0 < payload["rate"] < 1


def test_ergodic_alpha_near_zero(capsys):
    code, out, _ = run_cli(
        capsys, "ergodic", "--theta", "0.5", "--m", "0", "--x", "0", "--alpha", "-1e-9"
    )
    assert code == 0
    assert abs(json.loads(out)["Lambda_re"]) < 1e-6


def test_ergodic_rate_in_unit_interval(capsys):
    for alpha in ("-0.05", "-0.5", "-2"):
        code, out, _ = run_cli(
            capsys, "ergodic", "--theta", "0.8", "--m", "1", "--x", "0.2", "--alpha", alpha
        )
        assert code == 0
        assert 0 < json.loads(out)["rate"] < 1


def test_ergodic_out_of_domain_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, "ergodic", "--theta", "0.5", "--m", "0", "--x", "0", "--alpha", "0.2"
    )
    assert code == 2
    assert json.loads(out) == {"error": "out_of_domain"}


def test_sweep_single_point_matches_transform(capsys):
    code, sweep_out, _ = run_cli(
        capsys, "sweep", "--theta", "0.6", "--m", "1", "--x", "0.5",
        "--alpha", "-0.3", "--t", "11",
    )
    assert code == 0
    row = json.loads(sweep_out)
    code, tr_out, _ = run_cli(
        capsys, "transform", "--theta", "0.6", "--m", "1", "--x", "0.5",
        "--alpha", "-0.3", "--t", "11",
    )
    single = json.loads(tr_out)
    assert row["log_L_re"] == single["log_value_re"]
    assert row["log_L_im"] == single["log_value_im"]
    assert row["error"] is None


def test_sweep_csv_round_trip_and_header(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.6", "--m", "1", "--x", "0.5",
        "--alpha=-0.3,-0.5", "--t", "1,5,9", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "alpha_re,alpha_im,t,log_L_re,log_L_im,normalized_re,"
        "normalized_im,Lambda_re,rate,error"
    )
    assert len(lines) == 1 + 2 * 3
    params = ModelParams(0.6, 1.0)
    for line in lines[1:]:
        cells = line.split(",")
        alpha = complex(float(cells[0]), float(cells[1]))
        t = int(cells[2])
        tv = transform(params, TransformPoint(alpha), 0.5, t)
        # 17 significant digits reproduce the doubles bit for bit
        assert float(cells[3]) == tv.log_value.real
        assert float(cells[7]) == ergodic_constants(params, TransformPoint(alpha), 0.5).lambda_of_alpha.real


def test_sweep_row_order_is_alpha_major(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.6", "--m", "0", "--x", "0",
        "--alpha=-0.5,-0.3", "--t", "2,1", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
    assert [(float(a), int(t)) for a, _, t in rows] == [
        (-0.5, 2), (-0.5, 1), (-0.3, 2), (-0.3, 1),
    ]


def test_sweep_t_range_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.6", "--m", "1", "--x", "0.5",
        "--alpha", "-0.3", "--t", "1:80", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 80
    erg = ergodic_constants(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5)
    errors = [abs(float(line.split(",")[5]) - erg.f_check.real) for line in lines]
    # one-step ratio is asymptotic: rate^2 terms pollute small t
    for t, (prev, nxt) in enumerate(zip(errors, errors[1:]), start=1):
        if t >= 10 and prev > 1e-12:
            assert nxt <= prev * (erg.rate * 1.25)


def test_sweep_out_of_domain_row_best_effort(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.5", "--m", "0", "--x", "0",
        "--alpha=0.9,-0.5", "--t", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("out_of_domain")
    assert lines[2].endswith(",")  # healthy row, empty error cell


# alpha = (1-theta)^2/2 is the boundary of D and the pole of nu; at alpha = 0.9,
# outside D, the domain is reported before the overflowing constants
@pytest.mark.parametrize("theta, m, alpha", [("0.5", "1", "0.125"), ("0.6", "1e200", "0.9")])
def test_alpha_outside_domain_is_out_of_domain(capsys, theta, m, alpha):
    point = ["--theta", theta, "--m", m, "--x", "0.3"]
    for argv in (["transform", *point, "--alpha", alpha, "--t", "5"], ["ergodic", *point, "--alpha", alpha]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out) == {"error": "out_of_domain"} and err == ""
    sweep = ["sweep", *point, "--alpha", alpha, "--t", "1:2", "--format", "csv"]
    code, out, _ = run_cli(capsys, *sweep)
    assert code == 0
    assert [line.endswith("out_of_domain") for line in out.strip().splitlines()[1:]] == [True, True]
    assert run_cli(capsys, *sweep, "--strict")[0] == 2


def test_sweep_accepts_alpha_zero_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta", "0.5", "--m", "1", "--x", "0.3",
        "--alpha", "0", "--t", "4", "--format", "csv",
    )
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert float(cells[3]) == 0.0  # log L
    assert float(cells[5]) == 1.0  # normalized
    assert float(cells[7]) == 0.0  # Lambda
    assert float(cells[8]) == 0.5  # rate -> |theta| in the alpha -> 0 limit


def test_commands_deterministic_given_flags(capsys):
    argv = ["sweep", "--theta", "0.6", "--m", "1", "--x", "0.5",
            "--alpha=-0.3,-0.7", "--t", "1:40", "--format", "csv"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


@pytest.mark.parametrize("command", ["transform", "sweep"])
def test_a_horizon_beyond_the_double_range_is_a_usage_error(capsys, command):
    # it used to end in a traceback (OverflowError: int too large to convert
    # to float) and exit 1, the code of a verification failure
    code, out, err = run_cli(capsys, command, "--theta", "0.6", "--m", "1", "--x", "0.5", "--alpha=-0.3",
                             "--t", str(10**400))
    assert code == 64
    assert out == ""
    assert err.startswith("ar1quad: error: horizon t must be at most 1.7976931348623157e+308, got ")


def test_sweep_strict_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--theta", "0.5", "--m", "0", "--x", "0",
        "--alpha", "0.9", "--t", "1", "--strict",
    )
    assert code == 2


def test_verify_default_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "5/5 checks passed" in out
    assert "[FAIL]" not in out
    lines = out.splitlines()
    assert len(lines) == 6 and lines[-1] == "5/5 checks passed"
    for line in lines[:-1]:  # each check line carries its wall time
        assert line.startswith("[PASS] ") and re.search(r"  time=\d+\.\dms(  |$)", line), line


def test_verify_smoke_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid-size", "1")
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_impossible_tolerance_fails(capsys):
    # at grid size 1 the checks read 0 to 6e-16
    code, out, _ = run_cli(capsys, "verify", "--grid-size", "1", "--tolerance", "1e-16")
    assert code == 1
    assert "[FAIL]" in out


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_rejects_a_grid_size_below_one(capsys, size):
    # such a size used to run the size-1 smoke grid and exit 0
    code, out, err = run_cli(capsys, "verify", "--grid-size", size)
    assert code == 64
    assert out == ""
    assert err.startswith("ar1quad: error:") and f"grid size must be >= 1, got {size}" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--tolerance", "nan", "tolerance must be a finite number >= 0, got nan"),
    ("--tolerance", "-1", "tolerance must be a finite number >= 0, got -1.0"),
    ("--tolerance", "inf", "tolerance must be a finite number >= 0, got inf"),
])
def test_verify_rejects_a_bad_argument_before_any_check_runs(capsys, flag, value, message):
    # a NaN or negative tolerance used to print a FAIL line per check and exit 1
    code, out, err = run_cli(capsys, "verify", "--grid-size", "1", flag, value)
    assert code == 64
    assert out == ""
    assert err == f"ar1quad: error: {message}\n"


@pytest.mark.parametrize("flag", ["--seed", "--mc-samples"])
def test_verify_takes_no_sampling_option(capsys, flag):
    # every check is deterministic: --grid-size and --tolerance are verify's options
    with pytest.raises(SystemExit) as info:
        main(["verify", "--grid-size", "1", flag, "20000"])
    assert info.value.code == 64
    assert capsys.readouterr().out == ""


def test_sweep_memory_does_not_grow_with_the_grid():
    # 5,000 rows are streamed: nothing proportional to the grid is held
    argv = ["sweep", "--theta", "0.6", "--m", "1", "--x", "0.5",
            "--alpha=-0.3,-0.3", "--alpha-im=0,0.2", "--t"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main([*argv, "40000"])  # one-time imports (argparse loads gettext lazily) are not the sweep's
        tracemalloc.start()
        try:
            code = main([*argv, "40000:42499"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 256 * 1024


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [["--x", "nan", "--t", "1:3"], ["--x", "0.5", "--t=1,-2"],
                                 ["--x", "0.5", "--t", "5:3"], ["--x", "0.5", "--alpha=-0.3,nan", "--t", "1:3"],
                                 ["--x", "0.5", "--alpha-im=0,-inf", "--t", "1:3"]])
def test_sweep_usage_error_prints_nothing(capsys, fmt, bad):
    # a streaming sweep must fail before its CSV header or its first row
    code, out, err = run_cli(
        capsys, "sweep", "--theta", "0.6", "--m", "1", "--alpha=-0.3,-0.5", *bad, "--format", fmt
    )
    assert code == 64
    assert out == ""
    assert err.startswith("ar1quad: error:")


def test_console_script_exits_141_when_reader_closes_pipe():
    script = (
        "import sys; from ar1quad.cli import run; "
        "sys.argv = ['ar1quad', 'sweep', '--theta', '0.6', '--m', '1', '--x', '0.5', "
        "'--alpha=-0.3', '--t', '1:100000', '--format', 'csv']; run()"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ar1quad.__file__)))
    # the context manager closes both pipes and waits, whatever is asserted
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline().startswith(b"alpha_re,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_sweep_runs_roots_and_constants_once_per_alpha(monkeypatch):
    # 3 alphas (one outside D) x 1000 horizons: the per-alpha work is not per row
    counts = count_calls(monkeypatch, closed_form, "_roots", "_constants")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(["sweep", "--theta", "0.6", "--m", "1", "--x", "0.5", "--alpha=-0.3,0.9,-0.3",
                     "--alpha-im=0,0,0.2", "--t", "40000:40999"])
    assert code == 0
    assert counts == {"_roots": 3, "_constants": 2}  # alpha = 0.9 stops at the domain test


@pytest.mark.parametrize("level", [["--m", "1e200", "--x", "0.5"], ["--m", "1", "--x", "1e200"]])
def test_overflowing_constants_exit_64_before_any_output(capsys, level):
    point = ["--theta", "0.6", *level, "--alpha", "-0.3"]
    for argv in (["transform", *point, "--t", "10"], ["ergodic", *point],
                 ["sweep", *point, "--t", "1:3"], ["sweep", *point, "--t", "1:3", "--format", "csv"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert out == "" and "constants overflow" in err


def test_large_finite_level_transform_sets_overflow(capsys):
    code, out, _ = run_cli(capsys, "transform", "--theta", "-0.8", "--m", "1e150", "--x", "0.5",
                           "--alpha", "-0.3", "--t", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == 0.0 and math.isfinite(payload["log_value_re"])


@pytest.mark.parametrize("argv", [["ergodic"], ["sweep", "--t", "1:3"], ["sweep", "--t", "1:3", "--format", "csv"]])
def test_overflowing_normalized_value_exits_64(capsys, argv):
    # f_check and exp(-t*Lambda)*L_t overflow at theta = 0.6, m = 1e150: one
    # stderr line, no traceback, and no row (a CSV sweep has printed its header)
    code, out, err = run_cli(capsys, *argv, "--theta", "0.6", "--m", "1e150", "--x", "0.5", "--alpha", "-0.3")
    assert code == 64
    header = "alpha_re,alpha_im,t,log_L_re,log_L_im,normalized_re,normalized_im,Lambda_re,rate,error\n"
    assert out == (header if "csv" in argv else "")
    assert err.count("\n") == 1 and err.startswith("ar1quad: error: ") and "overflows" in err
