"""The self-verification checks fail on a NaN error, not only on a large one,
each fails on a corrupted input, run_all rejects a bad argument before any
check runs, it times each check, and a grid size above 5 adds nothing."""

import cmath
import dataclasses
import math
import re

import pytest

from ar1quad import TransformValue, transform, verify


@pytest.mark.parametrize("check", [verify.check_matrix_oracle, verify.check_exactness_anchors])
def test_a_nan_at_one_grid_point_fails_its_check(monkeypatch, check):
    # max(worst, nan) is worst: a NaN value at one grid point used to pass
    calls = []

    def nan_once(params, point, x, t):
        calls.append(t)
        if len(calls) == 2:
            nan = complex(math.nan, math.nan)
            return TransformValue(log_value=nan, value=nan, sigma_t=nan)
        return transform(params, point, x, t)

    monkeypatch.setattr(verify, "transform", nan_once)
    result = check(1, 1.0)
    assert len(calls) > 2  # the grid points after the NaN do not clear it
    assert math.isnan(result.error) and not result.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": math.nan}, "tolerance must be a finite number >= 0, got nan"),
    ({"tolerance": -1.0}, "tolerance must be a finite number >= 0, got -1.0"),
    ({"tolerance": math.inf}, "tolerance must be a finite number >= 0, got inf"),
    ({"mc_samples": 1}, "Monte Carlo sample count must be >= 2, got 1"),
    ({"mc_samples": 2.5}, "Monte Carlo sample count must be an integer, got 2.5"),
    ({"seed": -1}, "Monte Carlo seed must be >= 0, got -1"),
    ({"grid_size": 0}, "grid size must be >= 1, got 0"),
    ({"grid_size": 1.5}, "grid size must be an integer, got 1.5"),
])
def test_run_all_rejects_a_bad_argument_before_any_check_runs(monkeypatch, kwargs, message):
    # a NaN or negative tolerance used to run every check and fail all but
    # the Monte Carlo one; a bad sample count or seed was rejected only once
    # the checks before the Monte Carlo one had run
    ran = []
    for name in ("check_spectral_identities", "check_wronskian", "check_matrix_oracle", "check_monte_carlo",
                 "check_convergence_rate", "check_exactness_anchors"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ValueError) as exc:
        verify.run_all(**kwargs)
    assert str(exc.value) == message
    assert ran == []


def test_run_all_takes_a_zero_tolerance():
    # zero is the strictest finite tolerance, not a bad argument
    report = verify.run_all(grid_size=1, tolerance=0.0, mc_samples=20_000)
    assert len(report.checks) == 6


def test_run_all_times_every_check():
    report = verify.run_all(grid_size=1, mc_samples=20_000)
    assert [c.name for c in report.checks] == ["spectral_identities", "wronskian", "matrix_oracle", "monte_carlo",
                                               "convergence_rate", "exactness_anchors"]
    for check in report.checks:
        assert check.seconds > 0.0, check.name


def _scaled(factor):
    """A transform result off by `factor`, its log consistent with it."""
    return lambda v: dataclasses.replace(v, log_value=v.log_value + cmath.log(factor), value=v.value * factor)


def _shifted_root(spectral):
    return dataclasses.replace(spectral, lambda_plus=1.37 * spectral.lambda_plus)


def _sigma_off(v):
    """A transform result whose Sigma_t alone is off by 1e-6, relative."""
    return dataclasses.replace(v, sigma_t=v.sigma_t * (1.0 + 1e-6))


# check[-variant] -> (the name it reads in ar1quad.verify, a corruption of
# that name's result); the matrix oracle check compares both factors of
# L_t, log L_t and Sigma_t, so each alone must fail it
CORRUPTIONS = {
    "spectral_identities": ("roots", _shifted_root),
    "wronskian": ("roots", _shifted_root),
    "matrix_oracle": ("transform", _scaled(1.5)),
    "matrix_oracle-sigma_t": ("transform", _sigma_off),
    "monte_carlo": ("transform", _scaled(1.5)),
    "convergence_rate": ("ergodic_constants", lambda e: dataclasses.replace(e, rate=1.2 * e.rate)),
    "exactness_anchors": ("transform", _scaled(1.5)),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_every_check_fails_on_a_corrupted_value(monkeypatch, case):
    # a check that compares a quantity with itself passes whatever it is
    # given: the Wronskian check, built from the roots on both sides, passed
    # with lambda_+ scaled by 1.37
    check = case.split("-")[0]
    name, corrupt = CORRUPTIONS[case]
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: corrupt(original(*args)))
    report = verify.run_all(grid_size=1, mc_samples=2_000)
    result = {c.name: c for c in report.checks}[check]
    assert result.passed is False, result


# check -> (the name it reads in ar1quad.verify, the arguments after
# (params, point) at the corrupted grid point, m there, how the detail names it)
WORST_POINTS = {
    "spectral_identities": ("roots", (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j)"),
    "wronskian": ("roots", (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j), s="),
    "matrix_oracle": ("transform", (2.0, 5), 0.0, "worst at theta=-0.8, m=0.0, alpha=(-0.3+0.4j), x=2.0, t=5"),
    "exactness_anchors": ("transform", (2.0, 0), 0.5, "worst at theta=-0.8, m=0.5, alpha=(-0.3+0.4j), x=2.0, t=0"),
}


@pytest.mark.parametrize("check", WORST_POINTS)
def test_a_check_names_the_point_of_its_worst_error(monkeypatch, check):
    # one grid point corrupted: the check fails, and its detail names that
    # point, not only how large the error is there
    name, rest, m, expected = WORST_POINTS[check]
    original = getattr(verify, name)

    def corrupted(params, point, *args):
        value = original(params, point, *args)
        if (params.theta, point.alpha, args) != (-0.8, complex(-0.3, 0.4), rest) or m not in (None, params.m):
            return value
        return _shifted_root(value) if name == "roots" else _scaled(1.5)(value)

    monkeypatch.setattr(verify, name, corrupted)
    result = getattr(verify, f"check_{check}")(3, 1e-10)
    assert not result.passed and result.detail.startswith(expected), result


def test_default_verify_monte_carlo_standard_error_is_below_5e_05():
    # a default `ar1quad verify`, at its default seed: conditioned on X_1
    # alone it reads 2.497e-05; conditioned on X_10 alone it read 4.097e-05,
    # the skeleton X_8, X_10 5.929e-05, the stride-4 one 6.789e-05 and the
    # stride-2 estimator 9.607e-05
    check = {c.name: c for c in verify.run_all().checks}["monte_carlo"]
    stderr = re.search(r"stderr=([0-9.e+-]+)$", check.detail)
    assert check.passed and stderr and float(stderr.group(1)) < 5e-05, check


def test_grid_size_saturates_at_five(monkeypatch):
    # the pools are fixed: a size above 5 runs the size-5 grid, and the m
    # values and the alphas, complex ones included, stop growing at 3
    assert verify._grids(10) == verify._grids(6) == verify._grids(5)
    assert [len(axis) for axis in verify._grids(3)] == [3, 6, 3, 3]
    assert [len(axis) for axis in verify._grids(5)] == [5, 6, 4, 3]
    calls = []

    def record(*args):
        calls.append(args)
        return 1.0, [], (), 0.0  # (scale, offsets, repeats, quad) of an empty elimination

    monkeypatch.setattr(verify, "_eliminate", record)
    grids = {}
    for size in (3, 4, 5, 10):
        calls.clear()
        verify.check_matrix_oracle(size, 1.0)
        grids[size] = list(calls)
    assert {alpha for _, alpha, _, _ in grids[3]} == {alpha for _, alpha, _, _ in grids[10]}
    assert len(grids[3]) < len(grids[4]) < len(grids[5]) == len(grids[10])
    assert grids[5] == grids[10]
