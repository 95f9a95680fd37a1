"""The self-verification checks fail on a NaN error, not only on a large one,
each fails on a corrupted input, run_all rejects a bad argument before any
check runs, it times each check, and a grid size above 5 adds nothing."""

import cmath
import dataclasses
import itertools
import math

import pytest

from ar1quad import ModelParams, TransformPoint, TransformValue, closed_form, domain_check, transform, verify


# the closed-form value each grid check reads in ar1quad.verify: the matrix
# oracle and one-step checks read transform's log L_t and Sigma_t from one
# alpha stage per grid point (_scalar_horizon's first two terms), the
# exactness anchors transform itself
SEAMS = {"matrix_oracle": "_scalar_horizon", "one_step": "_scalar_horizon", "exactness_anchors": "transform"}


def _nan(value):
    """A seam's result with log L_t, L_t and Sigma_t NaN."""
    nan = complex(math.nan, math.nan)
    if isinstance(value, TransformValue):
        return TransformValue(log_value=nan, value=nan, sigma_t=nan)
    return nan, nan, *value[2:]


@pytest.mark.parametrize("check", [verify.check_matrix_oracle, verify.check_one_step, verify.check_exactness_anchors])
def test_a_nan_at_one_grid_point_fails_its_check(monkeypatch, check):
    # max(worst, nan) is worst: a NaN value at one grid point used to pass
    name = SEAMS[check.__name__.removeprefix("check_")]
    original = getattr(verify, name)
    calls = []

    def nan_once(*args):
        calls.append(args[-1])
        value = original(*args)
        return _nan(value) if len(calls) == 2 else value

    monkeypatch.setattr(verify, name, nan_once)
    result = check(1, 1.0)
    assert len(calls) > 2  # the grid points after the NaN do not clear it
    assert math.isnan(result.error) and not result.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"tolerance": math.nan}, "tolerance must be a finite number >= 0, got nan"),
    ({"tolerance": -1.0}, "tolerance must be a finite number >= 0, got -1.0"),
    ({"tolerance": math.inf}, "tolerance must be a finite number >= 0, got inf"),
    ({"grid_size": -3}, "grid size must be >= 1, got -3"),
    ({"grid_size": None}, "grid size must be an integer, got None"),
    ({"grid_size": "3"}, "grid size must be an integer, got '3'"),
    ({"grid_size": 0}, "grid size must be >= 1, got 0"),
    ({"grid_size": 1.5}, "grid size must be an integer, got 1.5"),
    # math.isfinite used to raise a bare TypeError on these
    ({"tolerance": "0.1"}, "tolerance must be a finite number >= 0, got '0.1'"),
    ({"tolerance": 0.1j}, "tolerance must be a finite number >= 0, got 0.1j"),
])
def test_run_all_rejects_a_bad_argument_before_any_check_runs(monkeypatch, kwargs, message):
    # a NaN or negative tolerance used to run every check and fail all but
    # the one with a fixed tolerance
    ran = []
    for name in ("check_spectral_identities", "check_wronskian", "check_matrix_oracle", "check_one_step",
                 "check_exactness_anchors"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ValueError) as exc:
        verify.run_all(**kwargs)
    assert str(exc.value) == message
    assert ran == []


def test_run_all_takes_a_zero_tolerance():
    # zero is the strictest finite tolerance, not a bad argument
    report = verify.run_all(grid_size=1, tolerance=0.0)
    assert len(report.checks) == 5


def test_run_all_times_every_check():
    report = verify.run_all(grid_size=1)
    assert [c.name for c in report.checks] == ["spectral_identities", "wronskian", "matrix_oracle", "one_step",
                                               "exactness_anchors"]
    for check in report.checks:
        assert check.seconds > 0.0, check.name


def _scaled(factor):
    """A closed-form result off by `factor`, its log consistent with it: a
    transform value, or _scalar_horizon's (log L_t, Sigma_t, ...) terms."""
    def scaled(v):
        if isinstance(v, TransformValue):
            return dataclasses.replace(v, log_value=v.log_value + cmath.log(factor), value=v.value * factor)
        return v[0] + cmath.log(factor), *v[1:]
    return scaled


def _shifted_root(spectral):
    return dataclasses.replace(spectral, lambda_plus=1.37 * spectral.lambda_plus)


def _sigma_off(terms):
    """_scalar_horizon's terms with Sigma_t alone off by 1e-6, relative."""
    return terms[0], terms[1] * (1.0 + 1e-6), *terms[2:]


def _lambda_off(stage):
    """An alpha stage with Lambda alone off by 1e-9, relative."""
    return stage[0], stage[1], stage[2] * (1.0 + 1e-9), *stage[3:]


# check[-variant] -> (the name it reads in ar1quad.verify, a corruption of
# that name's result); the matrix oracle check compares both factors of
# L_t, log L_t and Sigma_t, so each alone must fail it, and the one-step
# check's eigen-equation at t = inf reads Lambda and log f_check(x), so a
# part per billion in either must fail it
CORRUPTIONS = {
    "spectral_identities": ("roots", _shifted_root),
    "wronskian": ("roots", _shifted_root),
    "matrix_oracle": ("_scalar_horizon", _scaled(1.5)),
    "matrix_oracle-sigma_t": ("_scalar_horizon", _sigma_off),
    "one_step": ("_scalar_horizon", _scaled(1.5)),
    "one_step-lambda": ("_alpha_stage", _lambda_off),
    "one_step-log_f_check": ("_log_limit", lambda v: (v[0] + 1e-9, *v[1:])),
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
    report = verify.run_all(grid_size=1)
    result = {c.name: c for c in report.checks}[check]
    assert result.passed is False, result


# the grid point a seam's arguments name: (theta, m, alpha, the rest)
POINT_OF = {
    "roots": lambda params, point: (params.theta, params.m, point.alpha, ()),
    "transform": lambda params, point, x, t: (params.theta, params.m, point.alpha, (x, t)),
    "_scalar_horizon": lambda params, x, alpha, stage, t: (params.theta, params.m, alpha, (x, t)),
    "_log_limit": lambda params, x, alpha, stage: (params.theta, params.m, alpha, (x, math.inf)),
}

# check[-variant] -> (the name it reads in ar1quad.verify, alpha and the
# arguments after it at the corrupted grid point, m there, how the detail
# names it)
WORST_POINTS = {
    "spectral_identities": ("roots", -0.3+0.4j, (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j)"),
    "wronskian": ("roots", -0.3+0.4j, (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j), s="),
    "matrix_oracle": ("_scalar_horizon", -0.3+0.4j, (2.0, 5), 0.0,
                      "worst at theta=-0.8, m=0.0, alpha=(-0.3+0.4j), x=2.0, t=5"),
    "one_step": ("_scalar_horizon", -0.3+0.4j, (2.0, 1000), 0.0,
                 "worst at theta=-0.8, m=0.0, alpha=(-0.3+0.4j), x=2.0, t=1000"),
    "one_step-eigen": ("_log_limit", -0.3+0.4j, (2.0, math.inf), 0.0,
                       "worst at theta=-0.8, m=0.0, alpha=(-0.3+0.4j), x=2.0, t=inf"),
    "exactness_anchors": ("transform", -0.3+0.4j, (2.0, 0), 0.5,
                          "worst at theta=-0.8, m=0.5, alpha=(-0.3+0.4j), x=2.0, t=0"),
    # L_t(0, x) != 1 used to end the check with error inf and the detail
    # "L_t(0, x) != 1", naming no point and skipping the remaining thetas
    "exactness_anchors-alpha_zero": ("transform", 0j, (1.3, 7), 0.5,
                                     "worst at theta=-0.8, m=0.5, alpha=0.0, x=1.3, t=7"),
}


@pytest.mark.parametrize("case", WORST_POINTS)
def test_a_check_names_the_point_of_its_worst_error(monkeypatch, case):
    # one grid point corrupted: the check fails, and its detail names that
    # point, not only how large the error is there
    name, alpha, rest, m, expected = WORST_POINTS[case]
    original = getattr(verify, name)

    def corrupted(*args):
        value = original(*args)
        theta, at_m, at_alpha, at_rest = POINT_OF[name](*args)
        if (theta, at_alpha, at_rest) != (-0.8, alpha, rest) or m not in (None, at_m):
            return value
        return _shifted_root(value) if name == "roots" else _scaled(1.5)(value)

    monkeypatch.setattr(verify, name, corrupted)
    result = getattr(verify, f"check_{case.split('-')[0]}")(3, 1e-10)
    assert not result.passed and result.detail.startswith(expected), result


def test_the_checks_read_transform_bit_for_bit():
    # the matrix oracle and one-step checks read log L_t and Sigma_t from one
    # alpha stage per grid point, shared across horizons: they are
    # transform's, bit for bit, so the checks speak for the public function
    thetas, alphas, xs, ms = verify._grids(5)
    for theta, m, alpha, x in itertools.product(thetas, ms, alphas, xs):
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        if not domain_check(params, point):
            continue
        stage = closed_form._alpha_stage(params, point, x)
        for t in (1, 5, 50, 10**3, 10**6):
            value = transform(params, point, x, t)
            terms = closed_form._scalar_horizon(params, x, point.alpha, stage, t)[:2]
            assert repr(terms) == repr((value.log_value, value.sigma_t)), (theta, m, alpha, x, t)


def test_one_step_check_sees_a_part_per_billion_in_c(monkeypatch):
    # the default check reads about 4e-16; with C scaled by 1 + 1e-9 in the
    # assembly, L_t and the L_{t-1} under the expectation no longer obey the
    # one-step identity (the Monte Carlo check it replaces saw C x 1.01 only
    # at a standard score near 6)
    check = verify.check_one_step(3, 1e-12)
    assert check.passed and check.error <= 1e-12, check
    assemble = closed_form._assemble

    def corrupted(theta, x, alpha, cf, *rest):
        return assemble(theta, x, alpha, (*cf[:3], (1.0 + 1e-9) * cf[3]), *rest)

    monkeypatch.setattr(closed_form, "_assemble", corrupted)
    check = verify.check_one_step(3, 1e-12)
    assert not check.passed and check.error > 1e-10, check


def test_grid_size_saturates_at_five(monkeypatch):
    # the pools are fixed: a size above 5 runs the size-5 grid, and the m
    # values and the alphas, complex ones included, stop growing at 3
    assert verify._grids(10) == verify._grids(6) == verify._grids(5)
    assert [len(axis) for axis in verify._grids(3)] == [3, 6, 3, 3]
    assert [len(axis) for axis in verify._grids(5)] == [5, 6, 4, 3]
    calls = []

    def record(*args):
        calls.append(args)
        return 1.0, [], [], None  # (scale, offsets, quads, start) of an empty elimination

    monkeypatch.setattr(verify, "_eliminate", record)
    grids = {}
    for size in (3, 4, 5, 10):
        calls.clear()
        verify.check_matrix_oracle(size, 1.0)
        grids[size] = list(calls)
    assert {alpha for _, alpha, _, _ in grids[3]} == {alpha for _, alpha, _, _ in grids[10]}
    assert len(grids[3]) < len(grids[4]) < len(grids[5]) == len(grids[10])
    assert grids[5] == grids[10]
