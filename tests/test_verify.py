"""The self-verification checks fail on a NaN error, not only on a large one,
each fails on a corrupted input, run_all rejects a bad argument before any
check runs, it times each check, and a grid size above 5 adds nothing.
Each quantity is evaluated once at the level it depends on, with the
results of a walk that evaluates everything at every grid point."""

import cmath
import collections
import dataclasses
import itertools
import math
import sys

import pytest

from ar1quad import (ModelParams, TransformPoint, TransformValue, closed_form, domain_check, roots, spectral, transform,
                     verify)
from ar1quad.oracle import _eliminate, _read, _sigma
from ar1quad.spectral import SCALAR_OPS, _sequence_terms, _spectral_tuple
from util import log_mgf_at


# the closed-form value each grid check reads in ar1quad.verify: the matrix
# oracle and one-step checks read transform's log L_t and Sigma_t from the
# assembly at (m, x) on shared sequence terms (_horizon's first two terms),
# the exactness anchors transform itself
SEAMS = {"matrix_oracle": "_horizon", "one_step": "_horizon", "exactness_anchors": "transform"}


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
    transform value, a log (_log_limit's log f_check), or _horizon's
    (log L_t, Sigma_t, ...) terms."""
    def scaled(v):
        if isinstance(v, TransformValue):
            return dataclasses.replace(v, log_value=v.log_value + cmath.log(factor), value=v.value * factor)
        if isinstance(v, complex):
            return v + cmath.log(factor)
        return v[0] + cmath.log(factor), *v[1:]
    return scaled


def _shifted_root(spectral):
    return dataclasses.replace(spectral, lambda_plus=1.37 * spectral.lambda_plus)


def _sigma_off(terms):
    """_horizon's terms with Sigma_t alone off by 1e-6, relative."""
    return terms[0], terms[1] * (1.0 + 1e-6), *terms[2:]


def _lambda_off(stage):
    """An alpha stage (_constants) with Lambda alone off by 1e-9, relative."""
    return stage[0], stage[1], stage[2] * (1.0 + 1e-9), *stage[3:]


# check[-variant] -> (the name it reads in ar1quad.verify, a corruption of
# that name's result); the matrix oracle check compares both factors of
# L_t, log L_t and Sigma_t, so each alone must fail it, and the one-step
# check's eigen-equation at t = inf reads Lambda and log f_check(x), so a
# part per billion in either must fail it
CORRUPTIONS = {
    "spectral_identities": ("roots", _shifted_root),
    "wronskian": ("roots", _shifted_root),
    "matrix_oracle": ("_horizon", _scaled(1.5)),
    "matrix_oracle-sigma_t": ("_horizon", _sigma_off),
    "one_step": ("_horizon", _scaled(1.5)),
    "one_step-lambda": ("_constants", _lambda_off),
    "one_step-log_f_check": ("_log_limit", lambda v: v + 1e-9),
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
    "_horizon": lambda params, x, alpha, cf, terms, t: (params.theta, params.m, alpha, (x, t)),
    "_log_limit": lambda params, x, alpha, cf, terms: (params.theta, params.m, alpha, (x, math.inf)),
}

# check[-variant] -> (the name it reads in ar1quad.verify, alpha and the
# arguments after it at the corrupted grid point, m there, how the detail
# names it)
WORST_POINTS = {
    "spectral_identities": ("roots", -0.3+0.4j, (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j)"),
    "wronskian": ("roots", -0.3+0.4j, (), None, "worst at theta=-0.8, alpha=(-0.3+0.4j), s="),
    "matrix_oracle": ("_horizon", -0.3+0.4j, (2.0, 5), 0.0,
                      "worst at theta=-0.8, m=0.0, alpha=(-0.3+0.4j), x=2.0, t=5"),
    "one_step": ("_horizon", -0.3+0.4j, (2.0, 1000), 0.0,
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
    # the matrix oracle and one-step checks read log L_t and Sigma_t from the
    # sequence terms once per (theta, alpha, t) and the constants once per
    # (theta, m, alpha, x): they are transform's, bit for bit, so the checks
    # speak for the public function
    thetas, alphas, xs, ms = verify._grids(5)
    for theta, alpha in itertools.product(thetas, alphas):
        point = TransformPoint(alpha)
        if not domain_check(ModelParams(theta, 0.0), point):
            continue
        spectral = _spectral_tuple(roots(ModelParams(theta, 0.0), point))
        for t in (1, 5, 50, 10**3, 10**6):
            terms = _sequence_terms(SCALAR_OPS, theta, spectral, t)
            for m, x in itertools.product(ms, xs):
                params = ModelParams(theta, m)
                value = transform(params, point, x, t)
                cf = closed_form._constants(params, point, x, spectral)[1]
                assembled = closed_form._horizon(params, x, point.alpha, cf, terms, t)[:2]
                assert repr(assembled) == repr((value.log_value, value.sigma_t)), (theta, m, alpha, x, t)


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


def _per_point_walk(grid_size, ms=None):
    """The grid walk with nothing shared: the domain test (domain_check)
    and roots()'s record at every (theta, m, alpha), in verify's order."""
    thetas, alphas, _, pool = verify._grids(grid_size)
    for theta in thetas:
        for m in pool if ms is None else ms:
            params = ModelParams(theta, m)
            for alpha in alphas:
                point = TransformPoint(alpha)
                if domain_check(params, point):
                    yield params, alpha, point, roots(params, point)


def _per_point_matrix_oracle(grid_size, tol):
    """check_matrix_oracle with one alpha stage per grid point and x, one
    _scalar_horizon per horizon and one _log_mgf, on its own log det B, per
    reading."""
    xs = verify._grids(grid_size)[2]
    worst = 0.0, {}
    for params, alpha, point, _ in _per_point_walk(grid_size):
        a = point.alpha
        for x in xs:
            stage = closed_form._alpha_stage(params, point, x)
            elimination = _eliminate(params, a, x, 50)
            for t in (1, 5, 50):
                log_closed, sigma_closed = closed_form._scalar_horizon(params, x, a, stage, t)[:2]
                reading = _read(a, elimination, t)
                log_value, sigma = log_mgf_at(a, x, reading), _sigma(x, reading)
                errors = (abs(log_value - log_closed) / max(1.0, abs(log_closed)),
                          abs(sigma - sigma_closed) / max(abs(sigma_closed), 1e-30))
                worst = verify._worse(worst, errors, theta=params.theta, m=params.m, alpha=alpha, x=x, t=t)
    return verify._result("matrix_oracle", worst, tol)


def _per_point_one_step(grid_size, tol):
    """check_one_step with one alpha stage per grid point and x, one
    _scalar_horizon per horizon, and quadratic_coefficients at t - 1."""
    xs = verify._grids(grid_size)[2]
    worst = 0.0, {}
    for params, alpha, point, _ in _per_point_walk(grid_size):
        theta, m, a = params.theta, params.m, point.alpha
        stages = [closed_form._alpha_stage(params, point, x) for x in xs]
        for t in (1, 10**3, 10**6, math.inf):
            if t == math.inf:
                at_m = closed_form._alpha_stage(params, point, m)
                limit = closed_form._limit_terms(theta, at_m[0])
                coefficients = closed_form._coefficients(params, a, at_m[1], limit, t)
            else:
                coefficients = closed_form.quadratic_coefficients(params, point, t - 1)
            for x, stage in zip(xs, stages):
                if t == math.inf:
                    log_f = closed_form._log_limit(params, x, a, stage[1], closed_form._limit_terms(theta, stage[0]))
                    log_value = stage[2] + log_f
                else:
                    log_value = closed_form._scalar_horizon(params, x, a, stage, t)[0]
                step = a * (x * x) + closed_form._gaussian_step(*coefficients, theta * (x - m), 1.0)
                error = abs(log_value - step) / max(1.0, abs(log_value))
                worst = verify._worse(worst, [error], theta=theta, m=m, alpha=alpha, x=x, t=t)
    return verify._result("one_step", worst, tol)


@pytest.mark.parametrize("grid_size", [1, 2, 3, 4, 5])
def test_shared_levels_give_the_per_point_results(monkeypatch, grid_size):
    # roots shared per (theta, alpha), sequence terms and log det B per
    # (theta, alpha, t): every check's error and worst point are those of a
    # walk that evaluates everything at every grid point
    shared = {c.name: (repr(c.error), c.detail, c.passed) for c in verify.run_all(grid_size).checks}
    per_point = {}
    for check in (_per_point_matrix_oracle, _per_point_one_step):
        result = check(grid_size, 1e-10)
        per_point[result.name] = repr(result.error), result.detail
    monkeypatch.setattr(verify, "_points", _per_point_walk)
    for check in (verify.check_spectral_identities, verify.check_wronskian, verify.check_exactness_anchors):
        result = check(grid_size, 1e-10)
        per_point[result.name] = repr(result.error), result.detail
    assert {name: value[:2] for name, value in shared.items()} == per_point
    assert all(value[2] for value in shared.values()), shared


def _count_everywhere(monkeypatch, original, key):
    """Wrap every package module's binding of the function `original`; the
    returned Counter counts its calls by key(*args)."""
    counts = collections.Counter()

    def counted(*args):
        counts[key(*args)] += 1
        return original(*args)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("ar1quad") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return counts


def test_each_quantity_is_evaluated_once_at_the_level_it_depends_on(monkeypatch):
    # on the default grid: the roots once per (theta, alpha) in each grid
    # check, the domain test's included (the exactness anchors check runs
    # the public transform at each x, which solves them itself); in the
    # matrix oracle and one-step checks the sequence terms once per
    # (theta, alpha, t) and one elimination per (theta, m, alpha, x)
    thetas, alphas, xs, ms = verify._grids(3)
    pairs = {(theta, complex(alpha)) for theta in thetas for alpha in alphas}
    in_domain = {(theta, alpha) for theta, alpha in pairs
                 if domain_check(ModelParams(theta, 0.0), TransformPoint(alpha))}
    for check, horizons, eliminations in ((verify.check_spectral_identities, 0, 0), (verify.check_wronskian, 0, 0),
                                          (verify.check_matrix_oracle, 3, len(ms) * len(xs)),
                                          (verify.check_one_step, 6, 0)):
        with monkeypatch.context() as patch:
            solved = _count_everywhere(patch, spectral._roots, lambda theta, alpha: (theta, alpha))
            sequences = _count_everywhere(patch, spectral._sequence_terms,
                                          lambda ops, theta, roots_tuple, t: (theta, roots_tuple, t))
            eliminated = _count_everywhere(patch, _eliminate,
                                           lambda params, alpha, x, t: (params.theta, params.m, alpha, x))
            assert check(3, 1e-10).passed
        name = check.__name__
        assert set(solved) == pairs and set(solved.values()) == {1}, (name, solved)
        assert len(sequences) == horizons * len(in_domain) and set(sequences.values()) <= {1}, (name, sequences)
        assert len(eliminated) == eliminations * len(in_domain) and set(eliminated.values()) <= {1}, (name, eliminated)
