import cmath
import collections
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ar1quad
from ar1quad import (
    ConvergenceError,
    DomainError,
    ModelParams,
    ParameterError,
    TransformPoint,
    domain_check,
    matrix_mgf,
    monte_carlo_mgf,
    roots,
    sigma_via_recursion,
    transform,
    unconditional_transform,
)
from ar1quad import closed_form, oracle, verify
from ar1quad.oracle import _eliminate, _read, _sigma

from mp_reference import log_transform_ref, tridiagonal_det_ref
from util import conditional_covariance, eliminate_every_step, gauss_hermite_nodes, log_mgf_at, rel_err


def test_matrix_horizon_zero_is_gaussian_factor():
    res = matrix_mgf(ModelParams(0.5), -0.8, 1.5, 0)
    assert res.value == math.exp(-0.8 * 1.5 * 1.5)
    assert res.method == "matrix"
    assert res.stderr is None and res.n_samples is None


def test_matrix_one_step_hand_value():
    # Sigma = [[1]], mu = [0]: det(1 + 1)^(-1/2) = 2^(-1/2)
    res = matrix_mgf(ModelParams(0.5, 0.0), -0.5, 0.0, 1)
    assert rel_err(res.value, 2**-0.5) < 1e-15
    assert abs(res.value - 0.7071068) < 1e-7


def test_matrix_matches_closed_form_at_reference_point():
    params = ModelParams(0.6, 1.0)
    closed = transform(params, TransformPoint(-0.2), 0.0, 10).value.real
    assert rel_err(closed, matrix_mgf(params, -0.2, 0.0, 10).value) < 1e-8


def test_matrix_has_no_horizon_cap():
    # the elimination evaluates past the t = 2000 budget of the old dense
    # factorization; stopped at its floating-point cycle, with the repeated
    # tail added exactly, it costs its transient (57 steps here), not t
    params = ModelParams(0.5, 1.0)
    for alpha, t in ((-1e-3, 2001), (-1e-4, 10**4)):
        closed = transform(params, TransformPoint(alpha), 0.3, t).value.real
        assert rel_err(matrix_mgf(params, alpha, 0.3, t).value, closed) <= 1e-12


def test_matrix_divergent_alpha_raises():
    with pytest.raises(ConvergenceError):
        matrix_mgf(ModelParams(0.6), 10.0, 0.0, 5)


def test_matrix_theta_sign_invariance():
    # with m = 0, x = 0 the quadratic form depends on theta only via theta^2
    for t in (1, 5, 30):
        plus = matrix_mgf(ModelParams(0.8, 0.0), -0.7, 0.0, t).value
        minus = matrix_mgf(ModelParams(-0.8, 0.0), -0.7, 0.0, t).value
        assert rel_err(plus, minus) < 1e-10


def _dense_conditional_mgf(params, alpha, x, t):
    # the identity through an LU log-determinant and a dense solve
    cov = conditional_covariance(params, t)
    mean = params.m + params.theta ** np.arange(1, t + 1) * (x - params.m)
    mat = np.eye(t) - 2.0 * alpha * cov
    sign, log_det = np.linalg.slogdet(mat)
    assert sign > 0
    return math.exp(alpha * x * x - 0.5 * log_det + alpha * mean @ np.linalg.solve(mat, mean))


def _divergence_point(params, t):
    # I - 2*alpha*Sigma is positive definite iff alpha < 1/(2*lambda_max(Sigma))
    return 0.5 / np.linalg.eigvalsh(conditional_covariance(params, t))[-1]


@pytest.mark.parametrize("t", [1, 50, 300, 500])
@pytest.mark.parametrize("theta, m, x", [(0.6, 1.0, 0.5), (-0.8, 1.5, -2.0), (0.95, -0.7, 3.0)])
def test_matrix_matches_dense_reference(theta, m, x, t):
    params = ModelParams(theta, m)
    # alpha < 0 with |alpha|*E[S_t] at most ~50, so exp's conditioning stays below 1e-12
    v = 1.0 / (1.0 - theta * theta)
    for alpha in (-1e-6, -min(0.3, 50.0 / ((t + 1) * (v + m * m))), 0.5 * _divergence_point(params, t)):
        value = matrix_mgf(params, alpha, x, t).value
        assert rel_err(value, _dense_conditional_mgf(params, alpha, x, t)) <= 1e-12, alpha


@pytest.mark.parametrize("t", [1, 50, 300, 500])
@pytest.mark.parametrize("theta", [0.6, -0.8, 0.95])
def test_matrix_at_the_divergence_point(theta, t):
    # a zero mean keeps the value finite as alpha nears the divergence point
    params = ModelParams(theta, 0.0)
    pole = _divergence_point(params, t)
    alpha = 0.999999 * pole
    mat = np.eye(t) - 2.0 * alpha * conditional_covariance(params, t)
    # the smallest eigenvalue of mat is ~1e-6 of its largest, so log det moves by
    # ~eps*cond(mat) ~ 2e-10 under one rounding per entry; the reference is the
    # exact value at these doubles theta and alpha (a dense LU of mat itself is
    # up to 1.2x eps*cond(mat) off it)
    tol = max(1e-12, 2.0 * np.finfo(float).eps * np.linalg.cond(mat))
    reference = float(tridiagonal_det_ref(theta, alpha, t) ** -0.5)
    assert rel_err(matrix_mgf(params, alpha, 0.0, t).value, reference) <= tol
    with pytest.raises(ConvergenceError):
        matrix_mgf(params, 1.000001 * pole, 0.0, t)
    with pytest.raises(ConvergenceError):
        matrix_mgf(ModelParams(theta, 1.5), 1.000001 * pole, 0.7, t)


def test_matrix_matches_the_high_precision_reference():
    # seeded draws up to t = 10^4 at real alpha < 0 with |alpha|*E[S_t] <= 600,
    # so that log L_t >= -600 (Jensen) and the value is a normal double
    rng = random.Random(20261019)
    for _ in range(120):
        theta, m, x = rng.uniform(-0.99, 0.99), rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0)
        t = int(10 ** rng.uniform(0.0, 4.0))
        mean_square = max(x * x, m * m) + 1.0 / (1.0 - theta * theta)
        alpha = -(10 ** rng.uniform(-12.0, 0.0)) * min(1.0, 600.0 / (x * x + t * mean_square))
        log_ref = log_transform_ref(theta, m, x, alpha, t).real
        log_value = math.log(matrix_mgf(ModelParams(theta, m), alpha, x, t).value)
        assert abs(log_value - log_ref) <= 1e-14 * max(1.0, abs(log_ref)), (theta, m, x, alpha, t)


def test_elimination_log_mgf_at_complex_alpha_matches_the_high_precision_reference():
    # _log_mgf, the log L_t that verify's matrix oracle check compares, at
    # complex alpha: seeded draws up to t = 10^4, about 30% of them with
    # Re alpha > 0 inside D, there at |Im alpha| >= 0.05.  Nearer the slit a
    # pivot near 0 costs the elimination digits the closed form keeps:
    # 1.9e-14 against 8.7e-17 at alpha = 0.496+0.0029i, t = 2.  The log det
    # sums principal logs of the pivots and the reference takes the closed
    # form's branch, so a gap of 2*pi*i fails here.
    rng = random.Random(20261020)
    draws, positive = 0, 0
    while draws < 150:
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
        m, x = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0)
        t = int(10 ** rng.uniform(0.0, 4.0))
        right = rng.random() < 0.3
        re = rng.uniform(0.0, 2.0) if right else -(10 ** rng.uniform(-3.0, 0.5))
        alpha = complex(re, rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1.3 if right else -3.0, 0.5))
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        if not domain_check(params, point):
            continue
        draws += 1
        positive += alpha.real > 0
        log_ref = log_transform_ref(theta, m, x, alpha, t)
        log_value = log_mgf_at(point.alpha, x, _read(point.alpha, _eliminate(params, point.alpha, x, t), t))
        assert abs(log_value - log_ref) <= 1e-14 * max(1.0, abs(log_ref)), (theta, m, x, alpha, t)
    assert positive >= 30


def _attempt(call) -> str:
    """repr(call()), or the type name of the error it raises."""
    try:
        return repr(call())
    except (ValueError, ArithmeticError) as exc:  # every error the package raises
        return type(exc).__name__


def _elimination_outputs(params, alpha, x, t) -> tuple:
    """_log_mgf, _sigma, matrix_mgf and sigma_via_recursion at one point,
    each as _attempt gives it, all through oracle._eliminate, so a patched
    one serves all four."""
    try:
        elimination = _read(alpha, oracle._eliminate(params, alpha, x, t), t)
    except (ValueError, ArithmeticError) as exc:
        outputs = [type(exc).__name__] * 2
    else:
        outputs = [_attempt(lambda: log_mgf_at(alpha, x, elimination)), _attempt(lambda: _sigma(x, elimination))]
    return (*outputs, _attempt(lambda: matrix_mgf(params, alpha, x, t)),
            _attempt(lambda: sigma_via_recursion(params, TransformPoint(alpha), x, t)))


def _period(elimination) -> int:
    """The length of the cycle _eliminate stopped on, 0 where it ran to t."""
    start = elimination[3]
    return 0 if start is None else len(elimination[1]) - start


def _stop_rule_cases():
    rng = random.Random(20261027)
    # the benchmark's matrix_mgf draws: t in [50, 500], real alpha < 0 keeping
    # |alpha|*E[S_t] <= 200
    for _ in range(1000):
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
        m, x, t = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0), 50 + rng.randrange(451)
        hi = min(1.0, 200.0 / ((t + 1) * (1.0 / (1.0 - theta * theta) + m * m)))
        yield ModelParams(theta, m), -math.exp(rng.uniform(math.log(min(1e-4, hi / 10.0)), math.log(hi))), x, t
    # verify's pools, complex alphas included (as verify passes them)
    thetas, alphas, xs, ms = verify._grids(5)
    for _ in range(1000):
        params, point = ModelParams(rng.choice(thetas), rng.choice(ms)), TransformPoint(rng.choice(alphas))
        yield params, point.alpha, rng.choice(xs), int(10 ** rng.uniform(0.0, 3.0))
    # the edges: signed zeros, a tiny and a huge alpha, the slit's lower edge
    # from both sides, complex alphas with +-0 parts; t = 777 is past the
    # transient at theta = 0.6, t = 10^4 at -0.95 too
    for theta, horizons in ((0.6, (0, 1, 2, 3, 7, 50, 777)), (-0.95, (0, 1, 2, 3, 7, 50, 777, 10**4))):
        slit = (1.0 - abs(theta)) ** 2 / 2.0
        for alpha in (0.0, -0.0, -1e-300, -1e10, math.nextafter(slit, 0.0), math.nextafter(slit, 1.0),
                      slit * (1.0 - 1e-9), slit * (1.0 + 1e-9), complex(0.0, 0.0), complex(-0.0, -0.0),
                      complex(-0.3, 0.0), complex(-0.3, -0.0), complex(0.0, 0.3), complex(-0.0, -0.3)):
            for m in (0.0, -0.0, 1e150):
                for x in (0.0, -0.0, 1e150):
                    for t in horizons:
                        yield ModelParams(theta, m), alpha, x, t


def test_elimination_stop_rule_keeps_every_bit(monkeypatch):
    # the elimination stops at the first state equal, bit for bit, to the
    # state it keeps every 16 steps and adds the repeated tail exactly:
    # log L_t, Sigma_t and matrix_mgf carry the bits, or raise the errors,
    # of the loop run to t (util.eliminate_every_step).  Most 2-cycles differ
    # in the last bit of z_s only, so a count moved between their terms
    # shifts quad by about an ulp of one term, which its one rounding mostly
    # absorbs: 3 of these points see it
    cases = list(_stop_rule_cases())
    got = [_elimination_outputs(*case) for case in cases]
    # the draws reach the tail, on cycles of period 1, 2 and longer
    periods = collections.Counter(_period(oracle._eliminate(*case)) for case in cases[:2000])
    assert periods[1] + periods[2] >= 1000 and periods[2] >= 100, periods
    assert sum(count for period, count in periods.items() if period > 2) >= 3, periods
    monkeypatch.setattr(oracle, "_eliminate", eliminate_every_step)
    want = [_elimination_outputs(*case) for case in cases]
    wrong = [(case, g, w) for case, g, w in zip(cases, got, want) if g != w]
    assert not wrong, (len(wrong), wrong[:3])


@pytest.mark.parametrize("params, alpha, x, t", [
    (ModelParams(0.6, 1.0), -0.3, 0.5, 200),  # a cycle of period 1 from step 48
    # period 2, a draw of the stop rule's test
    (ModelParams(-0.8776405047566277, -0.9340503240220381), -0.00421315120716049, -1.5498872659198915, 381),
    # period 9 from step 112, the case of the test below
    (ModelParams(-0.8969566705606153, 1.0), complex(-0.03952122095723014, 0.05810670083243488), 0.5, 400),
], ids=["period-1", "period-2", "period-9"])
def test_one_elimination_read_at_a_shorter_horizon_keeps_every_bit(params, alpha, x, t):
    # verify reads t = 1, 5 and 50 off one elimination run to 50: read at
    # any h in 2..t, before the loop's stop and past it, where the cycle's
    # repeats count up to h, a run to t gives the bits of a run to h, and
    # log L_h and Sigma_h those of the loop run to h with no stop.  At h = 1
    # the scale is |mu_1| alone, max(|mu_1|, |m|) from h = 2 on
    elimination = _eliminate(params, alpha, x, t)
    assert _period(elimination) and len(elimination[1]) + 2 * _period(elimination) < t
    for h in range(2, t + 1):
        reading = _read(alpha, elimination, h)
        assert repr(reading) == repr(_read(alpha, _eliminate(params, alpha, x, h), h)), h
        every_step = _read(alpha, eliminate_every_step(params, alpha, x, h), h)
        assert (repr((log_mgf_at(alpha, x, reading), _sigma(x, reading)))
                == repr((log_mgf_at(alpha, x, every_step), _sigma(x, every_step)))), h


@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.4)])
def test_elimination_steps_are_bounded_by_the_transient(alpha):
    # latency flat in t: at t = 10^6 the loop runs some 40 steps, and the
    # repeated tail counts the rest
    _, offsets, repeats, _ = _read(alpha, _eliminate(ModelParams(0.6, 1.0), alpha, 0.5, 10**6), 10**6)
    assert len(offsets) < 200
    assert len(offsets) + sum(repeats) == 10**6


@pytest.mark.parametrize("theta, alpha, x, steps", [(0.999, -1e-6, 1.0, (17489, 426113)),
                                                    (0.95, -1e-6, 1.0, (545, 14465)),
                                                    (-0.8, -1e-3, 2.0, (162, 3266))])
def test_elimination_transient_is_longest_at_a_zero_level(theta, alpha, x, steps):
    # the loop stops once z_s repeats: about 37/ln|lambda_+/theta| steps,
    # z_s settling on its last bit, at m = 1, and about 745/ln|lambda_+/theta|
    # at m = 0, where z_s decays through the subnormals to 0
    log_ratio = math.log(abs(roots(ModelParams(theta), TransformPoint(alpha)).lambda_plus / theta))
    runs = [len(_eliminate(ModelParams(theta, m), alpha, x, 10**6)[1]) for m in (1.0, 0.0)]
    assert tuple(runs) == steps
    assert 25.0 <= runs[0] * log_ratio <= 40.0
    assert 735.0 <= runs[1] * log_ratio <= 750.0


def test_elimination_stops_on_a_cycle_of_nine_steps():
    # this complex alpha's state settles on a cycle of period 9: a state kept
    # every 8 steps never recurs, and the loop ran all 10^5 steps
    params, alpha = ModelParams(-0.8969566705606153, 1.0), complex(-0.03952122095723014, 0.05810670083243488)
    _, offsets, repeats, _ = _read(alpha, _eliminate(params, alpha, 0.5, 10**5), 10**5)
    assert len(offsets) < 1000 and len(repeats) == 9
    assert len(offsets) + sum(repeats) == 10**5


def test_closed_form_matches_the_elimination_at_long_horizons():
    # the closed form against the root-free elimination at t = 10^4 and
    # 10^6, real and complex alpha: log L_t within 1e-12 of max(1, |log L_t|)
    # and Sigma_t within 1e-12 relative
    rng = random.Random(20261028)
    draws = 0
    while draws < 400:
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
        m, x = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0)
        alpha = -(10 ** rng.uniform(-3.0, 0.5))
        if draws % 2:
            alpha = complex(alpha, rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3.0, -0.3))
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        if not domain_check(params, point):
            continue
        draws += 1
        for t in (10**4, 10**6):
            closed = transform(params, point, x, t)
            elimination = _read(point.alpha, _eliminate(params, point.alpha, x, t), t)
            log_value, sigma = log_mgf_at(point.alpha, x, elimination), _sigma(x, elimination)
            assert abs(log_value - closed.log_value) <= 1e-12 * max(1.0, abs(closed.log_value)), (theta, m, x, alpha, t)
            assert abs(sigma - closed.sigma_t) <= 1e-12 * abs(closed.sigma_t), (theta, m, x, alpha, t)


def test_matrix_huge_level_gives_the_limits():
    # mu' (I - 2*alpha*Sigma)^(-1) mu ~ 1e400 overflows; the scaled mean does not
    params = ModelParams(0.6, 1e200)
    assert matrix_mgf(params, 0.0, 0.5, 10).value == 1.0
    assert matrix_mgf(params, -0.3, 0.5, 10).value == 0.0
    assert matrix_mgf(params, -1e-300, 0.5, 10).value == 0.0
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(params, 1e-300, 0.5, 10)


def test_matrix_overflowing_value_raises_parameter_error():
    # just inside the divergence point the true value exceeds the double range
    params = ModelParams(0.6, 1.5)
    alpha = 0.999 * _divergence_point(params, 20)
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(params, alpha, 0.7, 20)


@pytest.mark.parametrize("m, x", [(1e308, -1e308), (-1.5e308, 1e308)])
def test_matrix_overflowing_mean_raises_parameter_error(m, x):
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(ModelParams(0.6, m), -0.3, x, 3)


def test_matrix_terms_beyond_the_double_range():
    # -2*alpha = inf makes every pivot infinite: det B = inf and the value is 0,
    # not the NaN of inf/inf in the pivot update; +2*alpha = inf is past the pole
    params = ModelParams(0.6, 1.0)
    assert matrix_mgf(params, -1e308, 0.5, 5).value == 0.0
    with pytest.raises(ConvergenceError):
        matrix_mgf(params, 1e308, 0.5, 5)
    # alpha*x^2 and the quadratic form are finite, their sum is not: 0, not fsum's OverflowError
    assert matrix_mgf(ModelParams(0.6, 0.0), -1.0, 1.3e154, 1).value == 0.0
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(ModelParams(0.6, 0.0), 0.1, 1.3e154, 1)


def test_monte_carlo_deterministic_given_seed():
    params = ModelParams(0.6, 1.0)
    a = monte_carlo_mgf(params, -0.2, 0.0, 5, 10_000, seed=7)
    b = monte_carlo_mgf(params, -0.2, 0.0, 5, 10_000, seed=7)
    assert a == b
    assert a.method == "monte_carlo" and a.n_samples == 10_000


def _seed_20240901_estimate():
    # the point and seed the Monte Carlo check of `ar1quad verify` sampled
    # before that check became an exact one (verify.check_one_step)
    params = ModelParams(0.6, 1.0)
    estimate = monte_carlo_mgf(params, -0.2, 0.0, 10, 10**6, 20240901)
    return estimate, transform(params, TransformPoint(-0.2), 0.0, 10).value.real


def test_monte_carlo_standard_error_at_seed_20240901_is_below_5e_05():
    # conditioned on X_1 alone it reads 2.497e-05; conditioned on X_10 alone
    # it read 4.097e-05, the skeleton X_8, X_10 5.929e-05, the stride-4 one
    # 6.789e-05 and the stride-2 estimator 9.607e-05
    estimate, closed = _seed_20240901_estimate()
    assert estimate.stderr < 5e-05, estimate
    assert abs(closed - estimate.value) <= 4.0 * estimate.stderr, (closed, estimate)


def test_monte_carlo_tests_the_one_step_identity(monkeypatch):
    # the estimator takes log L_{t-1} from the closed form's quadratic in X_1:
    # a closed form that breaks L_t(x) = exp(alpha*x^2)*E[L_{t-1}(X_1)], here
    # with C scaled by 1.01 in the assembly, moves the standard score from
    # 0.70 to near 6
    assemble = closed_form._assemble

    def corrupted(theta, x, alpha, cf, *rest):
        return assemble(theta, x, alpha, (*cf[:3], 1.01 * cf[3]), *rest)

    monkeypatch.setattr(closed_form, "_assemble", corrupted)
    estimate, closed = _seed_20240901_estimate()
    assert abs(closed - estimate.value) / estimate.stderr > 4.0, (closed, estimate)


def one_step_coefficients(theta, m, alpha, x, t):
    """(floor, shift, c2), t >= 1: alpha*x^2 + log L_{t-1}(alpha, X_1) as
    floor + c2*(Z + shift)^2 in the one normal Z of X_1 = m + theta*(x - m) + Z,
    from the closed form's (g0, g1, c2) of log L_{t-1} about m in the oracle's
    own operations; None where every estimate is 0 (-2*alpha is inf)."""
    if -2.0 * alpha == math.inf:
        return None
    params = ModelParams(theta, m)
    g0, g1, c2 = (c.real for c in closed_form.quadratic_coefficients(params, TransformPoint(alpha), t - 1))
    vertex = 0.5 * g1 / c2 if c2 else 0.0
    shift = theta * (x - m) + vertex if c2 else 0.0
    return alpha * (x * x) + (g0 - 0.5 * g1 * vertex), shift, c2


def replay(theta, m, alpha, x, t, n, seed):
    """The seed contract, serially: path i draws Z_i, entry i of
    Generator(SFC64(seed)).standard_normal(n), and nothing else, and its estimate is
    exp(floor + c2*(Z_i + shift)^2) (one_step_coefficients).  The standard error is
    taken on the deviations over the largest estimate.  At t = 0 the one exact
    estimate, and where every estimate is 0 that 0, each with standard error 0."""
    if not t:
        return math.exp(alpha * (x * x)), 0.0
    coefficients = one_step_coefficients(theta, m, alpha, x, t)
    if coefficients is None:
        return 0.0, 0.0
    floor, shift, c2 = coefficients
    z = np.random.Generator(np.random.SFC64(seed)).standard_normal(n) + shift
    values = np.exp(c2 * (z * z) + floor)
    largest = float(values.max())
    mean = values.mean()
    if not largest:
        return float(mean), 0.0
    scaled_variance = np.sum(((values - mean) / largest) ** 2) / (n - 1)
    return float(mean), largest * math.sqrt(scaled_variance) / math.sqrt(n)


@pytest.mark.parametrize("t, n, seed", [(0, 2, 0), (1, 10, 5), (7, 1000, 42), (27, 20_000, 2**32 - 1),
                                        (4, 2**16, 3), (3, 2**16 + 1, 8), (3, 150_001, 9)])
@pytest.mark.parametrize("theta, m, alpha, x", [(0.6, 1.0, -0.2, 0.3), (-0.8, -1.5, -0.01, -2.0)])
def test_monte_carlo_replays_the_documented_loop(theta, m, alpha, x, t, n, seed):
    res = monte_carlo_mgf(ModelParams(theta, m), alpha, x, t, n, seed)
    assert (res.value, res.stderr) == replay(theta, m, alpha, x, t, n, seed)


@pytest.mark.parametrize("n", [1000, 150_001])
def test_monte_carlo_bits_do_not_depend_on_the_callers_error_state(n):
    # at alpha = -800 most estimates underflow to 0: a caller that raises on
    # every floating-point event gets the same bits as one that ignores them
    expected = replay(0.6, 1.0, -800.0, 0.4, 7, n, 3)
    with np.errstate(all="raise"):
        res = monte_carlo_mgf(ModelParams(0.6, 1.0), -800.0, 0.4, 7, n, 3)
    assert (res.value, res.stderr) == expected
    assert 0.0 < res.value < 1e-3


def test_monte_carlo_underflowing_standard_error_ignores_the_callers_error_state():
    # at alpha = -2500 the estimates are near 1e-187 and their squared
    # deviations underflow: a caller under all="raise" got FloatingPointError
    expected = replay(0.6, 1.0, -2500.0, 0.4, 7, 1000, 3)
    with np.errstate(all="raise"):
        res = monte_carlo_mgf(ModelParams(0.6, 1.0), -2500.0, 0.4, 7, 1000, 3)
    assert (res.value, res.stderr) == expected


def test_monte_carlo_standard_error_of_tiny_estimates_does_not_underflow():
    # the estimates near 1e-187 have a spread, and their standard error shows
    # it: the squared deviations, taken unscaled, underflowed to a stderr of 0
    params, alpha = ModelParams(0.6, 1.0), -2500.0
    res = monte_carlo_mgf(params, alpha, 0.4, 7, 1000, 3)
    exact = transform(params, TransformPoint(alpha), 0.4, 7).value.real
    assert res.stderr > 0.0
    assert abs(res.value - exact) <= 6.0 * res.stderr, (res, exact)


def failing_bit_generator(seed):
    raise MemoryError("no room for the draws")


def test_monte_carlo_worker_error_reaches_the_caller(monkeypatch):
    # the draws run in the calling thread: an exception there is the caller's
    monkeypatch.setattr(np.random, "SFC64", failing_bit_generator)
    with pytest.raises(MemoryError, match="no room for the draws"):
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.1, 0.4, 7, 150_001, 17)


def test_monte_carlo_calls_fault_in_almost_no_fresh_memory():
    # after one warm-up call, ten calls at n = 10^5 reuse the memory the
    # allocator kept from the one before: two n-long arrays a call faulted
    # about 3,600 minor pages in all in a fresh interpreter, and a fresh
    # 4 MB a call 6,900-7,700
    resource = pytest.importorskip("resource")  # not on Windows
    params = ModelParams(0.6, 1.0)
    monte_carlo_mgf(params, -0.1, 0.4, 8, 10**5, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for seed in range(1, 11):
        monte_carlo_mgf(params, -0.1, 0.4, 8, 10**5, seed)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


def test_monte_carlo_error_bar_holds_at_long_horizons(monkeypatch):
    # theta = 0.6, m = 1, x = 0, alpha = -0.2, n = 10^5: the plain and skeleton
    # estimators' relative variance grew exponentially in t, and the stride-8
    # skeleton's standard scores read -9.05 at t = 400 and down to -4.7e5 at
    # t = 1000 behind a confident error bar.  Conditioned on X_1 alone the
    # relative standard error stays that of t = 10, and the estimate covers L_t
    params, alpha, x, n = ModelParams(0.6, 1.0), -0.2, 0.0, 10**5
    for seed in range(3):
        near = monte_carlo_mgf(params, alpha, x, 10, n, seed)
        near_rel = near.stderr / transform(params, TransformPoint(alpha), x, 10).value.real
        for t in (400, 1000):
            exact = transform(params, TransformPoint(alpha), x, t).value.real
            res = monte_carlo_mgf(params, alpha, x, t, n, seed)
            assert abs(res.value - exact) <= 4.0 * res.stderr, (t, seed, res, exact)
            assert 0.5 <= (res.stderr / exact) / near_rel <= 2.0, (t, seed, res, exact)
    # t = 10^4 at alpha = -0.02, where L_t is near 1e-197 (at -0.2 it is e^-2677,
    # below the double range, and every estimate is 0)
    exact = transform(params, TransformPoint(-0.02), x, 10**4).value.real
    res = monte_carlo_mgf(params, -0.02, x, 10**4, n, 0)
    assert res.stderr > 0.0 and abs(res.value - exact) <= 4.0 * res.stderr, (res, exact)
    # t = 10^6 at alpha = -2e-4 (log L_t = -511.8): the quadratic in X_1 comes
    # from the closed form, and no elimination runs
    def no_elimination(*args):
        raise AssertionError(f"the Monte Carlo oracle ran an elimination: {args}")

    for name in ("_eliminate", "_log_det", "_log_mgf", "_sigma"):
        monkeypatch.setattr(oracle, name, no_elimination)
    t = 10**6
    exact = transform(params, TransformPoint(-2e-4), x, t).value.real
    res = monte_carlo_mgf(params, -2e-4, x, t, n, 0)
    assert res.stderr > 0.0 and abs(res.value - exact) <= 4.0 * res.stderr, (res, exact)


def test_monte_carlo_does_not_reach_the_elimination(monkeypatch):
    # the Monte Carlo oracle reads no elimination: a corrupted one moves the matrix
    # oracle and leaves every Monte Carlo bit where it was
    params, cases = ModelParams(0.6, 1.0), [(-0.2, 0.0, 10), (-0.05, 1.3, 3), (-1.5, -0.7, 40)]
    before = [(matrix_mgf(params, a, x, t), monte_carlo_mgf(params, a, x, t, 1000, 5)) for a, x, t in cases]

    def corrupted(*args):
        scale, offsets, quads, start = _eliminate(*args)
        return scale, offsets, [1.01 * q for q in quads], start

    monkeypatch.setattr(oracle, "_eliminate", corrupted)
    after = [(matrix_mgf(params, a, x, t), monte_carlo_mgf(params, a, x, t, 1000, 5)) for a, x, t in cases]
    for (matrix, mc), (matrix_now, mc_now) in zip(before, after):
        assert matrix_now.value != matrix.value
        assert (mc_now.value, mc_now.stderr) == (mc.value, mc.stderr)


@pytest.mark.parametrize("m, x", [(1e200, 0.5), (0.0, 1e200)])
@pytest.mark.parametrize("alpha", [0.0, -0.3])
def test_monte_carlo_overflowing_paths_raise_parameter_error(m, x, alpha):
    # a sampled S_t beyond the double range, as the closed form's constants are
    # there; at t = 1 the overflowing square is the last step's conditional mean
    for t in (1, 2, 5):
        with pytest.raises(ParameterError, match="overflow"):
            monte_carlo_mgf(ModelParams(0.6, m), alpha, x, t, 100, seed=1)


def test_monte_carlo_exact_cases():
    params = ModelParams(0.6, 1.0)
    for t in (1, 2, 8, 9):
        at_zero = monte_carlo_mgf(params, 0.0, 0.4, t, 1000, seed=1)
        assert at_zero.value == 1.0 and at_zero.stderr == 0.0
    no_noise = monte_carlo_mgf(params, -0.3, 0.4, 0, 1000, seed=1)
    assert no_noise.value == math.exp(-0.3 * 0.16) and no_noise.stderr == 0.0


@pytest.mark.parametrize("theta, m, x, alpha", [(0.6, 1.0, 0.4, -0.3), (-0.9, -2.0, 3.5, -0.05),
                                                (0.05, 1.7, -4.0, -1e-4), (0.95, 0.0, 0.0, -2.0)])
def test_monte_carlo_short_horizons_cover_the_exact_value(theta, m, x, alpha):
    # t = 1..3 draw X_1 and integrate the steps after it: 100 seeds at
    # n = 2000 each, whose standard scores centre on 0 and few pass 2
    params = ModelParams(theta, m)
    for t in (1, 2, 3):
        exact = transform(params, TransformPoint(alpha), x, t).value.real
        scores = []
        for seed in range(100):
            res = monte_carlo_mgf(params, alpha, x, t, 2000, seed)
            assert res.stderr > 0.0
            scores.append((res.value - exact) / res.stderr)
        assert abs(sum(scores) / len(scores)) <= 0.3, t
        assert sum(abs(z) > 2.0 for z in scores) <= 0.1 * len(scores), t


@pytest.mark.parametrize("t", [0])
def test_monte_carlo_without_draws_returns_the_one_estimate(t):
    # only t = 0 draws nothing: every path's estimate is exp(alpha*x^2), with
    # standard error 0, whatever n and the seed
    params = ModelParams(0.6, 1.0)
    results = [monte_carlo_mgf(params, -0.3, 0.4, t, n, seed) for n, seed in ((1000, 1), (2, 5), (4097, 9))]
    assert [r.stderr for r in results] == [0.0, 0.0, 0.0]
    assert len({r.value for r in results}) == 1
    exact = transform(params, TransformPoint(-0.3), 0.4, t).value.real
    assert rel_err(results[0].value, exact) <= 4.5e-16


@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("alpha", [-1e300, -1e308])
def test_monte_carlo_huge_negative_alpha_gives_zero(alpha, t):
    # -2*alpha overflows at -1e308, and every estimate is 0; at -1e300 the
    # closed form's quadratic in X_1 puts every exponent near -1e299: 0, not NaN
    res = monte_carlo_mgf(ModelParams(0.6, 1.0), alpha, 0.4, t, 1000, seed=1)
    assert res.value == 0.0 and res.stderr == 0.0
    # x - m = -inf: x^2 and X_1^2 are inf, raised as an overflow before the
    # zero of a huge -2*alpha, with no RuntimeWarning
    with pytest.raises(ParameterError, match="overflow"):
        monte_carlo_mgf(ModelParams(0.6, 1e308), alpha, -1e308, t, 1000, seed=1)


@pytest.mark.parametrize("seed", [None, 1.5, "7", -1])
def test_monte_carlo_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(seed):
    # no silent OS entropy for None: the typed ValueError and message run_all gives
    message = f"must be >= 0, got {seed}" if isinstance(seed, int) else f"must be an integer, got {seed!r}"
    with pytest.raises(ValueError) as exc:
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.2, 0.0, 3, 100, seed)
    assert str(exc.value) == "Monte Carlo seed " + message


def _oracles_like_draws(seed, count):
    # the benchmark's Monte Carlo draws: |alpha|*E[S_t] <= 5, log-uniform alpha
    rng = random.Random(seed)
    for _ in range(count):
        theta = rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)
        m, x, t = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0), rng.randint(2, 50)
        hi = min(1.0, 5.0 / ((t + 1) * (1.0 / (1.0 - theta * theta) + m * m)))
        alpha = -(10 ** rng.uniform(math.log10(min(1e-4, hi / 10)), math.log10(hi)))
        yield theta, m, alpha, x, t, rng.randrange(2**32)


def _gaussian_log_moment(g0, g1, c2, mean, var):
    """G = log E[exp(g0 + g1*Y + c2*Y^2)] for Y ~ N(mean, var), 1 - 2*c2*var > 0."""
    q = 1.0 - 2.0 * c2 * var
    return g0 - 0.5 * math.log(q) + (c2 * mean * mean + g1 * mean + 0.5 * g1 * g1 * var) / q


def test_monte_carlo_conditioning_keeps_the_precision():
    # on 24 draws like the benchmark's, n = 10^5, with log L_{t-1}(y) =
    # g0 + g1*(y - m) + c2*(y - m)^2 from the closed form and X_1 - m ~
    # N(theta*(x - m), 1): the first moment of a path's estimate is L_t (the
    # one-step identity), its exact second moment is
    # 2*alpha*x^2 + G(2*g0, 2*g1, 2*c2), the relative variance is below the
    # plain one's L_t(2*alpha)/L_t(alpha)^2 - 1, and the sampled standard
    # error matches it
    n = 10**5
    for theta, m, alpha, x, t, seed in _oracles_like_draws(20261019, 24):
        params, point, case = ModelParams(theta, m), TransformPoint(alpha), (theta, m, alpha, x, t)
        res = monte_carlo_mgf(params, alpha, x, t, n, seed)
        log_l = transform(params, point, x, t).log_value.real
        plain_rel_var = math.expm1(transform(params, TransformPoint(2.0 * alpha), x, t).log_value.real - 2.0 * log_l)
        g0, g1, c2 = (c.real for c in closed_form.quadratic_coefficients(params, point, t - 1))
        mean = theta * (x - m)
        first = alpha * x * x + _gaussian_log_moment(g0, g1, c2, mean, 1.0)
        assert abs(first - log_l) <= 1e-12 * max(1.0, abs(log_l)), case
        moment = 2.0 * alpha * x * x + _gaussian_log_moment(2.0 * g0, 2.0 * g1, 2.0 * c2, mean, 1.0)
        rel_var = math.expm1(moment - 2.0 * log_l)
        assert 0.0 < rel_var < plain_rel_var, case
        assert abs(res.stderr / (math.exp(log_l) * math.sqrt(rel_var / n)) - 1.0) <= 0.05, case


@pytest.mark.parametrize("t", [7, 8, 9, 16])
def test_monte_carlo_standard_scores_cover_the_exact_value(t):
    # 200 seeds at n = 2000: the standard scores centre on 0 and few pass 2;
    # each t draws X_1 alone, and the t - 1 steps after it are integrated out
    params, alpha, x = ModelParams(-0.7, 1.5), -0.15, -0.5
    exact = transform(params, TransformPoint(alpha), x, t).value.real
    scores = []
    for seed in range(200):
        res = monte_carlo_mgf(params, alpha, x, t, 2000, seed)
        scores.append((res.value - exact) / res.stderr)
    assert abs(sum(scores) / len(scores)) <= 0.3
    assert sum(abs(z) > 2.0 for z in scores) <= 0.08 * len(scores)


def test_monte_carlo_agrees_with_closed_form():
    params = ModelParams(0.6, 1.0)
    est = monte_carlo_mgf(params, -0.2, 0.0, 10, 200_000, seed=321)
    closed = transform(params, TransformPoint(-0.2), 0.0, 10).value.real
    assert abs(closed - est.value) <= 4.0 * est.stderr


def test_monte_carlo_stderr_scales_as_inverse_sqrt():
    params = ModelParams(0.6, 1.0)
    small = monte_carlo_mgf(params, -0.2, 0.0, 5, 50_000, seed=11)
    large = monte_carlo_mgf(params, -0.2, 0.0, 5, 200_000, seed=12)
    ratio = small.stderr / large.stderr
    assert abs(ratio - 2.0) <= 0.4  # halving within 20%


def test_monte_carlo_validation():
    params = ModelParams(0.6)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, 0.1, 0.0, 5, 100, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, -0.1, 0.0, 5, 1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, -0.1, 0.0, -1, 100, seed=0)


def test_gauss_hermite_nodes_integrate_moments():
    nodes, weights = gauss_hermite_nodes(1.5, 2.0, 32)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs((weights * nodes).sum() - 1.5) < 1e-13
    assert abs((weights * (nodes - 1.5) ** 2).sum() - 2.0) < 1e-12


def test_unconditional_at_alpha_zero_is_one():
    value = unconditional_transform(ModelParams(0.5, 1.0), TransformPoint(0.0), 4)
    assert abs(value - 1.0) < 1e-14


def test_unconditional_horizon_zero_closed_gaussian_integral():
    # E[exp(alpha X_0^2)] for X_0 ~ N(0, 1/(1-theta^2)) is a scaled chi-square MGF
    theta, alpha = 0.5, -0.4
    var = 1.0 / (1.0 - theta * theta)
    value = unconditional_transform(ModelParams(theta, 0.0), TransformPoint(alpha), 0)
    assert rel_err(value, (1.0 - 2.0 * alpha * var) ** -0.5) < 1e-12


def test_unconditional_rejects_low_order_and_bad_domain():
    params = ModelParams(0.5, 1.0)
    with pytest.raises(DomainError):
        unconditional_transform(params, TransformPoint(0.9), 5)


@pytest.mark.parametrize(
    "theta, m, alpha, t",
    [(0.6, 1.0, -0.3, 100), (0.6, 1.0, complex(-0.3, 0.2), 100), (-0.8, 1.5, -2.0, 100), (0.95, -1.2, -0.01, 2000)],
)
def test_unconditional_matches_high_order_gauss_hermite(theta, m, alpha, t):
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    nodes, weights = gauss_hermite_nodes(m, 1.0 / (1.0 - theta * theta), 256)
    reference = sum(w * transform(params, point, float(xi), t).value for xi, w in zip(nodes, weights))
    assert rel_err(unconditional_transform(params, point, t), reference) <= 1e-12


def _dense_stationary_mgf(theta, m, alpha, t):
    # (X_0..X_t) ~ N(m*1, theta^|s-u| / (1-theta^2)); S_t is its squared norm
    idx = np.arange(t + 1)
    cov = theta ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - theta * theta)
    mean = np.full(t + 1, m)
    mat = np.eye(t + 1) - 2.0 * alpha * cov
    sign, log_det = np.linalg.slogdet(mat)
    assert sign > 0
    return math.exp(-0.5 * log_det + alpha * mean @ np.linalg.solve(mat, mean))


@pytest.mark.parametrize("t", [1, 5, 50])
@pytest.mark.parametrize("theta, m, alpha", [(0.6, 1.0, -0.3), (-0.8, 1.5, -2.0), (0.3, -0.7, 0.1)])
def test_unconditional_matches_dense_stationary_form(theta, m, alpha, t):
    value = unconditional_transform(ModelParams(theta, m), TransformPoint(alpha), t)
    assert rel_err(value, _dense_stationary_mgf(theta, m, alpha, t)) <= 1e-10


def test_unconditional_transform_keeps_its_inline_formula_bits():
    # the start-law integral goes through closed_form._gaussian_step at mean 0;
    # its term order returns the bits of the formula it replaced, written out here
    rng = random.Random(20240902)
    compared = 0
    while compared < 10_000:
        theta = rng.uniform(-0.99, 0.99)
        m = rng.choice([0.0, rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-5.0, 5.0)])
        scale = 10 ** rng.uniform(-12.0, 1.0)
        alpha = complex(-scale, rng.choice([0.0, rng.uniform(-1.0, 1.0) * scale]))
        t = rng.choice([0, 1, 5, 50, 1000, 10**6, rng.randrange(10**6)])
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        try:
            g0, g1, c2 = closed_form.quadratic_coefficients(params, point, t)
        except (DomainError, ParameterError):
            continue
        v = 1.0 / (1.0 - theta * theta)
        q = 1.0 - 2.0 * c2 * v
        if q.real <= 0.0:
            continue
        log_value = g0 + g1 * g1 * v / (2.0 * q) - 0.5 * cmath.log(q)
        assert repr(closed_form._gaussian_step(g0, g1, c2, 0.0, v)) == repr(log_value), (theta, m, alpha, t)
        try:
            expected = repr(0j if log_value.real < closed_form._LOG_MIN else cmath.exp(log_value))
        except OverflowError:
            with pytest.raises(ParameterError, match="overflows"):
                unconditional_transform(params, point, t)
        else:
            assert repr(unconditional_transform(params, point, t)) == expected, (theta, m, alpha, t)
        compared += 1


def test_unconditional_divergent_integral_raises():
    # alpha lies inside D, but the start-law integral of L_t diverges
    params, point = ModelParams(0.5, 1.0), TransformPoint(complex(2.0, 0.5))
    assert domain_check(params, point)
    with pytest.raises(ConvergenceError):
        unconditional_transform(params, point, 10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_start(x):
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError):
        matrix_mgf(params, -0.3, x, 10)
    with pytest.raises(ParameterError):
        monte_carlo_mgf(params, -0.3, x, 10, 100, seed=1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_alpha(alpha):
    # loud, not a NaN value or an out-of-domain verdict
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        matrix_mgf(params, alpha, 0.5, 10)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        monte_carlo_mgf(params, alpha, 0.5, 10, 100, seed=1)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        unconditional_transform(params, TransformPoint(alpha), 10)


@pytest.mark.parametrize("n", [1e5, 100.0, "100", None, -1, 0, 1])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_integer_of_at_least_two(n):
    # a typed ValueError, with the message run_all gives for the same count
    message = f"must be >= 2, got {n}" if isinstance(n, int) else f"must be an integer, got {n!r}"
    with pytest.raises(ValueError) as exc:
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.2, 0.0, 3, n, 1)
    assert str(exc.value) == "Monte Carlo sample count " + message


def test_monte_carlo_takes_an_index_sample_count():
    params = ModelParams(0.6, 1.0)
    assert monte_carlo_mgf(params, -0.2, 0.0, 3, np.int64(1000), 1) == monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, 1)
    # and an index seed, which the seed check takes as its int
    assert monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, np.uint32(7)) == monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, 7)


@pytest.mark.parametrize("alpha", [complex(-0.3, 0.0), TransformPoint(-0.3).alpha, np.complex128(-0.3)])
def test_oracles_take_a_complex_alpha_on_the_real_axis_as_its_real_part(alpha):
    # TransformPoint.alpha is always complex: a real alpha in that type is the real value
    params = ModelParams(0.6, 1.0)
    assert matrix_mgf(params, alpha, 0.5, 10) == matrix_mgf(params, -0.3, 0.5, 10)
    assert monte_carlo_mgf(params, alpha, 0.5, 10, 100, 1) == monte_carlo_mgf(params, -0.3, 0.5, 10, 100, 1)


@pytest.mark.parametrize("alpha", [complex(-0.3, 0.2), complex(-0.3, -1e-300), complex(0.0, 1.0)])
def test_oracles_reject_a_complex_alpha_off_the_real_axis(alpha):
    # a complex determinant would bring back the branch ambiguity the oracles arbitrate
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError, match="real alpha only"):
        matrix_mgf(params, alpha, 0.5, 10)
    with pytest.raises(ParameterError, match="real alpha only"):
        monte_carlo_mgf(params, alpha, 0.5, 10, 100, 1)


@pytest.mark.parametrize("m", [1e200, -1e200])
def test_unconditional_rejects_overflowing_constants(m):
    with pytest.raises(ParameterError, match="overflow"):
        unconditional_transform(ModelParams(0.6, m), TransformPoint(-0.3), 10)


def test_unconditional_beyond_the_double_range_raises():
    # a small positive alpha inside D: the value grows like exp(t*Lambda),
    # past the largest double before t = 10^5, where it must raise, not be inf
    params, point = ModelParams(0.6, 1.0), TransformPoint(0.05)
    assert rel_err(unconditional_transform(params, point, 1000), 2.481109964153374e100) <= 1e-12
    with pytest.raises(ParameterError, match=r"E\[exp\(alpha\*S_t\)\] overflows at m=1.0, alpha=\(0.05\+0j\), t=100000"):
        unconditional_transform(params, point, 100000)


@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.4), complex(-1.0, -0.25)])
def test_unconditional_below_the_double_range_is_exactly_zero(alpha):
    # exp of the complex logs would give -0j and -0-0j: the value is 0, unsigned
    assert repr(unconditional_transform(ModelParams(0.6, 1.0), TransformPoint(alpha), 10**6)) == "0j"


def test_import_does_not_load_scipy():
    # a fresh interpreter that finds the same ar1quad as this one
    src = os.path.dirname(os.path.dirname(ar1quad.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ar1quad; assert 'scipy' not in sys.modules, 'import ar1quad loaded scipy'"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_unconditional_matches_stationary_start_monte_carlo():
    theta, m, alpha, t, n = 0.5, 1.0, -0.3, 5, 400_000
    params = ModelParams(theta, m)
    quad = unconditional_transform(params, TransformPoint(alpha), t).real
    rng = np.random.default_rng(777)
    start = m + rng.standard_normal(n) * math.sqrt(1.0 / (1.0 - theta * theta))
    total = start * start
    dev = start - m
    for _ in range(t):
        dev = theta * dev + rng.standard_normal(n)
        total += (dev + m) ** 2
    values = np.exp(alpha * total)
    stderr = values.std(ddof=1) / math.sqrt(n)
    assert abs(quad - values.mean()) <= 4.0 * stderr



@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(theta=st.floats(1e-6, 0.999), sign=st.sampled_from([1.0, -1.0]),
       log_gap=st.floats(math.log(1e-12), math.log(10.0)),
       im=st.one_of(st.just(0.0), st.floats(math.log(1e-9), math.log(10.0)).map(math.exp)),
       im_sign=st.sampled_from([1.0, -1.0]), m=st.floats(-2.0, 2.0), x=st.floats(-4.0, 4.0))
def test_every_pivot_keeps_a_positive_real_part_on_the_half_plane(theta, sign, log_gap, im, im_sign, m, x):
    # the half-plane bound of the oracle docstring: on Re alpha = a < (1-|theta|)^2/2
    # every pivot has Re d_s >= min(1 - 2a, lambda_+(a)) > 0, so no principal log of a
    # pivot crosses its cut and log det B is one continuous branch; a from 1e-12 below
    # the edge down to 10 below it, complex alpha included, up to the rounding of a pivot
    a = 0.5 * (1.0 - theta) ** 2 - math.exp(log_gap)
    alpha = complex(a, im_sign * im)
    c = 1.0 + theta * theta - 2.0 * a  # lambda_+(a) + lambda_-(a), > 2*theta on the half-plane
    lam_plus = 0.5 * (c + math.sqrt(max(0.0, (c - 2.0 * theta) * (c + 2.0 * theta))))
    bound = min(1.0 - 2.0 * a, lam_plus)
    assert bound > theta  # 1 - 2a > 1 - (1-theta)^2 >= theta and lambda_+ > theta
    offsets = _eliminate(ModelParams(sign * theta, m), alpha, x, 200)[1]
    slack = 8.0 * sys.float_info.epsilon * (1.0 + theta * theta + 2.0 * abs(alpha))
    assert min((1.0 + u).real for u in offsets) >= bound - slack, (alpha, bound)
