import cmath
import contextlib
import dataclasses
import io
import json
import math
import random

import numpy as np
import pytest

from ar1quad import (
    DomainBoundaryError,
    DomainError,
    ModelParams,
    ParameterError,
    SingularConstantError,
    TransformPoint,
    conditional_mean,
    constants,
    domain_check,
    ergodic_constants,
    fit_convergence_rate,
    matrix_mgf,
    monte_carlo_mgf,
    normalized_transform,
    roots,
    sequence_ratios,
    sigma_via_recursion,
    transform,
    unconditional_transform,
)
from ar1quad import closed_form
from ar1quad.oracle import _eliminate, _read
from ar1quad.cli import main
from ar1quad.spectral import SpectralData, raw_psi

from mp_reference import growth_rate_ref, log_transform_ref
from util import alpha_grid_in_domain, conditional_covariance, count_calls, gauss_hermite_nodes, log_mgf_at, rel_err


def test_constants_vanish_at_zero_mean():
    cf = constants(ModelParams(0.7, 0.0), TransformPoint(-0.4), 1.3)
    assert cf.nu == 0 and cf.A == 0 and cf.C == 0
    assert rel_err(cf.B, 0.7 * 1.3 * 1.3 / 0.8) < 1e-15


def test_constants_hand_example():
    cf = constants(ModelParams(0.5, 1.0), TransformPoint(-0.5), 0.0)
    assert rel_err(cf.nu, 0.4) < 1e-15
    assert rel_err(cf.A, 0.2) < 1e-15


def test_constants_centred_start_kills_c():
    # x = (1-theta)*nu makes the centred start vanish, so C = 0, B = -theta*nu^2
    cf = constants(ModelParams(0.5, 1.0), TransformPoint(-0.5), 0.2)
    assert cf.C == 0
    assert rel_err(cf.B, -0.5 * 0.4 * 0.4) < 1e-14


def test_transform_value_keeps_the_dataclass_contract():
    tv = closed_form.TransformValue(complex(-1.5), complex(0.25), complex(2.0))
    assert [f.name for f in dataclasses.fields(closed_form.TransformValue)] == ["log_value", "value", "sigma_t",
                                                                                "overflow"]
    assert tv.overflow is False
    assert repr(tv) == "TransformValue(log_value=(-1.5+0j), value=(0.25+0j), sigma_t=(2+0j), overflow=False)"
    same = closed_form.TransformValue(log_value=complex(-1.5), value=complex(0.25), sigma_t=complex(2.0), overflow=False)
    assert tv == same and hash(tv) == hash(same)
    assert tv != dataclasses.replace(tv, overflow=True)
    assert dataclasses.replace(tv, value=0j) == closed_form.TransformValue(complex(-1.5), 0j, complex(2.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tv.value = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tv.overflow = True
    # transform returns the record its fields describe
    out = transform(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5, 10)
    assert out == closed_form.TransformValue(out.log_value, cmath.exp(out.log_value), out.sigma_t)


def test_ergodic_constants_keep_the_dataclass_contract():
    ec = closed_form.ErgodicConstants(complex(-0.5), complex(0.9), 0.3)
    assert [f.name for f in dataclasses.fields(closed_form.ErgodicConstants)] == ["lambda_of_alpha", "f_check",
                                                                                  "rate"]
    assert repr(ec) == "ErgodicConstants(lambda_of_alpha=(-0.5+0j), f_check=(0.9+0j), rate=0.3)"
    same = closed_form.ErgodicConstants(lambda_of_alpha=complex(-0.5), f_check=complex(0.9), rate=0.3)
    assert ec == same and hash(ec) == hash(same)
    assert dataclasses.replace(ec, rate=0.5) == closed_form.ErgodicConstants(complex(-0.5), complex(0.9), 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ec.rate = 0.5
    out = ergodic_constants(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5)
    assert out == closed_form.ErgodicConstants(out.lambda_of_alpha, out.f_check, out.rate)


def test_constants_singular_at_alpha_zero():
    with pytest.raises(SingularConstantError):
        constants(ModelParams(0.5, 1.0), TransformPoint(0.0), 0.3)


@pytest.mark.parametrize("alpha", [-0.5, -2.0, complex(-0.3, 0.4)])
@pytest.mark.parametrize("x", [0.0, -1.0, 2.0])
def test_transform_at_horizon_zero_is_gaussian_factor(alpha, x):
    tv = transform(ModelParams(0.6, 1.5), TransformPoint(alpha), x, 0)
    assert rel_err(tv.value, cmath.exp(alpha * x * x)) < 1e-15
    assert tv.sigma_t == x * x


def test_transform_at_alpha_zero_is_exactly_one():
    params, point = ModelParams(0.5, 0.0), TransformPoint(0.0)
    tv = transform(params, point, 1.0, 7)
    assert tv.value == 1.0
    assert tv.log_value == 0.0
    # Sigma_t is finite at alpha = 0: the evaluation carries mu*B, not B
    assert rel_err(tv.sigma_t, sigma_via_recursion(params, point, 1.0, 7)) <= 1e-13
    assert not tv.overflow


def test_transform_rejects_alpha_outside_domain():
    with pytest.raises(DomainError):
        transform(ModelParams(0.5), TransformPoint(0.2), 0.0, 5)


def test_transform_rejects_negative_horizon():
    with pytest.raises(ValueError):
        transform(ModelParams(0.5), TransformPoint(-0.5), 0.0, -1)


def _horizon_callers(t):
    """Every public function that takes a horizon t, as zero-argument calls."""
    params, point = ModelParams(0.6, 1.0), TransformPoint(-0.3)
    return {
        "transform": lambda: transform(params, point, 0.5, t),
        "normalized_transform": lambda: normalized_transform(params, point, 0.5, t),
        "quadratic_coefficients": lambda: closed_form.quadratic_coefficients(params, point, t),
        "fit_convergence_rate": lambda: fit_convergence_rate(params, point, 0.5, t_start=t),
        "unconditional_transform": lambda: unconditional_transform(params, point, t),
        "sequence_ratios": lambda: sequence_ratios(roots(params, point), params, t),
        "sigma_via_recursion": lambda: sigma_via_recursion(params, point, 0.5, t),
        "matrix_mgf": lambda: matrix_mgf(params, -0.3, 0.5, t),
        "monte_carlo_mgf": lambda: monte_carlo_mgf(params, -0.3, 0.5, t, 100, 0),
        "conditional_covariance": lambda: conditional_covariance(params, t),
    }


@pytest.mark.parametrize("t", [10.5, 10.0, "10", None])
def test_non_integer_horizon_raises_value_error(t):
    # a horizon of 10.5 has no transform: no function evaluates there, and
    # none raises a bare TypeError
    for name, call in _horizon_callers(t).items():
        with pytest.raises(ValueError, match="horizon t must be an integer"):
            call()
            pytest.fail(f"{name} accepted the horizon {t!r}")


def test_an_integer_beyond_the_double_range_is_a_bad_horizon():
    # at t = 10^400 transform, normalized_transform, sigma_via_recursion,
    # unconditional_transform, monte_carlo_mgf and matrix_mgf raised a bare
    # OverflowError (int too large to convert to float, or math range error)
    for t in (10**400, 2**1024):
        for name, call in _horizon_callers(t).items():
            with pytest.raises(ValueError, match=r"^horizon t must be at most 1\.7976931348623157e\+308, got an"):
                call()
                pytest.fail(f"{name} accepted the horizon {t!r}")


def test_index_horizon_gives_the_int_result():
    # any operator.index value is a horizon, with the result of the int
    for name, call in _horizon_callers(np.int64(10)).items():
        assert repr(call()) == repr(_horizon_callers(10)[name]()), name


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("alpha", [0.0, -0.3, complex(-0.3, 0.2), 0.9])  # 0.9 is outside D
def test_non_finite_start_raises_parameter_error(x, alpha):
    params, point = ModelParams(0.6, 1.0), TransformPoint(alpha)
    with pytest.raises(ParameterError):
        transform(params, point, x, 10)
    with pytest.raises(ParameterError):
        normalized_transform(params, point, x, 10)
    with pytest.raises(ParameterError):
        ergodic_constants(params, point, x)
    with pytest.raises(ParameterError):
        constants(params, point, x)
    with pytest.raises(ParameterError):
        sigma_via_recursion(params, point, x, 10)


@pytest.mark.parametrize("x", [0.5j, complex(0.5, 0.0), np.complex128(0.5 + 0.1j)])
def test_complex_start_raises_parameter_error(x):
    # math.isfinite raised a bare TypeError here (and took a numpy complex
    # by its real part, with a warning)
    params, point = ModelParams(0.6, 1.0), TransformPoint(-0.3)
    calls = {
        "transform": lambda: transform(params, point, x, 10),
        "normalized_transform": lambda: normalized_transform(params, point, x, 10),
        "ergodic_constants": lambda: ergodic_constants(params, point, x),
        "constants": lambda: constants(params, point, x),
        "fit_convergence_rate": lambda: fit_convergence_rate(params, point, x),
        "conditional_mean": lambda: conditional_mean(params, x, 3),
        "sigma_via_recursion": lambda: sigma_via_recursion(params, point, x, 10),
        "matrix_mgf": lambda: matrix_mgf(params, -0.3, x, 10),
        "monte_carlo_mgf": lambda: monte_carlo_mgf(params, -0.3, x, 10, 100, 0),
    }
    for name, call in calls.items():
        with pytest.raises(ParameterError, match=r"^x must be real, got "):
            call()
            pytest.fail(f"{name} accepted the start {x!r}")


@pytest.mark.parametrize("m, x, alpha", [(1e200, 0.5, -0.3), (1.0, 1e200, -0.3),
                                         (1e150, 0.5, -1e-300), (-1e200, 0.5, complex(-0.3, 0.2))])
def test_overflowing_constants_raise_parameter_error(m, x, alpha):
    # m*nu or centred^2 leaves the double range: A, mu*B, C would be inf or NaN
    params, point = ModelParams(0.6, m), TransformPoint(alpha)
    with pytest.raises(ParameterError, match="overflow"):
        constants(params, point, x)
    if alpha == -1e-300:
        # only the public B = (mu*B)/mu ~ 1e599 overflows there; the evaluation never forms it
        log_value = transform(params, point, x, 10).log_value
        assert rel_err(log_value, log_transform_ref(0.6, m, x, alpha, 10)) <= 1e-13
        assert cmath.isfinite(normalized_transform(params, point, x, 10))
        assert cmath.isfinite(ergodic_constants(params, point, x).f_check)
        assert 0 < fit_convergence_rate(params, point, x).ratio < 1
        return
    with pytest.raises(ParameterError, match="overflow"):
        transform(params, point, x, 10)
    with pytest.raises(ParameterError, match="overflow"):
        normalized_transform(params, point, x, 10)
    with pytest.raises(ParameterError, match="overflow"):
        ergodic_constants(params, point, x)
    with pytest.raises(ParameterError, match="overflow"):
        fit_convergence_rate(params, point, x)


@pytest.mark.parametrize("theta, m, raises", [(0.999999, 3e150, False), (0.999999, 9e150, False),
                                              (0.999999, 1e151, True), (0.999999, 1e153, True),
                                              (0.6, 5e153, False), (0.6, 7e153, True)])
def test_constants_overflow_near_m_9_5e153_times_sqrt_one_minus_theta(theta, m, raises):
    # at alpha = 0, nu = m/(1-theta) and C = 2*m*(x - m)/(1-theta): C leaves the
    # double range near |m| = 9.5e153*sqrt(1-theta), far below the 1e154 once
    # documented as theta nears 1 (9.5e150 at theta = 0.999999)
    # (at theta = 0.6, A*t = m^2*t overflows log L_t from t = 8)
    params, point, t = ModelParams(theta, m), TransformPoint(0.0), 999 if theta > 0.9 else 1
    if raises:
        with pytest.raises(ParameterError, match="closed-form constants overflow"):
            transform(params, point, 0.4, t)
    else:
        assert transform(params, point, 0.4, t).value == 1.0


@pytest.mark.parametrize("g0, g1, c2, mean, var", [
    (0.1, 0.4, -0.3, 0.7, 1.3),
    (0.0, -1.2, 0.2, -0.5, 1.0),
    (0.1 + 0.05j, 0.4 - 0.3j, -0.3 + 0.2j, 0.7, 1.3),
    (-2.0, 0.5 + 0.5j, -1.5 - 0.7j, 1.1, 0.4),
])
def test_gaussian_step_matches_gauss_hermite(g0, g1, c2, mean, var):
    # log E[exp(g0 + g1*Y + c2*Y^2)], Y ~ N(mean, var): the closed Gaussian
    # expectation behind the one-step identity and the start-law integral
    nodes, weights = gauss_hermite_nodes(mean, var, 80)
    reference = cmath.log(complex(np.sum(weights * np.exp(g0 + g1 * nodes + c2 * nodes * nodes))))
    assert abs(closed_form._gaussian_step(g0, g1, c2, mean, var) - reference) <= 1e-15


@pytest.mark.parametrize("theta, m, alpha", [(0.5, 0.0, 0.125), (0.5, 1.0, 0.125), (0.5, 1e200, 0.125),
                                             (0.6, 1e200, 0.3), (0.6, 1e200, 0.9)])
def test_alpha_outside_domain_is_tested_before_the_constants(theta, m, alpha):
    # D excludes the real segment [(1-theta)^2/2, (1+theta)^2/2], where the roots have
    # equal moduli; at its left end mu + (1-theta)^2 == 0 is also the pole of nu.  The
    # domain is tested before the constants, so neither that division by zero nor the
    # overflowing constants at m = 1e200 are reported (a non-finite x is, before the
    # domain: test_non_finite_start_raises_parameter_error)
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    calls = [lambda: transform(params, point, 0.5, 10),
             lambda: normalized_transform(params, point, 0.5, 10),
             lambda: ergodic_constants(params, point, 0.5),
             lambda: fit_convergence_rate(params, point, 0.5),
             lambda: unconditional_transform(params, point, 10),
             lambda: closed_form.quadratic_coefficients(params, point, 10),
             lambda: constants(params, point, 0.5)]
    for call in calls:
        with pytest.raises(DomainBoundaryError):
            call()


@pytest.mark.parametrize("theta", [0.5, -0.5, 0.75])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_public_constants_refuse_the_pole_of_nu(theta, m):
    # alpha = (1-theta)^2/2, exact in binary here: mu + (1-theta)^2 == 0 divides
    # by an exact zero in nu, which raised a bare ZeroDivisionError
    params, point = ModelParams(theta, m), TransformPoint((1.0 - theta) ** 2 / 2.0)
    assert point.mu + (1.0 - theta) ** 2 == 0
    with pytest.raises(DomainBoundaryError, match="boundary of the validity domain"):
        constants(params, point, 0.3)


@pytest.mark.parametrize("t_start", [-1, -3])
def test_fitted_rate_rejects_a_negative_horizon(t_start):
    # at t = -1, w^t*w = 1 makes D_t = 1: finite values that must not enter the fit
    with pytest.raises(ValueError, match="horizon t must be >= 0"):
        fit_convergence_rate(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5, t_start=t_start)


def test_log_transform_overflow_raises_parameter_error():
    # the constants are finite at m = 1e152, but A*t leaves the double range at t = 10^6
    params, point = ModelParams(0.6, 1e152), TransformPoint(-0.3)
    assert cmath.isfinite(transform(params, point, 0.5, 1000).log_value)
    with pytest.raises(ParameterError, match="log L_t overflows"):
        transform(params, point, 0.5, 10**6)


def test_large_finite_level_sets_the_overflow_flag():
    # m = 1e150 keeps nu, A, B, C finite; L_t itself underflows
    params, point = ModelParams(-0.8, 1e150), TransformPoint(-0.3)
    assert all(map(cmath.isfinite, vars(constants(params, point, 0.5)).values()))
    tv = transform(params, point, 0.5, 10)
    assert tv.overflow and tv.value == 0 and cmath.isfinite(tv.log_value)
    assert cmath.isfinite(ergodic_constants(params, point, 0.5).lambda_of_alpha)


def test_overflowing_normalized_value_raises_parameter_error():
    # theta = 0.6, m = 1e150: nu, A, B, C and log L_t are finite, but
    # log f_check ~ +5e298 leaves the double range (cmath.exp raised a bare OverflowError)
    params, point = ModelParams(0.6, 1e150), TransformPoint(-0.3)
    assert cmath.isfinite(transform(params, point, 0.5, 10).log_value)
    with pytest.raises(ParameterError, match="overflows"):
        normalized_transform(params, point, 0.5, 10)
    with pytest.raises(ParameterError, match="f_check overflows"):
        ergodic_constants(params, point, 0.5)
    with pytest.raises(ParameterError, match="f_check overflows"):
        fit_convergence_rate(params, point, 0.5)


def test_transform_underflow_sets_flag():
    tv = transform(ModelParams(0.6, 1.0), TransformPoint(-0.3), 0.5, 10**6)
    assert tv.overflow
    assert tv.value == 0
    assert cmath.isfinite(tv.log_value)


def test_transform_overflow_sets_flag():
    # small positive alpha inside D: the transform grows like exp(t*Lambda)
    tv = transform(ModelParams(0.5, 0.0), TransformPoint(0.1), 0.0, 4000)
    assert tv.overflow
    assert tv.value.real == math.inf


@pytest.mark.parametrize("theta,m,x,alpha", [
    (0.5, 0.0, 1.0, -0.5),
    (0.8, 1.5, -1.0, -0.05),
    (-0.6, 0.7, 0.4, -1.0),
])
def test_transform_decreasing_in_horizon_for_negative_alpha(theta, m, x, alpha):
    params = ModelParams(theta, m)
    point = TransformPoint(alpha)
    values = [transform(params, point, x, t).value.real for t in range(30)]
    for a, b in zip(values, values[1:]):
        assert 0 < b < a <= math.exp(alpha * x * x) + 1e-15


def test_transform_bounded_by_one_for_negative_alpha():
    for theta in (0.5, -0.8):
        params = ModelParams(theta, 1.0)
        for alpha in (-0.05, -0.5, -2.0):
            for x in (-1.0, 0.0, 2.0):
                for t in (0, 3, 20):
                    value = transform(params, TransformPoint(alpha), x, t).value.real
                    assert 0 < value <= 1.0 + 1e-15


def test_sigma_recursion_horizon_zero_is_x_squared():
    total = sigma_via_recursion(ModelParams(0.5, 1.0), TransformPoint(-0.25), 0.7, 0)
    assert rel_err(total, 0.49) < 1e-14


def test_sigma_recursion_matches_closed_form_examples():
    cases = [(0.5, 1.0, -0.25, 0.3, 5), (0.7, 0.0, -1.0, 1.0, 10)]
    for theta, m, alpha, x, t in cases:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        direct = sigma_via_recursion(params, point, x, t)
        closed = transform(params, point, x, t).sigma_t
        assert rel_err(direct, closed) < 1e-10


def test_ergodic_zero_mean_drift_is_half_log_root():
    params = ModelParams(0.5, 0.0)
    point = TransformPoint(-0.5)
    erg = ergodic_constants(params, point, 0.0)
    lam_plus = roots(params, point).lambda_plus
    assert erg.lambda_of_alpha == -0.5 * cmath.log(lam_plus)
    assert 0 < erg.rate < 1


def test_ergodic_near_alpha_zero_limit():
    erg = ergodic_constants(ModelParams(0.5, 0.7), TransformPoint(-1e-8), 0.3)
    assert abs(erg.lambda_of_alpha) < 1e-6
    assert abs(erg.f_check - 1.0) < 1e-6


@pytest.mark.parametrize("alpha", [-1e-6, -1e-9, -1e-12, -1e-15, -1e-300])
@pytest.mark.parametrize("theta", [0.6, -0.8, 0.95])
def test_small_alpha_keeps_full_relative_precision(theta, alpha):
    # log L_t and Lambda are O(alpha); no cancellation may cost eps/|alpha|
    params, point = ModelParams(theta, 1.0), TransformPoint(alpha)
    for t in (1, 10, 1000, 10**6):
        log_value = transform(params, point, 0.5, t).log_value
        assert rel_err(log_value, log_transform_ref(theta, 1.0, 0.5, alpha, t)) <= 1e-13
    drift = ergodic_constants(params, point, 0.5).lambda_of_alpha
    assert rel_err(drift, growth_rate_ref(theta, 1.0, alpha)) <= 1e-13


def _floored_err(got, want) -> float:
    """|got - want| / max(1, |want|): a relative error for a large value, an
    absolute one near 0, where a subnormal alpha leaves few digits (-5e-324
    is one quantum)."""
    return abs(got - want) / max(1.0, abs(want))


@pytest.mark.parametrize("alpha", [-1e-310, -5e-324, complex(-1e-310, 1e-310)])
@pytest.mark.parametrize("theta, m, x", [(0.6, 1.0, 3.0), (-0.8, 1.5, -1.0)])
def test_subnormal_alpha_evaluates(capsys, theta, m, x, alpha):
    # B = theta/mu*centred^2 - theta*nu^2 overflows at a subnormal alpha, yet
    # L_t ~ 1: every entry point evaluates, and a one-alpha sweep exits 0
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    horizons = (0, 10, 1000, 10**6)
    want = [log_transform_ref(theta, m, x, alpha, t) for t in horizons]
    for t, log_ref in zip(horizons, want):
        assert _floored_err(transform(params, point, x, t).log_value, log_ref) <= 1e-13
        assert cmath.isfinite(normalized_transform(params, point, x, t))
        assert cmath.isfinite(unconditional_transform(params, point, t))
    erg = ergodic_constants(params, point, x)
    assert cmath.isfinite(erg.f_check)
    assert _floored_err(erg.lambda_of_alpha, growth_rate_ref(theta, m, alpha)) <= 1e-13
    point_args = [f"--theta={theta!r}", f"--m={m!r}", f"--x={x!r}", f"--alpha={point.alpha.real!r}",
                  f"--alpha-im={point.alpha.imag!r}"]
    assert main(["sweep", *point_args, "--t=" + ",".join(map(str, horizons))]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["t"] for row in rows] == list(horizons) and all(row["error"] is None for row in rows)
    for row, log_ref in zip(rows, want):
        assert _floored_err(complex(row["log_L_re"], row["log_L_im"]), log_ref) <= 1e-13


@pytest.mark.parametrize("alpha", [-1e154, -1e200, -1e300, -8e307])
@pytest.mark.parametrize("theta", [0.6, -0.6])
def test_huge_negative_alpha_evaluates(capsys, theta, alpha):
    # the discriminant's product overflows past |alpha| ~ 1e154 and
    # lambda_-/lambda_+ underflows past ~1e200, yet alpha lies in D: every
    # entry point evaluates, and a sweep row carries transform's log L_t
    m, x = 1.0, 0.4
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    assert domain_check(params, point)
    horizons = (0, 1, 5, 1000)
    for t in horizons:
        log_value = transform(params, point, x, t).log_value
        assert _floored_err(log_value, log_transform_ref(theta, m, x, alpha, t)) <= 1e-13
        g0, g1, c2 = closed_form.quadratic_coefficients(params, point, t)
        assert _floored_err(g0 + g1 * (x - m) + c2 * (x - m) ** 2, log_value) <= 1e-13
    erg = ergodic_constants(params, point, x)
    assert _floored_err(erg.lambda_of_alpha, growth_rate_ref(theta, m, alpha)) <= 1e-13
    point_args = [f"--theta={theta!r}", f"--m={m!r}", f"--x={x!r}", f"--alpha={alpha!r}"]
    assert main(["transform", *point_args, "--t=5"]) == 0
    assert json.loads(capsys.readouterr().out)["log_value_re"] == transform(params, point, x, 5).log_value.real
    assert main(["sweep", *point_args, "--t=" + ",".join(map(str, horizons))]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for row, t in zip(rows, horizons, strict=True):
        assert row["error"] is None
        assert _floored_err(row["log_L_re"], transform(params, point, x, t).log_value.real) <= 1e-13


@pytest.mark.parametrize("theta", [1e-200, -1e-300])
def test_tiny_theta_evaluates(theta):
    # theta^2 underflows to 0, and with it lambda_- and lambda_-/lambda_+:
    # log L_t is still the elimination's
    params, alpha, x = ModelParams(theta, 1.0), -0.3, 0.4
    for t in (0, 1, 5, 1000):
        log_value = transform(params, TransformPoint(alpha), x, t).log_value
        assert _floored_err(log_value, log_mgf_at(alpha, x, _read(alpha, _eliminate(params, alpha, x, t), t))) <= 1e-15


def test_tiny_alpha_at_a_large_level_evaluates():
    # m = 1e150, alpha = -1e-15: B ~ 3e314 overflows, mu*B ~ 6e299 does not.
    # log L_t ~ -1e285*t and Lambda are in range (L_t itself underflows)
    params, point = ModelParams(0.6, 1e150), TransformPoint(-1e-15)
    for t in (0, 10, 1000, 10**6):
        tv = transform(params, point, 0.5, t)
        assert _floored_err(tv.log_value, log_transform_ref(0.6, 1e150, 0.5, -1e-15, t)) <= 1e-13
    assert unconditional_transform(params, point, 10) == 0
    drift = closed_form._alpha_stage(params, point, 0.5)[2]
    assert _floored_err(drift, growth_rate_ref(0.6, 1e150, -1e-15)) <= 1e-13
    # f_check ~ exp(+1e285) is beyond the double range: that value overflows, not a constant
    with pytest.raises(ParameterError, match="f_check overflows"):
        ergodic_constants(params, point, 0.5)


def test_ergodic_alpha_zero_special_case():
    erg = ergodic_constants(ModelParams(0.5, 0.7), TransformPoint(0.0), 0.3)
    assert erg.lambda_of_alpha == 0
    assert erg.f_check == 1
    assert erg.rate == 0.5


def test_ergodic_rate_in_unit_interval_on_grid():
    for theta in (0.5, -0.8, 0.95):
        params = ModelParams(theta, 1.0)
        for alpha in alpha_grid_in_domain(theta, n_min=40):
            assert 0 < ergodic_constants(params, TransformPoint(alpha), 0.0).rate < 1


def test_normalized_horizon_zero_and_alpha_zero():
    params = ModelParams(0.6, 1.5)
    point = TransformPoint(-0.4)
    assert rel_err(normalized_transform(params, point, 0.7, 0), cmath.exp(-0.4 * 0.49)) < 1e-14
    assert normalized_transform(params, TransformPoint(0.0), 0.7, 9) == 1


def test_normalized_equals_transform_times_drift_factor():
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    erg = ergodic_constants(params, point, 0.5)
    for t in (1, 5, 17):
        via_product = transform(params, point, 0.5, t).value * cmath.exp(
            -t * erg.lambda_of_alpha
        )
        assert rel_err(normalized_transform(params, point, 0.5, t), via_product) < 1e-12


def test_normalized_converges_within_geometric_envelope():
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    erg = ergodic_constants(params, point, 0.5)
    errors = [abs(normalized_transform(params, point, 0.5, t) - erg.f_check) for t in range(81)]
    assert errors[80] < errors[0]
    # the one-step ratio is asymptotic: rate^2 terms pollute small t
    for t in range(10, 80):
        if errors[t] > 1e-12:  # above the float plateau
            assert errors[t + 1] <= errors[t] * (erg.rate * 1.25)
            assert errors[t] <= errors[0]


def test_normalized_limit_matches_f_check_for_complex_alpha():
    params = ModelParams(0.6, 1.0)
    for alpha in (complex(-0.3, 0.5), complex(-1.5, -0.4)):
        point = TransformPoint(alpha)
        limit = normalized_transform(params, point, 0.5, 500)
        target = ergodic_constants(params, point, 0.5).f_check
        assert rel_err(limit, target) < 1e-13


def test_normalized_zero_start_zero_mean_collapses_to_prefactor():
    params = ModelParams(0.5, 0.0)
    point = TransformPoint(-0.5)
    spectral = roots(params, point)
    target = (spectral.beta_plus * spectral.lambda_plus) ** -0.5
    assert rel_err(normalized_transform(params, point, 0.0, 80), target) < 1e-12


def test_fitted_rate_matches_root_ratio():
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    fit = fit_convergence_rate(params, point, 0.5)
    expected = ergodic_constants(params, point, 0.5).rate
    assert fit.n_points >= 3
    assert abs(fit.ratio - expected) <= 0.05 * expected


@pytest.mark.parametrize("theta, alpha", [(0.6, -0.3), (-0.8, complex(-0.1, 0.1)), (0.95, -0.5)])
def test_fitted_rate_runs_one_alpha_stage_with_unchanged_result(monkeypatch, theta, alpha):
    params, point = ModelParams(theta, 1.0), TransformPoint(alpha)
    # reference: the fit from the public scalar functions, one full evaluation per t
    target = ergodic_constants(params, point, 0.5).f_check
    errors = [(t, abs(normalized_transform(params, point, 0.5, t) - target)) for t in range(20, 81)]
    points = [(t, math.log(err)) for t, err in errors if err > 1e-13]
    n = len(points)
    mean_t, mean_y = sum(p[0] for p in points) / n, sum(p[1] for p in points) / n
    sxy = sum((p[0] - mean_t) * (p[1] - mean_y) for p in points)
    sxx = sum((p[0] - mean_t) ** 2 for p in points)
    counts = count_calls(monkeypatch, closed_form, "_roots", "_constants")
    fit = fit_convergence_rate(params, point, 0.5)
    assert (fit.ratio, fit.n_points) == (math.exp(sxy / sxx), n)
    assert counts == {"_roots": 1, "_constants": 1}


@pytest.mark.parametrize("theta, alpha, t", [(0.6, -0.3, 0), (-0.8, complex(-0.1, 0.1), 7), (0.95, -0.5, 10**6)])
def test_quadratic_coefficients_evaluate_the_sequence_terms_once(monkeypatch, theta, alpha, t):
    params, point = ModelParams(theta, 1.0), TransformPoint(alpha)
    expected = closed_form.quadratic_coefficients(params, point, t)
    counts = count_calls(monkeypatch, closed_form, "_roots", "_constants", "_sequence_terms")
    g0, g1, c2 = closed_form.quadratic_coefficients(params, point, t)
    assert (g0, g1, c2) == expected
    assert counts == {"_roots": 1, "_constants": 1, "_sequence_terms": 1}
    # g0 is log L_t at x = m, from the same terms
    monkeypatch.undo()
    assert g0 == transform(params, point, 1.0, t).log_value


def test_one_step_identity_and_eigen_equation_hold_on_seeded_draws():
    # (a) log L_t = alpha*x^2 + G(coefficients of log L_{t-1}; theta*(x - m), 1) at t log-uniform
    # to 10^6, and (b) at t = inf, Lambda + log f_check(x) = alpha*x^2 + G(coefficients of
    # log f_check; theta*(x - m), 1): f_check is the eigenfunction of exp(alpha*x^2)*P(x, dy),
    # with eigenvalue exp(Lambda).  Each within 1e-12 of max(1, |log L|): they read 5.1e-15 and 7.3e-15
    rng = random.Random(34)
    draws = 0
    while draws < 2000:
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
        m, x = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0)
        if rng.random() < 0.5:
            alpha = -(10 ** rng.uniform(-6.0, math.log10(3.0)))
        else:
            re, im = (rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3.0, math.log10(3.0)) for _ in range(2))
            alpha = complex(re, im)
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        if not domain_check(params, point):
            continue
        draws += 1
        t = round(10 ** rng.uniform(0.0, 6.0))
        mean = theta * (x - m)
        log_value = transform(params, point, x, t).log_value
        step = alpha * x * x + closed_form._gaussian_step(*closed_form.quadratic_coefficients(params, point, t - 1),
                                                          mean, 1.0)
        assert abs(log_value - step) <= 1e-12 * max(1.0, abs(log_value)), (theta, m, x, alpha, t)
        stage = closed_form._alpha_stage(params, point, x)
        limit = closed_form._limit_terms(theta, stage[0])
        log_f_check = closed_form._log_limit(params, x, alpha, stage[1], limit)
        eigen = ergodic_constants(params, point, x).lambda_of_alpha + log_f_check
        at_m = closed_form._alpha_stage(params, point, m)[1]
        coefficients = closed_form._coefficients(params, alpha, at_m, limit, math.inf)
        step = alpha * x * x + closed_form._gaussian_step(*coefficients, mean, 1.0)
        assert abs(eigen - step) <= 1e-12 * max(1.0, abs(eigen)), (theta, m, x, alpha)


def test_scalar_path_builds_no_spectral_record(monkeypatch):
    # the evaluation carries the tuple of spectral._roots: only the public
    # roots() builds SpectralData, and its __post_init__ runs once per record
    built = []
    post_init = SpectralData.__post_init__
    monkeypatch.setattr(SpectralData, "__post_init__", lambda self: built.append(post_init(self)))
    params, real, cplx = ModelParams(0.6, 1.0), TransformPoint(-0.3), TransformPoint(complex(-0.3, 0.2))
    roots(params, cplx)
    assert len(built) == 1  # the counter sees a record
    built.clear()
    for point in (real, cplx):
        transform(params, point, 0.5, 40000)
        normalized_transform(params, point, 0.5, 10)
        ergodic_constants(params, point, 0.5)
        fit_convergence_rate(params, point, 0.5)
        unconditional_transform(params, point, 10)
    common = ["--theta=0.6", "--m=1", "--x=0.5", "--alpha=-0.3", "--alpha-im=0.2"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["transform", *common, "--t=40000"]) == 0
        assert main(["ergodic", *common]) == 0
        assert main(["sweep", *common, "--t=0:300,40000"]) == 0
    assert out.getvalue().count("\n") == 2 + 302
    assert built == []


def test_transform_valid_for_positive_alpha_inside_domain():
    # D reaches slightly past 0 on the real axis; the closed form must keep
    # matching the oracle there
    for theta, alpha, m, x in [(0.5, 0.1, 1.0, 0.5), (0.3, 0.2, 1.5, -1.0)]:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        for t in (1, 5, 20):
            closed = transform(params, point, x, t).value.real
            reference = matrix_mgf(params, alpha, x, t).value
            assert rel_err(closed, reference) < 1e-10


def test_theta_sign_invariance_with_centred_start():
    # with m = 0 and x = 0 the transform depends on theta only through theta^2
    point = TransformPoint(-0.7)
    for t in (1, 5, 40):
        plus = transform(ModelParams(0.8, 0.0), point, 0.0, t).value
        minus = transform(ModelParams(-0.8, 0.0), point, 0.0, t).value
        assert rel_err(plus, minus) < 1e-10


def test_tower_property_by_quadrature():
    # L_t(alpha, x) = exp(alpha x^2) * Int L_{t-1}(alpha, y) k(y|x) dy where k
    # is the one-step Gaussian kernel N(m + theta*(x - m), 1)
    cases = [(0.5, 1.0, 0.3, -0.25), (0.6, 0.0, 1.0, -0.5), (-0.7, 1.5, -0.5, -1.0)]
    for theta, m, x, alpha in cases:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        nodes, weights = gauss_hermite_nodes(m + theta * (x - m), 1.0, 80)
        for t in (1, 2, 5):
            integral = sum(
                w * transform(params, point, float(y), t - 1).value
                for y, w in zip(nodes, weights)
            )
            lhs = transform(params, point, x, t).value
            rhs = cmath.exp(alpha * x * x) * integral
            assert rel_err(lhs, rhs) < 1e-6


def test_weighted_square_decomposition_identity():
    # the one-step summand decomposes through the telescoping constants:
    # Delta_s^2 == A*theta*psi_s*psi_{s+1} + B*theta*beta+*beta-*(z-1/z)^2
    #              + C*theta*(psi_{s+1} - psi_s), measured at operand scale
    for theta, m, alpha, x in [(0.5, 1.0, -0.25, 0.3), (0.6, 1.5, -2.0, 2.0), (-0.8, 1.5, -0.05, -1.0)]:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        spectral = roots(params, point)
        cf = constants(params, point, x)
        z = spectral.lambda_plus / theta
        a_plus = m * (theta - 1) * spectral.beta_plus * z / (1 - z)
        a_minus = m * (theta - 1) * spectral.beta_minus * (1 / z) / (1 - 1 / z)
        a_free = x - (a_plus + a_minus)
        wronskian = spectral.beta_plus * spectral.beta_minus * (z - 1 / z) ** 2
        for s in range(1, 21):
            psi_s = raw_psi(spectral, params, s)
            psi_next = raw_psi(spectral, params, s + 1)
            delta = a_plus * z**s + a_minus * z**-s + a_free
            lhs = delta * delta
            term_a = cf.A * theta * psi_s * psi_next
            rhs = term_a + cf.B * theta * wronskian + cf.C * theta * (psi_next - psi_s)
            scale = max(abs(lhs), abs(term_a), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-10


def test_telescoping_intermediate_identities():
    for theta, m, alpha in [(0.5, 1.0, -0.25), (0.6, 1.5, -2.0), (-0.8, 0.9, -0.05)]:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        spectral = roots(params, point)
        cf = constants(params, point, 0.4)
        mu = point.mu
        z = spectral.lambda_plus / theta
        a_plus = m * (theta - 1) * spectral.beta_plus * z / (1 - z)
        a_minus = m * (theta - 1) * spectral.beta_minus * (1 / z) / (1 - 1 / z)
        assert rel_err(a_plus + a_minus, (1 - theta) * cf.nu) < 1e-12
        assert rel_err(2 * a_plus * a_minus, -2 * theta * mu * cf.nu**2 / (mu + (1 + theta) ** 2)) < 1e-12
        assert rel_err(cf.A, m**2 * (1 - theta) ** 2 / (mu + (1 - theta) ** 2)) < 1e-12



@pytest.mark.parametrize("theta, alpha", [(0.5, 1.5), (-0.8, 2.0), (0.3, 5.0)])
def test_real_alpha_above_the_slit_is_the_limit_of_its_complex_neighbours(theta, alpha):
    # above (1+|theta|)^2/2 the roots are negative reals and L_t is a
    # continuation, not an expectation; wherever the limits from both sides
    # of the real axis agree, L_t and exp(-t*Lambda)*L_t at the real point
    # are that limit, not its negative
    params, x = ModelParams(theta, 0.3), 0.5
    sides = [TransformPoint(complex(alpha, im)) for im in (1e-300, -1e-300)]
    agreeing = 0
    for t in range(1, 12):
        for f in (lambda point: transform(params, point, x, t).value,
                  lambda point: normalized_transform(params, point, x, t)):
            above, below = map(f, sides)
            if rel_err(above, below) < 1e-12:
                agreeing += 1
                assert rel_err(f(TransformPoint(alpha)), below) < 1e-12
    assert agreeing >= 6
