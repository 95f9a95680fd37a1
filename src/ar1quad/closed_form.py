"""Exact conditional transform L_t(alpha, x) and its ergodic constants.

For alpha in the validity domain D, the exponential transform of the
partial sum S_t = sum_{s=0..t} X_s^2 given X_0 = x is

    L_t(alpha, x) = E[exp(alpha*S_t) | X_0 = x] = pi_t^(-1/2) * exp(alpha*Sigma_t)

with

    Sigma_t = A*t + x^2 + B*(theta - psi_t/psi_{t+1}) + C*(theta - 1/psi_{t+1})

and constants (mu = -2*alpha)

    nu = m*(1-theta) / (mu + (1-theta)^2)
    A  = m*(1-theta)*nu
    B  = (theta/mu)*(x - (1-theta)*nu)^2 - theta*nu^2
    C  = 2*nu*(x - (1-theta)*nu).

As t grows, exp(-t*Lambda(alpha)) * L_t(alpha, x) converges to
f_check(alpha, x) at geometric speed |theta/lambda_+|^t, where

    Lambda(alpha)  = alpha*m^2*(1-theta)^2/(mu + (1-theta)^2) - (1/2)*log(lambda_+)
    f_check(alpha, x) = (beta_+*lambda_+)^(-1/2)
                        * exp(alpha*(x^2 + B*(theta - theta/lambda_+) + C*theta)).

All exponentials are assembled in log domain and exponentiated last, so
horizons up to 10^6 neither overflow nor lose the normalized limit, and
small terms enter as products, never as differences (see spectral.py), so
log L_t and Lambda keep full relative precision as alpha -> 0.
alpha == 0 is special-cased (L_t = 1, Lambda = 0, f_check = 1): the B
constant has a 1/(-2*alpha) pole there although the limit exists.

Every output comes from one evaluation in two stages, so the formulas live
in one place and transform, normalized_transform, ergodic_constants and a
CLI sweep row agree bit for bit.  The alpha stage (_alpha_stage: roots,
nu, A, B, C, Lambda and the rate) depends only on (alpha, x); the horizon
stage (_horizon_stage: sequence_ratios and the log-domain assembly) adds
t.  _evaluate composes the two for one point; a sweep or a rate fit runs
the alpha stage once and the horizon stage per t.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError, SingularConstantError
from .model import ModelParams, check_finite
from .spectral import SpectralData, TransformPoint, _log, raw_psi, roots, sequence_ratios

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78
_LOG_MIN = -745.0  # below the smallest subnormal's log

# sigma_via_recursion forms raw psi values, which overflow beyond this.
RECURSION_MAX_T = 50


@dataclass(frozen=True)
class ClosedFormConstants:
    """The constants nu, A, B, C entering Sigma_t, for one (alpha, x)."""

    nu: complex
    A: complex
    B: complex
    C: complex


@dataclass(frozen=True)
class TransformValue:
    """L_t(alpha, x) with its log-domain representation.

    `value` is exp(log_value); when Re(log_value) leaves the double
    exponent range, value is +/-inf or 0 and `overflow` is set.  sigma_t
    is None at alpha == 0, where only alpha*Sigma_t (which vanishes) is
    defined.
    """

    log_value: complex
    value: complex
    sigma_t: complex | None
    overflow: bool = False


@dataclass(frozen=True)
class ErgodicConstants:
    """Growth rate Lambda(alpha), limit function f_check(alpha, x), and the
    geometric convergence factor rate = |theta/lambda_+| in (0, 1)."""

    lambda_of_alpha: complex
    f_check: complex
    rate: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares estimate of the geometric error-decay ratio."""

    ratio: float
    n_points: int


def _exp_checked(log_value: complex) -> tuple[complex, bool]:
    re = log_value.real
    if re > _LOG_MAX:
        return cmath.rect(math.inf, log_value.imag), True
    if re < _LOG_MIN:
        return complex(0.0), True
    return cmath.exp(log_value), False


def _in_domain_roots(params: ModelParams, point: TransformPoint) -> SpectralData:
    spectral = roots(params, point)
    if not spectral.in_domain:
        raise DomainError(f"alpha={point.alpha} is outside the validity domain")
    return spectral


def constants(params: ModelParams, point: TransformPoint, x: float) -> ClosedFormConstants:
    """Evaluate nu, A, B, C at (alpha, x).  Requires alpha != 0 and a finite x;
    raises ParameterError when a constant overflows (|m| or |x| near 1e154,
    or a subnormal alpha)."""
    check_finite("x", x)
    alpha = point.alpha
    if alpha == 0:
        raise SingularConstantError("B has a 1/(-2*alpha) pole at alpha == 0")
    theta, m = params.theta, params.m
    mu = point.mu
    nu = m * (1.0 - theta) / (mu + (1.0 - theta) ** 2)
    a_const = m * (1.0 - theta) * nu
    centred = x - (1.0 - theta) * nu
    b_const = theta / mu * centred * centred - theta * nu * nu
    c_const = 2.0 * nu * centred
    # m*nu and centred^2 overflow once |m| or |x| nears sqrt(max double) ~ 1e154,
    # theta/mu once |alpha| is subnormal; a non-finite nu makes A non-finite
    if not (cmath.isfinite(a_const) and cmath.isfinite(b_const) and cmath.isfinite(c_const)):
        raise ParameterError(f"closed-form constants overflow at m={m!r}, x={x!r}, alpha={alpha}")
    return ClosedFormConstants(nu=nu, A=a_const, B=b_const, C=c_const)


def _alpha_stage(params: ModelParams, point: TransformPoint, x: float) -> tuple:
    """(spectral, constants, Lambda, rate): the part of L_t that does not
    depend on t, from one roots and one constants evaluation.

    At alpha == 0 spectral and constants are None.  Raises DomainError for
    alpha outside D and ParameterError for a non-finite x or constants.
    """
    check_finite("x", x)
    theta = params.theta
    alpha = point.alpha
    if alpha == 0:
        return None, None, complex(0.0), abs(theta)
    spectral = _in_domain_roots(params, point)
    cf = constants(params, point, x)
    drift = alpha * cf.A - 0.5 * spectral.log_lambda_plus
    return spectral, cf, drift, abs(theta / spectral.lambda_plus)


def _horizon_stage(params: ModelParams, point: TransformPoint, x: float, stage: tuple, t: int | None) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t)) from an alpha stage and
    one sequence_ratios evaluation.

    t = None is the t -> inf limit: sequence_ratios is skipped, log L_t and
    Sigma_t are None and the normalized log is log f_check.  Sigma_t is
    also None at alpha == 0.  Raises ParameterError where log L_t leaves
    the double range.
    """
    spectral, cf = stage[0], stage[1]
    if spectral is None:  # alpha == 0
        return complex(0.0), None, complex(0.0)
    theta = params.theta
    alpha = point.alpha
    lam_plus, beta_minus = spectral.lambda_plus, spectral.beta_minus
    if t is None:
        # theta - r_t -> theta*(lambda_+ - 1)/lambda_+, 1/psi_{t+1} -> 0, D_t -> beta_+
        theta_minus_r = theta * beta_minus * (lam_plus - spectral.lambda_minus) / lam_plus
        inv_psi, log_correction = 0.0, _log(spectral.beta_plus, -beta_minus)
    else:
        seq = sequence_ratios(spectral, params, t)
        theta_minus_r, inv_psi, log_correction = seq.theta_minus_r, seq.inv_psi, seq.log_correction
    # Sigma_t without its A*t part
    bounded = x * x + cf.B * theta_minus_r + cf.C * (theta - inv_psi)
    # the t-proportional parts of log(L_t) and t*Lambda cancel analytically
    # and are never formed (subtracting two O(t) logs would lose ~t*eps)
    log_normalized = -0.5 * (spectral.log_lambda_plus + log_correction) + alpha * bounded
    if t is None:
        return None, None, log_normalized
    sigma = cf.A * t + bounded
    log_value = -0.5 * seq.log_pi + alpha * sigma
    if not cmath.isfinite(log_value):  # A*t beyond the double range (|m| near 1e152 at t = 10^6)
        raise ParameterError(f"log L_t overflows at m={params.m!r}, x={x!r}, alpha={alpha}, t={t}")
    return log_value, sigma, log_normalized


def _evaluate(params: ModelParams, point: TransformPoint, x: float, t: int | None) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t), Lambda, rate): an alpha
    stage and a horizon stage (see there for t = None and alpha == 0)."""
    if t is not None and t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    stage = _alpha_stage(params, point, x)
    log_value, sigma, log_normalized = _horizon_stage(params, point, x, stage, t)
    return log_value, sigma, log_normalized, stage[2], stage[3]


def quadratic_coefficients(params: ModelParams, point: TransformPoint, t: int) -> tuple[complex, ...]:
    """(g0, g1, c2) with log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly: x enters
    Sigma_t through x^2, B and C, with B' = 2*theta/mu*(x - (1-theta)*nu), B'' = 2*theta/mu
    and C' = 2*nu.  One roots, one sequence_ratios and one constants evaluation, at x = m."""
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    theta, m, alpha = params.theta, params.m, point.alpha
    if alpha == 0:
        return 0j, 0j, 0j
    seq = sequence_ratios(_in_domain_roots(params, point), params, t)
    cf = constants(params, point, m)
    theta_minus_r, theta_minus_inv = seq.theta_minus_r, theta - seq.inv_psi
    b_slope = 2.0 * theta / point.mu * (m - (1.0 - theta) * cf.nu)
    g0 = -0.5 * seq.log_pi + alpha * (cf.A * t + m * m + cf.B * theta_minus_r + cf.C * theta_minus_inv)
    g1 = alpha * (2.0 * m + b_slope * theta_minus_r + 2.0 * cf.nu * theta_minus_inv)
    return g0, g1, alpha * (1.0 + theta / point.mu * theta_minus_r)


def transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> TransformValue:
    """Exact L_t(alpha, x), assembled as exp(-log(pi_t)/2 + alpha*Sigma_t).

    alpha == 0 returns exactly 1.  Raises DomainError for alpha outside D.
    """
    log_value, sigma = _evaluate(params, point, x, t)[:2]
    value, overflow = _exp_checked(log_value)
    return TransformValue(log_value=log_value, value=value, sigma_t=sigma, overflow=overflow)


def sigma_via_recursion(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """Sigma_t rebuilt from the one-step weighted recursion (cross-check).

    Iterates z_s = (psi_{s-1}/psi_s)*z_{s-1} + (1-theta)*m from z_0 = x and
    sums psi_s/(theta*psi_{s+1}) * z_s^2, using raw psi values throughout.
    Independent of the A, B, C telescoping, so agreement with
    transform(...).sigma_t validates the closed form.  Capped at t <= 50
    (raw psi overflows beyond).
    """
    check_finite("x", x)
    if not 0 <= t <= RECURSION_MAX_T:
        raise ValueError(f"recursion cross-check requires 0 <= t <= {RECURSION_MAX_T}, got {t}")
    spectral = _in_domain_roots(params, point)
    theta, m = params.theta, params.m
    psi = [raw_psi(spectral, params, s) for s in range(t + 2)]
    z_s = complex(x)
    total = psi[0] / (theta * psi[1]) * z_s * z_s
    for s in range(1, t + 1):
        z_s = (psi[s - 1] / psi[s]) * z_s + (1.0 - theta) * m
        total += psi[s] / (theta * psi[s + 1]) * z_s * z_s
    return total


def ergodic_constants(params: ModelParams, point: TransformPoint, x: float) -> ErgodicConstants:
    """Lambda(alpha), f_check(alpha, x) and the convergence factor.

    alpha == 0 is the degenerate limit (Lambda = 0, f_check = 1,
    rate = |theta| since lambda_+ -> 1).
    """
    _, _, log_f_check, drift, rate = _evaluate(params, point, x, None)
    return ErgodicConstants(lambda_of_alpha=drift, f_check=cmath.exp(log_f_check), rate=rate)


def normalized_transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """exp(-t*Lambda(alpha)) * L_t(alpha, x), assembled in log domain with
    the t-proportional parts cancelled analytically (accurate at any t)."""
    return cmath.exp(_evaluate(params, point, x, t)[2])


def fit_convergence_rate(
    params: ModelParams,
    point: TransformPoint,
    x: float,
    t_start: int = 20,
    t_end: int = 80,
    noise_floor: float = 1e-13,
) -> RateFit:
    """Fit the geometric ratio of |normalized_transform(t) - f_check|.

    Least squares on log|error| over t in [t_start, t_end], discarding
    points whose absolute error is below `noise_floor` (they sit on the
    floating-point plateau and carry no rate information).  The fitted
    ratio should match ErgodicConstants.rate.
    """
    # one alpha stage for the whole window; the values are bit-identical to
    # ergodic_constants(...).f_check and normalized_transform(...)
    stage = _alpha_stage(params, point, x)
    target = cmath.exp(_horizon_stage(params, point, x, stage, None)[2])
    points = []
    for t in range(t_start, t_end + 1):
        err = abs(cmath.exp(_horizon_stage(params, point, x, stage, t)[2]) - target)
        if err > noise_floor:
            points.append((t, math.log(err)))
    if len(points) < 2:
        raise ValueError(
            "fewer than two error points above the noise floor; widen the window "
            "or lower the floor"
        )
    n = len(points)
    mean_t = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    sxy = sum((p[0] - mean_t) * (p[1] - mean_y) for p in points)
    sxx = sum((p[0] - mean_t) ** 2 for p in points)
    return RateFit(ratio=math.exp(sxy / sxx), n_points=n)
