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
in one place and transform, normalized_transform, ergodic_constants and
fit_convergence_rate agree bit for bit.  The alpha stage (_alpha_stage:
roots, nu, A, B, C, Lambda and the rate) depends only on (alpha, x); the
horizon stage adds t.  Its text (_horizon: spectral._sequence_terms and
the log-domain assembly) is written once, over an operations namespace:
SCALAR_OPS (cmath and math) at one t for the public functions, which never
call numpy, and ARRAY_OPS over an array of t in one numpy pass
(_horizon_batch, for a CLI sweep); quadratic_coefficients takes its
log L_t at x = m and its sequence terms from the same text.  numpy's exp
and log differ from cmath's in the last bits, so a sweep row agrees with
the scalar functions to a few eps of the size of the terms it sums, and
exactly at t = 0.  A log L_t, a normalized value or an f_check beyond
the double range raises ParameterError.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SingularConstantError
from .model import ModelParams, check_finite
from .spectral import (
    ARRAY_OPS,
    SCALAR_OPS,
    SpectralData,
    TransformPoint,
    _log,
    _sequence_terms,
    raw_psi,
    roots,
)

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


def _overflow(what: str, params: ModelParams, x: float, alpha: complex, t: int | None) -> ParameterError:
    where = "" if t is None else f", t={t}"
    return ParameterError(f"{what} overflows at m={params.m!r}, x={x!r}, alpha={alpha}{where}")


def _assemble(theta, x, alpha, spectral, cf, theta_minus_r, inv_psi, log_correction) -> tuple:
    """(Sigma_t - A*t, log(exp(-t*Lambda)*L_t)) from the sequence terms."""
    bounded = x * x + cf.B * theta_minus_r + cf.C * (theta - inv_psi)
    # the t-proportional parts of log(L_t) and t*Lambda cancel analytically
    # and are never formed (subtracting two O(t) logs would lose ~t*eps)
    return bounded, -0.5 * (spectral.log_lambda_plus + log_correction) + alpha * bounded


def _horizon(ops, params: ModelParams, x: float, alpha: complex, stage: tuple, t) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t), regular) at one horizon
    t (SCALAR_OPS) or an array of them (ARRAY_OPS): the one text
    of the horizon formulas, see spectral._sequence_terms for `regular`."""
    spectral, cf = stage[0], stage[1]
    theta = params.theta
    theta_minus_r, inv_psi, log_correction, log_pi, regular = _sequence_terms(ops, theta, spectral, t)[:5]
    bounded, log_normalized = _assemble(theta, x, alpha, spectral, cf, theta_minus_r, inv_psi, log_correction)
    sigma = cf.A * t + bounded
    return -0.5 * log_pi + alpha * sigma, sigma, log_normalized, regular


def _horizon_stage(params: ModelParams, point: TransformPoint, x: float, stage: tuple, t: int | None) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t)) from an alpha stage, at
    one horizon.

    t = None is the t -> inf limit: log L_t and Sigma_t are None and the
    normalized log is log f_check.  Sigma_t is also None at alpha == 0.
    Raises ParameterError where log L_t leaves the double range.
    """
    spectral, cf = stage[0], stage[1]
    if spectral is None:  # alpha == 0
        return complex(0.0), None, complex(0.0)
    alpha = point.alpha
    if t is None:
        # theta - r_t -> theta*(lambda_+ - 1)/lambda_+, 1/psi_{t+1} -> 0, D_t -> beta_+
        theta, lam_plus, beta_minus = params.theta, spectral.lambda_plus, spectral.beta_minus
        theta_minus_r = theta * beta_minus * (lam_plus - spectral.lambda_minus) / lam_plus
        log_correction = _log(spectral.beta_plus, -beta_minus)
        return None, None, _assemble(theta, x, alpha, spectral, cf, theta_minus_r, 0.0, log_correction)[1]
    log_value, sigma, log_normalized, _ = _horizon(SCALAR_OPS, params, x, alpha, stage, t)
    if not cmath.isfinite(log_value):  # A*t beyond the double range (|m| near 1e152 at t = 10^6)
        raise _overflow("log L_t", params, x, alpha, t)
    return log_value, sigma, log_normalized


def _horizon_batch(params: ModelParams, point: TransformPoint, x: float, stage: tuple, horizons: list[int]) -> tuple:
    """The horizon stage over a list of horizons in one numpy pass.

    Returns (log L_t, exp(-t*Lambda)*L_t, regular, error).  The arrays
    cover the rows before the first one whose log L_t is not finite or
    whose normalized value overflows; `regular` is False where D_t vanishes
    (an error row); error is the ParameterError of that first row, for the
    caller to raise once it has used the rows before it, or None.
    """
    if stage[0] is None:  # alpha == 0: L_t = 1
        return np.zeros(len(horizons), complex), np.ones(len(horizons), complex), np.full(len(horizons), True), None
    alpha = point.alpha
    t = np.array(horizons, dtype=float)
    with np.errstate(all="ignore"):
        log_value, _, log_normalized, regular = _horizon(ARRAY_OPS, params, x, alpha, stage, t)
        log_finite = np.isfinite(log_value)
        overflow = regular & (~log_finite | (log_normalized.real > _LOG_MAX))
        normalized = ARRAY_OPS.exp(log_normalized)
    if not np.count_nonzero(overflow):
        return log_value, normalized, regular, None
    stop = int(overflow.argmax())
    what = "exp(-t*Lambda)*L_t" if log_finite[stop] else "log L_t"
    error = _overflow(what, params, x, alpha, horizons[stop])
    return log_value[:stop], normalized[:stop], regular[:stop], error


def _exp_normalized(log_normalized: complex, params: ModelParams, x: float, alpha: complex, t: int | None) -> complex:
    """exp(-t*Lambda)*L_t (f_check at t = None) from its log; raises
    ParameterError where it overflows (m = 1e150 at theta = 0.6)."""
    if log_normalized.real > _LOG_MAX:
        raise _overflow("f_check" if t is None else "exp(-t*Lambda)*L_t", params, x, alpha, t)
    return cmath.exp(log_normalized)


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
    and C' = 2*nu.  One roots and one constants evaluation, at x = m; g0 is log L_t there."""
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    theta, m, alpha = params.theta, params.m, point.alpha
    if alpha == 0:
        return 0j, 0j, 0j
    stage = (_in_domain_roots(params, point), constants(params, point, m))
    theta_minus_r, inv_psi = _sequence_terms(SCALAR_OPS, theta, stage[0], t)[:2]
    cf = stage[1]
    b_slope = 2.0 * theta / point.mu * (m - (1.0 - theta) * cf.nu)
    g0 = _horizon(SCALAR_OPS, params, m, alpha, stage, t)[0]
    g1 = alpha * (2.0 * m + b_slope * theta_minus_r + 2.0 * cf.nu * (theta - inv_psi))
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
    f_check = _exp_normalized(log_f_check, params, x, point.alpha, None)
    return ErgodicConstants(lambda_of_alpha=drift, f_check=f_check, rate=rate)


def normalized_transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """exp(-t*Lambda(alpha)) * L_t(alpha, x), assembled in log domain with
    the t-proportional parts cancelled analytically (accurate at any t)."""
    return _exp_normalized(_evaluate(params, point, x, t)[2], params, x, point.alpha, t)


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
    if t_start < 0:
        raise ValueError(f"horizon t must be >= 0, got {t_start}")
    # one alpha stage for the whole window; the values are bit-identical to
    # ergodic_constants(...).f_check and normalized_transform(...)
    stage = _alpha_stage(params, point, x)
    alpha = point.alpha
    target = _exp_normalized(_horizon_stage(params, point, x, stage, None)[2], params, x, alpha, None)
    points = []
    for t in range(t_start, t_end + 1):
        err = abs(_exp_normalized(_horizon_stage(params, point, x, stage, t)[2], params, x, alpha, t) - target)
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
