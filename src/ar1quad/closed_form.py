"""Exact conditional transform L_t(alpha, x) and its ergodic constants.

For alpha in the validity domain D, the exponential transform of the
partial sum S_t = sum_{s=0..t} X_s^2 given X_0 = x is

    L_t(alpha, x) = E[exp(alpha*S_t) | X_0 = x] = pi_t^(-1/2) * exp(alpha*Sigma_t)

with

    Sigma_t = A*t + x^2 + (mu*B)*q_t + C*(theta - 1/psi_{t+1}),  q_t = (theta - psi_t/psi_{t+1})/mu

and constants (mu = -2*alpha)

    nu   = m*(1-theta) / (mu + (1-theta)^2)
    A    = m*(1-theta)*nu
    mu*B = theta*((x - (1-theta)*nu)^2 - mu*nu^2)
    C    = 2*nu*(x - (1-theta)*nu).

As t grows, exp(-t*Lambda(alpha)) * L_t(alpha, x) converges to
f_check(alpha, x) at geometric speed |theta/lambda_+|^t, where

    Lambda(alpha)  = alpha*m^2*(1-theta)^2/(mu + (1-theta)^2) - (1/2)*log(lambda_+)
    f_check(alpha, x) = (beta_+*lambda_+)^(-1/2)
                        * exp(alpha*(x^2 + (mu*B)*q + C*theta)),  q = theta/((1-lambda_-)*lambda_+).

All exponentials are assembled in log domain and exponentiated last, so
horizons up to 10^6 neither overflow nor lose the normalized limit, and
small terms enter as products, never as differences (see spectral.py), so
log L_t and Lambda keep full relative precision as alpha -> 0.  Neither
mu*B nor q_t has the 1/(-2*alpha) pole of B, so one formula holds on all of
D, alpha = 0 (L_t = 1, Lambda = 0, f_check = 1 exactly) and subnormal alpha
included; only the public constants() forms B.

Every output comes from one evaluation in two stages, so the formulas live
in one place and transform, normalized_transform, ergodic_constants and
fit_convergence_rate agree bit for bit.  The alpha stage (_alpha_stage:
roots, nu, A, mu*B, C, Lambda and the rate) depends only on (alpha, x); the
horizon stage adds t.  The stages carry plain tuples, the roots as the
tuple of spectral._roots, so a call builds no record but the one it
returns: only the public spectral.roots() builds SpectralData.  The
horizon stage's text (_horizon: spectral._sequence_terms and
the log-domain assembly) is written once, over an operations namespace:
SCALAR_OPS (cmath and math) at one t for the public functions, which never
call numpy, and sweep.ARRAY_OPS over an array of t for a CLI sweep (see
sweep.py); _limit is its t -> inf limit, f_check.  A non-finite log L_t
raises ParameterError, as does every value beyond the double range (_exp)
but transform's, which is inf or 0 with its overflow flag set.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError, SingularConstantError
from .model import ModelParams, check_finite, check_horizon
from .spectral import SCALAR_OPS, TransformPoint, _log, _roots, _sequence_terms, raw_psi, roots

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
    exponent range, value is +/-inf or 0 and `overflow` is set.  sigma_t is
    Sigma_t, a finite number at every alpha in D (alpha = 0 included).
    """

    log_value: complex
    value: complex
    sigma_t: complex
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


def _constants(params: ModelParams, point: TransformPoint, x: float) -> tuple:
    """(nu, A, mu*B, C) at (alpha, x), with no pole at alpha = 0.  Requires a
    finite x, which its callers check; raises ParameterError when a constant
    overflows (|m| or |x| near 1e154)."""
    theta, m = params.theta, params.m
    mu = point.mu
    nu = m * (1.0 - theta) / (mu + (1.0 - theta) ** 2)
    centred = x - (1.0 - theta) * nu
    terms = (nu, m * (1.0 - theta) * nu, theta * (centred * centred - mu * nu * nu), 2.0 * nu * centred)
    # m*nu and centred^2 overflow once |m| or |x| nears sqrt(max double) ~ 1e154;
    # a non-finite nu makes A non-finite
    if not all(map(cmath.isfinite, terms)):
        raise ParameterError(f"closed-form constants overflow at m={m!r}, x={x!r}, alpha={point.alpha}")
    return terms


def constants(params: ModelParams, point: TransformPoint, x: float) -> ClosedFormConstants:
    """Evaluate nu, A, B = (mu*B)/mu, C at (alpha, x).  Requires a finite x
    and alpha != 0 (SingularConstantError); raises ParameterError when a
    constant overflows (|m| or |x| near 1e154, or B alone at a tiny alpha)."""
    check_finite("x", x)
    nu, a_const, mu_b, c_const = _constants(params, point, x)
    if point.alpha == 0:
        raise SingularConstantError("B has a 1/(-2*alpha) pole at alpha == 0")
    b_const = mu_b / point.mu
    if not cmath.isfinite(b_const):
        raise ParameterError(f"closed-form constant B overflows at m={params.m!r}, x={x!r}, alpha={point.alpha}")
    return ClosedFormConstants(nu=nu, A=a_const, B=b_const, C=c_const)


def _outside(alpha: complex) -> DomainError:
    return DomainError(f"alpha={alpha} is outside the validity domain")


def _alpha_stage(params: ModelParams, point: TransformPoint, x: float) -> tuple:
    """(spectral, (nu, A, mu*B, C), Lambda, rate): the part of L_t that does
    not depend on t, from one _roots and one _constants evaluation, with
    spectral the tuple of spectral._roots.

    Raises ParameterError for a non-finite x, then DomainError for alpha
    outside D (DomainBoundaryError where the moduli of the roots coincide,
    which includes the pole of nu at mu = -(1-theta)^2), then
    ParameterError for overflowing constants.
    """
    check_finite("x", x)
    theta, alpha = params.theta, point.alpha
    spectral = _roots(theta, alpha)
    if not spectral[5]:
        raise _outside(alpha)
    cf = _constants(params, point, x)
    return spectral, cf, alpha * cf[1] - 0.5 * spectral[4], abs(theta / spectral[0])


def _overflow(what: str, params: ModelParams, x: float | None, alpha: complex, t: int | None) -> ParameterError:
    at_x = "" if x is None else f", x={x!r}"
    at_t = "" if t is None else f", t={t}"
    return ParameterError(f"{what} overflows at m={params.m!r}{at_x}, alpha={alpha}{at_t}")


def _exp(log_value: complex, what: str, params: ModelParams, x: float | None, alpha: complex, t: int | None) -> complex:
    """exp(log_value); raises ParameterError where Re(log_value) > _LOG_MAX,
    that is where the value lies beyond the double range (cmath.exp would
    raise a bare OverflowError)."""
    if log_value.real > _LOG_MAX:
        raise _overflow(what, params, x, alpha, t)
    return cmath.exp(log_value)


def _assemble(theta, x, alpha, spectral, cf, q_t, inv_psi, log_correction) -> tuple:
    """(Sigma_t - A*t, log(exp(-t*Lambda)*L_t)) from the sequence terms."""
    bounded = x * x + cf[2] * q_t + cf[3] * (theta - inv_psi)
    # the t-proportional parts of log(L_t) and t*Lambda cancel analytically
    # and are never formed (subtracting two O(t) logs would lose ~t*eps)
    return bounded, -0.5 * (spectral[4] + log_correction) + alpha * bounded


def _horizon(ops, params: ModelParams, x: float, alpha: complex, stage: tuple, t) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t), regular, q_t, 1/psi_{t+1})
    at one horizon t (SCALAR_OPS) or an array of them (sweep.ARRAY_OPS):
    the one text of the horizon formulas, see spectral._sequence_terms for
    `regular`."""
    spectral, cf = stage[0], stage[1]
    theta = params.theta
    q_t, inv_psi, log_correction, log_pi, regular = _sequence_terms(ops, theta, spectral, t)[:5]
    bounded, log_normalized = _assemble(theta, x, alpha, spectral, cf, q_t, inv_psi, log_correction)
    sigma = cf[1] * t + bounded
    return -0.5 * log_pi + alpha * sigma, sigma, log_normalized, regular, q_t, inv_psi


def _scalar_horizon(params: ModelParams, x: float, alpha: complex, stage: tuple, t: int) -> tuple:
    """_horizon over SCALAR_OPS at one horizon t >= 0, from an alpha stage.
    Raises ValueError unless t is an integer >= 0, and ParameterError where
    log L_t is not finite (A*t beyond the double range: |m| near 1e152 at
    t = 10^6)."""
    t = check_horizon(t)
    terms = _horizon(SCALAR_OPS, params, x, alpha, stage, t)
    if not cmath.isfinite(terms[0]):
        raise _overflow("log L_t", params, x, alpha, t)
    return terms


def _limit(params: ModelParams, x: float, alpha: complex, stage: tuple) -> complex:
    """f_check, the t -> inf limit of exp(-t*Lambda)*L_t, from an alpha
    stage: q_t -> theta/((1 - lambda_-)*lambda_+), 1/psi_{t+1} -> 0 and
    D_t -> beta_+ in the horizon formulas."""
    theta, spectral = params.theta, stage[0]
    lam_plus, lam_minus, beta_plus, beta_minus = spectral[:4]
    q = theta / ((1.0 - lam_minus) * lam_plus)
    log_correction = _log(beta_plus, -beta_minus)
    log_f_check = _assemble(theta, x, alpha, spectral, stage[1], q, 0.0, log_correction)[1]
    return _exp(log_f_check, "f_check", params, x, alpha, None)


def quadratic_coefficients(params: ModelParams, point: TransformPoint, t: int) -> tuple[complex, ...]:
    """(g0, g1, c2) with log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly: x enters
    Sigma_t through x^2, mu*B and C, with (mu*B)' = 2*theta*(x - (1-theta)*nu), (mu*B)'' = 2*theta
    and C' = 2*nu.  One roots, one constants and one sequence-terms evaluation, at x = m; g0 is
    log L_t there."""
    theta, m, alpha = params.theta, params.m, point.alpha
    stage = _alpha_stage(params, point, m)
    g0, _, _, _, q_t, inv_psi = _scalar_horizon(params, m, alpha, stage, t)
    nu = stage[1][0]
    g1 = alpha * (2.0 * m + 2.0 * theta * (m - (1.0 - theta) * nu) * q_t + 2.0 * nu * (theta - inv_psi))
    return g0, g1, alpha * (1.0 + theta * q_t)


def transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> TransformValue:
    """Exact L_t(alpha, x), assembled as exp(-log(pi_t)/2 + alpha*Sigma_t).

    alpha = 0 gives exactly 1.  Raises DomainError for alpha outside D.
    """
    log_value, sigma = _scalar_horizon(params, x, point.alpha, _alpha_stage(params, point, x), t)[:2]
    # log L_t is finite here; beyond the double range the value is inf or 0
    overflow = not _LOG_MIN <= log_value.real <= _LOG_MAX
    value = (cmath.rect(math.inf, log_value.imag) if log_value.real > 0 else 0j) if overflow else cmath.exp(log_value)
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
    t = check_horizon(t)
    if t > RECURSION_MAX_T:
        raise ValueError(f"recursion cross-check requires 0 <= t <= {RECURSION_MAX_T}, got {t}")
    spectral = roots(params, point)  # raw_psi takes the public record
    if not spectral.in_domain:
        raise _outside(point.alpha)
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
    stage = _alpha_stage(params, point, x)
    return ErgodicConstants(lambda_of_alpha=stage[2], f_check=_limit(params, x, point.alpha, stage), rate=stage[3])


def normalized_transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """exp(-t*Lambda(alpha)) * L_t(alpha, x), assembled in log domain with
    the t-proportional parts cancelled analytically (accurate at any t)."""
    log_normalized = _scalar_horizon(params, x, point.alpha, _alpha_stage(params, point, x), t)[2]
    return _exp(log_normalized, "exp(-t*Lambda)*L_t", params, x, point.alpha, t)


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
    alpha = point.alpha
    target = _limit(params, x, alpha, stage)
    points = []
    for t in range(check_horizon(t_start), check_horizon(t_end) + 1):
        log_normalized = _scalar_horizon(params, x, alpha, stage, t)[2]
        err = abs(_exp(log_normalized, "exp(-t*Lambda)*L_t", params, x, alpha, t) - target)
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
