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
fit_convergence_rate agree bit for bit.  Each stage splits where its
inputs do.  The alpha stage is spectral._roots, which depends on (theta,
alpha) only, then _constants at (m, x): nu, A, mu*B, C, Lambda and the
rate.  The horizon stage is spectral._sequence_terms, which depends on
(theta, alpha, t) only, then _horizon's log-domain assembly at (m, x);
_limit_terms and _log_limit are the same pair at t -> inf, where
q_t -> q, 1/psi_{t+1} -> 0 and E_t -> beta_+*lambda_+.  A caller holding
the roots or the sequence terms (verify's grid) gets every (m, x) through
the same operations, with the same bits.  The stages carry plain tuples,
the roots as the tuple of spectral._roots, so a call builds no record but
the one it returns: only the public spectral.roots() builds SpectralData.
The horizon stage's text is written once, over an operations namespace:
SCALAR_OPS (cmath and math) at one t for the public functions, which never
call numpy, and sweep.ARRAY_OPS over an array of t for a CLI sweep (see
sweep.py).  A non-finite log L_t raises ParameterError, as does every value
beyond the double range (_exp) but transform's: that is inf or 0, its
overflow flag set.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError, SingularConstantError
from .model import ModelParams, check_finite, check_horizon
from .spectral import SCALAR_OPS, TransformPoint, _log, _roots, _sequence_terms

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78
_LOG_MIN = -745.0  # below the smallest subnormal's log


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
    Sigma_t, a finite number at every alpha in D (alpha = 0 included).  It
    is assembled from telescoped terms, so where they cancel it can lose
    about 5e-14 relative (4.8e-14 at theta = 0.911, alpha = -1.33e-30 +
    1.81e-31j, t = 5); log_value is unharmed there.  sigma_via_recursion,
    at any t >= 0, rebuilds it from matrix_mgf's elimination, with no root.
    """

    log_value: complex
    value: complex
    sigma_t: complex
    overflow: bool = False

    def __init__(self, log_value: complex, value: complex, sigma_t: complex, overflow: bool = False):
        # each field is written once, straight into the instance dict, as
        # ModelParams does: the generated frozen __init__ costs more
        fields = self.__dict__
        fields["log_value"] = log_value
        fields["value"] = value
        fields["sigma_t"] = sigma_t
        fields["overflow"] = overflow


@dataclass(frozen=True)
class ErgodicConstants:
    """Growth rate Lambda(alpha), limit function f_check(alpha, x), and the
    geometric convergence factor rate = |theta/lambda_+| in (0, 1)."""

    lambda_of_alpha: complex
    f_check: complex
    rate: float

    def __init__(self, lambda_of_alpha: complex, f_check: complex, rate: float):
        fields = self.__dict__  # as TransformValue
        fields["lambda_of_alpha"] = lambda_of_alpha
        fields["f_check"] = f_check
        fields["rate"] = rate


@dataclass(frozen=True)
class RateFit:
    """Least-squares estimate of the geometric error-decay ratio."""

    ratio: float
    n_points: int


def _constants(params: ModelParams, point: TransformPoint, x: float, spectral: tuple) -> tuple:
    """The alpha stage at (m, x) from the roots (the tuple of spectral._roots):
    (spectral, (nu, A, mu*B, C), Lambda, rate), the constants with no pole at
    alpha = 0.  Requires a finite x, which its callers check; raises
    ParameterError when a constant overflows (|x| near 1e154, |m| near
    9.5e153*sqrt(1-theta) at alpha = 0)."""
    theta, m = params.theta, params.m
    mu = point.mu
    nu = m * (1.0 - theta) / (mu + (1.0 - theta) ** 2)
    centred = x - (1.0 - theta) * nu
    terms = (nu, m * (1.0 - theta) * nu, theta * (centred * centred - mu * nu * nu), 2.0 * nu * centred)
    # centred^2 overflows once |x| nears sqrt(max double) ~ 1e154, and C as |m| grows: at
    # alpha = 0 (|nu| = |m|/(1-theta), its largest at alpha <= 0) C = 2*m*(x - m)/(1-theta),
    # past the double range near |m| = 9.5e153*sqrt(1-theta); a non-finite nu makes A non-finite
    if not all(map(cmath.isfinite, terms)):
        raise ParameterError(f"closed-form constants overflow at m={m!r}, x={x!r}, alpha={point.alpha}")
    return spectral, terms, point.alpha * terms[1] - 0.5 * spectral[4], abs(theta / spectral[0])


def constants(params: ModelParams, point: TransformPoint, x: float) -> ClosedFormConstants:
    """Evaluate nu, A, B = (mu*B)/mu, C at (alpha, x).  Requires a finite x
    and alpha != 0 (SingularConstantError); raises DomainBoundaryError
    where the moduli of the roots coincide (outside D: the real segment
    [(1-theta)^2/2, (1+theta)^2/2], whose end (1-theta)^2/2 is the pole of
    nu), and ParameterError when a constant overflows (|x| near 1e154, |m|
    near 9.5e153*sqrt(1-theta) at alpha = 0, or B alone at a tiny alpha)."""
    check_finite("x", x)
    # _roots' boundary test covers the pole of nu
    nu, a_const, mu_b, c_const = _constants(params, point, x, _roots(params.theta, point.alpha))[1]
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
    spectral = _roots(params.theta, point.alpha)
    if not spectral[5]:
        raise _outside(point.alpha)
    return _constants(params, point, x, spectral)


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


def _assemble(theta, x, alpha, cf, q_t, inv_psi, log_e) -> tuple:
    """(Sigma_t - A*t, log(exp(-t*Lambda)*L_t)) from the sequence terms."""
    bounded = x * x + cf[2] * q_t + cf[3] * (theta - inv_psi)
    # the t-proportional parts of log(L_t) and t*Lambda cancel analytically
    # and are never formed (subtracting two O(t) logs would lose ~t*eps)
    return bounded, -0.5 * log_e + alpha * bounded


def _horizon(params: ModelParams, x: float, alpha: complex, cf: tuple, terms: tuple, t) -> tuple:
    """(log L_t, Sigma_t, log(exp(-t*Lambda)*L_t), regular, q_t, 1/psi_{t+1})
    at (m, x) from the constants there, cf, and the sequence terms of
    spectral._sequence_terms at one horizon t (SCALAR_OPS) or an array of
    them (sweep.ARRAY_OPS): the one text of the horizon formulas.  The terms
    depend on (theta, alpha, t) only, so one evaluation serves every (m, x);
    see spectral._sequence_terms for `regular`."""
    q_t, inv_psi, log_e, log_pi, regular = terms[:5]
    bounded, log_normalized = _assemble(params.theta, x, alpha, cf, q_t, inv_psi, log_e)
    sigma = cf[1] * t + bounded
    return -0.5 * log_pi + alpha * sigma, sigma, log_normalized, regular, q_t, inv_psi


def _scalar_horizon(params: ModelParams, x: float, alpha: complex, stage: tuple, t: int) -> tuple:
    """_horizon on the SCALAR_OPS sequence terms at one horizon t >= 0, from
    an alpha stage.  Raises ValueError unless t is an integer >= 0, and
    ParameterError where log L_t is not finite (A*t beyond the double range:
    |m| near 1e152 at t = 10^6)."""
    t = check_horizon(t)
    terms = _horizon(params, x, alpha, stage[1], _sequence_terms(SCALAR_OPS, params.theta, stage[0], t), t)
    if not cmath.isfinite(terms[0]):
        raise _overflow("log L_t", params, x, alpha, t)
    return terms


def _limit_terms(theta: float, spectral: tuple) -> tuple:
    """(q, 0, log(beta_+*lambda_+)): the t -> inf limits of the first three
    sequence terms, q_t -> q = theta/((1 - lambda_-)*lambda_+),
    1/psi_{t+1} -> 0 and E_t -> beta_+*lambda_+ = 1 - beta_-*lambda_-, from
    the tuple of spectral._roots: like the sequence terms, they depend on
    (theta, alpha) only."""
    lam_plus, lam_minus, beta_plus, beta_minus = spectral[:4]
    return theta / ((1.0 - lam_minus) * lam_plus), 0.0, _log(beta_plus * lam_plus, -beta_minus * lam_minus)


def _log_limit(params: ModelParams, x: float, alpha: complex, cf: tuple, terms: tuple) -> complex:
    """log f_check, the t -> inf limit of log(exp(-t*Lambda)*L_t), at (m, x)
    from the constants there and _limit_terms."""
    q, inv_psi, log_e = terms
    return _assemble(params.theta, x, alpha, cf, q, inv_psi, log_e)[1]


def _coefficients(params: ModelParams, alpha: complex, cf: tuple, terms: tuple, t) -> tuple:
    """(g0, g1, c2) with log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly, from the constants
    at x = m and the sequence terms at t: x enters Sigma_t through x^2, mu*B and C, with
    (mu*B)' = 2*theta*(x - (1-theta)*nu), (mu*B)'' = 2*theta and C' = 2*nu, and g0 is log L_t at x = m.
    At t = inf, from _limit_terms, the coefficients of log f_check: the same lines with q_t -> q,
    1/psi_{t+1} -> 0 and g0 = log f_check(m).  g0 is not tested for overflow."""
    theta, m = params.theta, params.m
    g0 = _log_limit(params, m, alpha, cf, terms) if t == math.inf else _horizon(params, m, alpha, cf, terms, t)[0]
    q_t, inv_psi = terms[:2]
    nu = cf[0]
    g1 = alpha * (2.0 * m + 2.0 * theta * (m - (1.0 - theta) * nu) * q_t + 2.0 * nu * (theta - inv_psi))
    return g0, g1, alpha * (1.0 + theta * q_t)


def quadratic_coefficients(params: ModelParams, point: TransformPoint, t: int) -> tuple[complex, ...]:
    """(g0, g1, c2) with log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly (_coefficients).
    One roots, one constants and one sequence-terms evaluation, at x = m; raises as transform does
    at x = m."""
    stage = _alpha_stage(params, point, params.m)
    t = check_horizon(t)
    terms = _sequence_terms(SCALAR_OPS, params.theta, stage[0], t)
    coefficients = _coefficients(params, point.alpha, stage[1], terms, t)
    if not cmath.isfinite(coefficients[0]):
        raise _overflow("log L_t", params, params.m, point.alpha, t)
    return coefficients


def _gaussian_step(g0: complex, g1: complex, c2: complex, mean: float, var: float) -> complex:
    """log E[exp(g0 + g1*Y + c2*Y^2)] for Y ~ N(mean, var), with q = 1 - 2*c2*var and the principal
    log of q; the expectation exists where Re q > 0, which a caller tests where it may not hold."""
    q = 1.0 - 2.0 * c2 * var
    return g0 + (c2 * mean * mean + g1 * mean + g1 * g1 * var / 2.0) / q - 0.5 * cmath.log(q)


def transform(params: ModelParams, point: TransformPoint, x: float, t: int) -> TransformValue:
    """Exact L_t(alpha, x), assembled as exp(-log(pi_t)/2 + alpha*Sigma_t).

    alpha = 0 gives exactly 1 wherever Sigma_t is finite.  Where it is not
    (A*t = m^2*t at alpha = 0 past the double range: theta = 0.6, m = 5e153,
    t = 999), alpha*Sigma_t is 0*inf and log L_t raises ParameterError,
    although L_t = 1 there (ROADMAP.md, item 10).  Raises DomainError for
    alpha outside D.
    """
    log_value, sigma = _scalar_horizon(params, x, point.alpha, _alpha_stage(params, point, x), t)[:2]
    # log L_t is finite here; beyond the double range the value is inf or 0
    overflow = not _LOG_MIN <= log_value.real <= _LOG_MAX
    value = (cmath.rect(math.inf, log_value.imag) if log_value.real > 0 else 0j) if overflow else cmath.exp(log_value)
    return TransformValue(log_value=log_value, value=value, sigma_t=sigma, overflow=overflow)


def ergodic_constants(params: ModelParams, point: TransformPoint, x: float) -> ErgodicConstants:
    """Lambda(alpha), f_check(alpha, x) and the convergence factor.

    alpha == 0 is the degenerate limit (Lambda = 0, f_check = 1,
    rate = |theta| since lambda_+ -> 1).
    """
    stage = _alpha_stage(params, point, x)
    log_f_check = _log_limit(params, x, point.alpha, stage[1], _limit_terms(params.theta, stage[0]))
    f_check = _exp(log_f_check, "f_check", params, x, point.alpha, None)
    return ErgodicConstants(lambda_of_alpha=stage[2], f_check=f_check, rate=stage[3])


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
    target = _exp(_log_limit(params, x, alpha, stage[1], _limit_terms(params.theta, stage[0])), "f_check", params, x,
                  alpha, None)
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
