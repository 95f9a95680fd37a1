"""Characteristic roots, validity domain, and O(1) sequence ratios.

Everything downstream rests on the quadratic

    lambda^2 - (-2*alpha + theta^2 + 1)*lambda + theta^2 = 0,

whose roots lambda_plus, lambda_minus (labelled by modulus) define the
weights beta_+/- and the auxiliary sequences

    pi_t  = beta_+ * lambda_+^(t+1) + beta_- * lambda_-^(t+1)
    psi_t = beta_+ * (lambda_+/theta)^t + beta_- * (lambda_-/theta)^t.

pi and psi grow geometrically, so raw values overflow long before the
horizons of interest (t up to 10^6).  Public code only forms logs and
ratios, each by one O(1) closed form.  With w = lambda_-/lambda_+ =
(theta/lambda_+)^2 and one bounded factor D_t = beta_+ + beta_-*w^(t+1):

    log pi_t    = (t+1)*log(lambda_+) + log(D_t)
    q_t         = (theta - r_t)/mu = theta*(1 - w^t) / ((lambda_+ - lambda_-)*lambda_+*D_t)
    1/psi_{t+1} = (theta/lambda_+)^(t+1) / D_t,

with r_t = psi_t/psi_{t+1} and mu = -2*alpha: q_t has no pole at alpha = 0.
beta_- vanishes like alpha and beta_+ + beta_- = 1, so near alpha = 0 the
logs come through log1p from lambda_+ - 1 = beta_-*(lambda_+ - lambda_-)
and D_t - 1 = beta_-*(w^(t+1) - 1), and 1 - w^t from expm1: no small
quantity is a difference of nearly equal numbers.  At t = 0 the anchors
pi_0 = 1, r_0 = 1/psi_1 = theta and q_0 = 0 hold exactly.  Raw psi evaluation
(raw_psi) is for cross-checks only and is capped at small indices.

These formulas are written once, in _sequence_terms, over a small
namespace of operations (exp, expm1, log from the excess, integer power,
the singularity guard and the t = 0 anchor).  SCALAR_OPS (cmath and math,
no numpy) evaluates one horizon for every public function; sweep.py holds
ARRAY_OPS, which evaluates an array of horizons for a sweep.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import DomainBoundaryError, DomainError, ParameterError, SingularSequenceError
from .model import ModelParams

# Strict-inequality margin for the root-modulus tests; boundary points are
# rejected rather than guessed.
DOMAIN_MARGIN = 1e-12

# Raw psi/pi values overflow like |lambda_+/theta|^t; cross-checks at
# horizon <= 50 need indices up to 51.
RAW_INDEX_MAX = 51


@dataclass(frozen=True)
class TransformPoint:
    """A transform argument alpha together with its alias mu = -2*alpha.

    A non-finite alpha raises ParameterError: it has no transform to be
    inside or outside the validity domain of."""

    alpha: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not cmath.isfinite(alpha):
            raise ParameterError(f"alpha must be finite, got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def mu(self) -> complex:
        return -2.0 * self.alpha


@dataclass(frozen=True)
class SpectralData:
    """Roots and weights of the characteristic quadratic at one alpha.

    lambda_plus is the root of larger modulus; beta_+/- satisfy
    beta_plus + beta_minus = 1 (since pi_0 = 1).  in_domain records whether
    |lambda_minus| < |theta| < |lambda_plus| holds strictly.  The derived
    log_lambda_plus keeps full relative precision as alpha -> 0.
    """

    lambda_plus: complex
    lambda_minus: complex
    beta_plus: complex
    beta_minus: complex
    in_domain: bool
    log_lambda_plus: complex = field(init=False)

    def __post_init__(self):
        log_lambda_plus = _log(self.lambda_plus, self.beta_minus * (self.lambda_plus - self.lambda_minus))
        object.__setattr__(self, "log_lambda_plus", log_lambda_plus)


@dataclass(frozen=True)
class SequenceRatios:
    """Stably computed sequence quantities at horizon t.

    r = psi_t/psi_{t+1}, inv_psi = 1/psi_{t+1}, theta_minus_r = theta - r_t
    (formed without the subtraction), log_pi = (t+1)*log(lambda_+) +
    log_correction with log_correction = log(D_t).  For alpha on the
    real-negative axis both log arguments are positive reals; branch
    continuation off the principal branch is not attempted.
    """

    t: int
    r: complex
    inv_psi: complex
    log_pi: complex
    theta_minus_r: complex
    log_correction: complex


def roots(params: ModelParams, point: TransformPoint) -> SpectralData:
    """Solve the characteristic quadratic and label the roots by modulus.

    The discriminant is evaluated in the factored form
    (-2*alpha + (theta+1)^2) * (-2*alpha + (theta-1)^2) and the smaller
    root comes from the product relation lambda_+*lambda_- = theta^2, which
    avoids cancellation.  Raises DomainBoundaryError when the two moduli
    coincide within DOMAIN_MARGIN (labelling would be arbitrary there).
    """
    theta = params.theta
    theta2 = theta * theta
    alpha = point.alpha
    b = -2.0 * alpha + theta2 + 1.0
    disc = (-2.0 * alpha + (theta + 1.0) ** 2) * (-2.0 * alpha + (theta - 1.0) ** 2)
    s = cmath.sqrt(disc)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    lam_plus = 0.5 * (b + s)
    lam_minus = theta2 / lam_plus
    if abs(lam_plus) - abs(lam_minus) <= DOMAIN_MARGIN * abs(lam_plus):
        raise DomainBoundaryError(
            f"|lambda_+| == |lambda_-| at alpha={alpha}: root labelling is ambiguous "
            "(boundary of the validity domain)"
        )
    denom = lam_plus - lam_minus
    beta_plus = (1.0 - lam_minus) / denom
    # lam_plus - 1 == mu/(1 - lam_minus) by the quadratic; the direct
    # subtraction cancels catastrophically as alpha -> 0 (lam_plus -> 1)
    beta_minus = -2.0 * alpha / ((1.0 - lam_minus) * denom)
    abs_theta = abs(theta)
    in_domain = (
        abs(lam_minus) < (1.0 - DOMAIN_MARGIN) * abs_theta
        and abs(lam_plus) > (1.0 + DOMAIN_MARGIN) * abs_theta
    )
    return SpectralData(lam_plus, lam_minus, beta_plus, beta_minus, in_domain)


def domain_check(params: ModelParams, point: TransformPoint) -> bool:
    """True iff |lambda_-|/|theta| < 1 < |lambda_+|/|theta| strictly.

    Every finite alpha on the real interval (-inf, 0] passes.  Boundary
    points (including equal-modulus root pairs) return False rather than
    raising.  A non-finite alpha never gets here: TransformPoint rejects it
    with ParameterError.
    """
    try:
        return roots(params, point).in_domain
    except DomainBoundaryError:
        return False


def _int_power(base: complex, n: int) -> complex:
    """base**n for integer n: real arithmetic for a real base (so a negative
    base gives an exactly real result), exp(n*log) otherwise.  Underflows
    gracefully to 0 for |base| < 1 and large n."""
    if base.imag == 0.0:
        return complex(base.real**n)
    return cmath.exp(n * cmath.log(base))


def _expm1(z: complex) -> complex:
    """exp(z) - 1, accurate to a few ulps also for small |z|.

    For Re z <= -1, e^x*cos(y) - 1 has no cancellation and is exactly -1
    once e^x no longer moves 1, as for a real z; the small-|z| form would
    wander by an ulp or two there."""
    x, y = z.real, z.imag
    if y == 0.0:
        return complex(math.expm1(x), y)
    exp_x = math.exp(x)
    if x <= -1.0:
        re = exp_x * math.cos(y) - 1.0
    else:
        half_sin = math.sin(0.5 * y)
        re = math.expm1(x) * math.cos(y) - 2.0 * half_sin * half_sin
    return complex(re, exp_x * math.sin(y))


def _log(value: complex, excess: complex) -> complex:
    """Principal log(value) from value and excess = value - 1, each free of
    cancellation: log1p(excess) near 1, else log(value), which is then the
    more accurate of the two."""
    if abs(excess) >= 0.5:
        return cmath.log(value)
    x, y = excess.real, excess.imag
    if y == 0.0:
        return complex(math.log1p(x), y)
    return complex(0.5 * math.log1p(x * (2.0 + x) + y * y), math.atan2(y, 1.0 + x))


def _guard(t: int, d_t: complex, *values: complex) -> bool:
    """Raise SingularSequenceError where D_t vanishes or a value is not finite."""
    if d_t == 0:
        raise SingularSequenceError(f"pi_{t} and psi_{t + 1} vanish (D_{t} = 0)")
    if not all(map(cmath.isfinite, values)):
        raise SingularSequenceError(f"pi_{t} or psi_{t + 1} is not finite")
    return True


def _at_zero(t: int, anchor: complex, value: complex) -> complex:
    return anchor if t == 0 else value


# The scalar operations of the horizon formulas (cmath and math, no numpy).
SCALAR_OPS = SimpleNamespace(exp=cmath.exp, expm1=_expm1, log=_log, power=_int_power, guard=_guard, at_zero=_at_zero)


def _sequence_terms(ops: SimpleNamespace, theta: float, spectral: SpectralData, t):
    """(q_t, 1/psi_{t+1}, log D_t, log pi_t, regular, w^t, D_t) at one
    horizon t (SCALAR_OPS) or an array of them (sweep.ARRAY_OPS).

    The one text of the closed forms in the module docstring.  At t = 0 the
    anchors pi_0 = 1 (log pi_0 = 0, log D_0 = -log lambda_+) and
    1/psi_1 = theta are exact, and q_0 is exactly 0.  `regular` is
    the guard's verdict: the scalar guard raises SingularSequenceError for a
    vanishing D_t or a non-finite result, the array guard returns the mask
    of rows where neither happened.
    """
    lam_plus, lam_minus = spectral.lambda_plus, spectral.lambda_minus
    beta_plus, beta_minus = spectral.beta_plus, spectral.beta_minus
    # D_t needs w^t accurate when beta_+ is small (large |alpha|), q_t w^t - 1
    w = lam_minus / lam_plus
    t_log_w = t * cmath.log(w)
    w_t, w_t_m1 = ops.exp(t_log_w), ops.expm1(t_log_w)
    d_t = beta_plus + beta_minus * w * w_t
    ops.guard(t, d_t)
    # D_t - 1 = beta_-*(w^(t+1) - 1); w*(w^t - 1) and w - 1 share a sign for real w
    log_correction = ops.log(d_t, beta_minus * (w * w_t_m1 + (w - 1.0)))
    q_t = -theta * w_t_m1 / ((lam_plus - lam_minus) * lam_plus * d_t)
    inv_psi = ops.power(theta / lam_plus, t + 1) / d_t
    log_pi = (t + 1) * spectral.log_lambda_plus + log_correction
    regular = ops.guard(t, d_t, inv_psi, q_t, log_pi)
    inv_psi = ops.at_zero(t, complex(theta), inv_psi)
    log_correction = ops.at_zero(t, -spectral.log_lambda_plus, log_correction)
    log_pi = ops.at_zero(t, 0j, log_pi)
    return q_t, inv_psi, log_correction, log_pi, regular, w_t, d_t


def sequence_ratios(spectral: SpectralData, params: ModelParams, t: int) -> SequenceRatios:
    """Compute r_t = psi_t/psi_{t+1}, theta - r_t, 1/psi_{t+1} and log(pi_t).

    One O(1) closed form at every horizon, given in the module docstring.
    At t = 0 the anchors r_0 = 1/psi_1 = theta and log(pi_0) = 0 are exact
    and theta - r_0 is exactly 0.  A vanishing D_t means pi_t and psi_{t+1}
    vanish and raises SingularSequenceError, as does any non-finite result.
    """
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    if not spectral.in_domain:
        raise DomainError("sequence ratios are only defined inside the validity domain")
    theta, lam_plus, lam_minus = params.theta, spectral.lambda_plus, spectral.lambda_minus
    q_t, inv_psi, log_correction, log_pi, _, w_t, d_t = _sequence_terms(SCALAR_OPS, theta, spectral, t)
    if t == 0:
        r = complex(theta)
    else:
        r = theta * (spectral.beta_plus + spectral.beta_minus * w_t) / (lam_plus * d_t)
        _guard(t, d_t, r)
    # mu = beta_-*(1 - lambda_-)*(lambda_+ - lambda_-), free of the lambda_+ ~ 1 cancellation
    theta_minus_r = q_t * spectral.beta_minus * (1.0 - lam_minus) * (lam_plus - lam_minus)
    return SequenceRatios(t, r, inv_psi, log_pi, theta_minus_r, log_correction)


def raw_psi(spectral: SpectralData, params: ModelParams, s: int) -> complex:
    """psi_s evaluated directly; cross-check use only, capped at small s."""
    if not 0 <= s <= RAW_INDEX_MAX:
        raise ValueError(f"raw psi evaluation is capped at index {RAW_INDEX_MAX}, got {s}")
    z = spectral.lambda_plus / params.theta
    return spectral.beta_plus * _int_power(z, s) + spectral.beta_minus * _int_power(z, -s)
