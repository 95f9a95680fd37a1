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
(theta/lambda_+)^2 and one bounded factor E_t = pi_t/lambda_+^t:

    log pi_t    = t*log(lambda_+) + log(E_t)
    q_t         = (theta - r_t)/mu = theta*(1 - w^t) / ((lambda_+ - lambda_-)*E_t)
    1/psi_{t+1} = theta*(theta/lambda_+)^t / E_t,

with r_t = psi_t/psi_{t+1} and mu = -2*alpha: q_t has no pole at alpha = 0.
beta_- vanishes like alpha and beta_+ + beta_- = 1, so near alpha = 0 the
logs come through log1p from lambda_+ - 1 = beta_-*(lambda_+ - lambda_-)
and E_t - 1 = beta_-*lambda_-*(w^t - 1) (as pi_0 = 1), and 1 - w^t from
expm1: no small quantity is a difference of nearly equal numbers.  E_0 = 1
exactly, so the anchors pi_0 = 1, r_0 = 1/psi_1 = theta and q_0 = 0 need
no special case.  Raw psi evaluation (raw_psi) serves only the Wronskian
check of verify.py and the tests.

_roots alone decides membership of D, by one test of the root moduli:
it returns the roots and weights at an alpha inside D as the plain tuple
(lambda_+, lambda_-, beta_+, beta_-, log lambda_+) and raises DomainError
elsewhere.  SpectralData is that tuple with field names, which only the
public roots() builds, so an evaluation builds none.  The formulas are
written once, in _sequence_terms, over a small namespace of operations
(expm1, log from the excess, integer power and the singularity guard).
SCALAR_OPS (cmath and math, no numpy) evaluates one horizon for every
public function; sweep.py holds ARRAY_OPS, which evaluates an array of
horizons for a sweep.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from types import SimpleNamespace

from .errors import DomainBoundaryError, DomainError, ParameterError, SingularSequenceError
from .model import ModelParams, check_horizon

# Strict-inequality margin of the root-modulus test in _roots; boundary points are
# rejected rather than guessed.
DOMAIN_MARGIN = 1e-12

# raw_psi serves only verify's check_wronskian (indices up to 21) and the
# tests; its values overflow like |lambda_+/theta|^s, so it stops here.
RAW_INDEX_MAX = 51


class TransformPoint(namedtuple("TransformPoint", "alpha")):
    """A transform argument alpha together with its alias mu = -2*alpha.

    A non-finite alpha raises ParameterError: it has no transform to be
    inside or outside the validity domain of."""

    __slots__ = ()

    def __new__(cls, alpha: complex):
        alpha = complex(alpha)
        if not cmath.isfinite(alpha):
            raise ParameterError(f"alpha must be finite, got {alpha!r}")
        return tuple.__new__(cls, (alpha,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # as ModelParams': _replace validates through __new__

    @property
    def mu(self) -> complex:
        return -2.0 * self.alpha


class SpectralData(namedtuple("SpectralData", "lambda_plus lambda_minus beta_plus beta_minus log_lambda_plus")):
    """Roots and weights of the characteristic quadratic at one alpha in D:
    the tuple of _roots with field names.

    lambda_plus is the root of larger modulus; beta_+/- satisfy
    beta_plus + beta_minus = 1 (since pi_0 = 1).  log_lambda_plus keeps
    full relative precision as alpha -> 0.
    """

    __slots__ = ()


class SequenceRatios(namedtuple("SequenceRatios", "t r inv_psi log_pi theta_minus_r")):
    """Stably computed sequence quantities at horizon t.

    r = psi_t/psi_{t+1}, inv_psi = 1/psi_{t+1}, theta_minus_r = theta - r_t
    (formed without the subtraction) and log_pi = log(pi_t) =
    t*log(lambda_+) + log(E_t).  For alpha on the real-negative axis both
    log arguments are positive reals; branch continuation off the
    principal branch is not attempted.
    """

    __slots__ = ()


def _roots(theta: float, alpha: complex) -> tuple:
    """(lambda_+, lambda_-, beta_+, beta_-, log lambda_+): the fields of
    roots() as a plain tuple, which the evaluation carries.

    The discriminant is evaluated in the factored form
    (-2*alpha + (theta+1)^2) * (-2*alpha + (theta-1)^2) and the smaller
    root comes from the product relation lambda_+*lambda_- = theta^2, which
    avoids cancellation.  The one membership test of D: raises
    DomainBoundaryError unless |lambda_-| < (1 - DOMAIN_MARGIN)*|theta| and
    |lambda_+| > (1 + DOMAIN_MARGIN)*|theta| (near equal moduli the
    labelling would be arbitrary), and DomainError where the roots or
    log lambda_+ lie beyond the double range (|alpha| near 1e308).
    """
    theta2 = theta * theta
    b = -2.0 * alpha + theta2 + 1.0
    f_plus, f_minus = -2.0 * alpha + (theta + 1.0) ** 2, -2.0 * alpha + (theta - 1.0) ** 2
    disc = f_plus * f_minus  # past |alpha| ~ 1e154 it overflows, and each factor's root serves
    s = cmath.sqrt(disc) if cmath.isfinite(disc) else cmath.sqrt(f_plus) * cmath.sqrt(f_minus)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    lam_plus = 0.5 * b + 0.5 * s  # halved first: b + s overflows past |alpha| ~ 4e307
    lam_minus = theta2 / lam_plus
    abs_theta = abs(theta)
    try:
        abs_plus, abs_minus = abs(lam_plus), abs(lam_minus)
    except OverflowError:  # finite parts whose modulus lies beyond the double range
        abs_plus = abs_minus = math.nan
    if abs_minus < (1.0 - DOMAIN_MARGIN) * abs_theta and abs_plus > (1.0 + DOMAIN_MARGIN) * abs_theta:
        denom = lam_plus - lam_minus
        beta_plus = (1.0 - lam_minus) / denom
        # lam_plus - 1 == mu/(1 - lam_minus) by the quadratic; the direct
        # subtraction cancels catastrophically as alpha -> 0 (lam_plus -> 1)
        beta_minus = -2.0 * alpha / ((1.0 - lam_minus) * denom)
        # log lambda_+ from its excess lambda_+ - 1 = beta_-*(lambda_+ - lambda_-)
        log_lambda_plus = _log(lam_plus, beta_minus * denom)
        if cmath.isfinite(log_lambda_plus):
            return lam_plus, lam_minus, beta_plus, beta_minus, log_lambda_plus
    elif math.isfinite(abs_plus):
        raise DomainBoundaryError(
            f"a root modulus lies within DOMAIN_MARGIN of |theta| at alpha={alpha}: root labelling "
            "is ambiguous (boundary of the validity domain)"
        )
    raise DomainError(f"alpha={alpha} is outside the validity domain: its roots lie beyond the double range")


def roots(params: ModelParams, point: TransformPoint) -> SpectralData:
    """Solve the characteristic quadratic and label the roots by modulus:
    the record of _roots' tuple, raising as _roots does outside D."""
    return SpectralData(*_roots(params.theta, point.alpha))


def domain_check(params: ModelParams, point: TransformPoint) -> bool:
    """True iff alpha lies in D, the test of _roots: |lambda_-|/|theta| <
    1 < |lambda_+|/|theta| strictly, with the roots within the double range.

    Every alpha on the real interval [-max_double/2, 0] passes (below it
    -2*alpha overflows).  Boundary points (including equal-modulus root
    pairs) return False rather than raising.  A non-finite alpha never gets
    here: TransformPoint rejects it with ParameterError.
    """
    try:
        _roots(params.theta, point.alpha)
    except DomainError:
        return False
    return True


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


def _guard(t: int, e_t: complex, *values: complex) -> bool:
    """Raise SingularSequenceError where E_t vanishes or a value is not finite."""
    if e_t == 0:
        raise SingularSequenceError(f"pi_{t} and psi_{t + 1} vanish (E_{t} = 0)")
    if not all(map(cmath.isfinite, values)):
        raise SingularSequenceError(f"pi_{t} or psi_{t + 1} is not finite")
    return True


# The scalar operations of the horizon formulas (cmath and math, no numpy).
SCALAR_OPS = SimpleNamespace(expm1=_expm1, log=_log, power=_int_power, guard=_guard)


def _log_w(theta: float, lam_plus: complex, lam_minus: complex) -> complex:
    """log(w), w = lambda_-/lambda_+ = theta^2/lambda_+^2, from the logs of |theta| and
    lambda_+ where w underflows to 0 (|alpha| past about 1e200, |theta| below 1e-162)."""
    w = lam_minus / lam_plus
    return cmath.log(w) if w else 2.0 * (math.log(abs(theta)) - cmath.log(lam_plus))


def _sequence_terms(ops: SimpleNamespace, theta: float, spectral: tuple, t):
    """(q_t, 1/psi_{t+1}, log E_t, log pi_t, regular, E_t) at one
    horizon t (SCALAR_OPS) or an array of them (sweep.ARRAY_OPS), from the
    tuple of _roots or its SpectralData record.

    The one text of the closed forms in the module docstring, whose anchors
    log pi_0 = 0, 1/psi_1 = theta and q_0 = 0 come out exact since
    E_0 - 1 = 0.  `regular` is the guard's verdict: the scalar guard raises
    SingularSequenceError for a vanishing E_t or a non-finite result, the
    array guard returns the mask of rows where neither happened.
    """
    lam_plus, lam_minus, _, beta_minus, log_lambda_plus = spectral
    w_t_m1 = ops.expm1(t * _log_w(theta, lam_plus, lam_minus))  # w^t - 1
    excess = beta_minus * lam_minus * w_t_m1
    e_t = 1.0 + excess
    ops.guard(t, e_t)
    log_e = ops.log(e_t, excess)
    q_t = -theta * w_t_m1 / ((lam_plus - lam_minus) * e_t)
    inv_psi = theta * ops.power(theta / lam_plus, t) / e_t
    # (t+1)*log lambda_+ + log D_t keeps the last bit of a large log pi_t
    log_pi = (t + 1) * log_lambda_plus + (log_e - log_lambda_plus)
    regular = ops.guard(t, e_t, inv_psi, q_t, log_pi)
    return q_t, inv_psi, log_e, log_pi, regular, e_t


def sequence_ratios(spectral: SpectralData, params: ModelParams, t: int) -> SequenceRatios:
    """Compute r_t = psi_t/psi_{t+1}, theta - r_t, 1/psi_{t+1} and log(pi_t).

    One O(1) closed form at every horizon, given in the module docstring,
    and r_0 = theta, whose numerator beta_+ + beta_-*w^t has no cancellation
    at large |alpha|.  A vanishing E_t means pi_t and psi_{t+1} vanish and
    raises SingularSequenceError, as does any non-finite result.
    """
    t = check_horizon(t)
    theta = params.theta
    lam_plus, lam_minus, beta_plus, beta_minus = spectral[:4]
    q_t, inv_psi, _, log_pi, _, e_t = _sequence_terms(SCALAR_OPS, theta, spectral, t)
    if t == 0:
        r = complex(theta)
    else:
        # w^t itself, accurate when beta_+ is small (large |alpha|)
        w_t = cmath.exp(t * _log_w(theta, lam_plus, lam_minus))
        r = theta * (beta_plus + beta_minus * w_t) / e_t
        _guard(t, e_t, r)
    # mu = beta_-*(1 - lambda_-)*(lambda_+ - lambda_-), free of the lambda_+ ~ 1 cancellation
    theta_minus_r = q_t * beta_minus * (1.0 - lam_minus) * (lam_plus - lam_minus)
    return SequenceRatios(t, r, inv_psi, log_pi, theta_minus_r)


def raw_psi(spectral: SpectralData, params: ModelParams, s: int) -> complex:
    """psi_s evaluated directly from the roots, for the Wronskian check and
    the tests only; capped at s <= RAW_INDEX_MAX."""
    if not 0 <= s <= RAW_INDEX_MAX:
        raise ValueError(f"raw psi evaluation is capped at index {RAW_INDEX_MAX}, got {s}")
    z = spectral.lambda_plus / params.theta
    return spectral.beta_plus * _int_power(z, s) + spectral.beta_minus * _int_power(z, -s)
