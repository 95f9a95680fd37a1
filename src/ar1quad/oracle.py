"""Oracles that check the closed form.

The matrix oracle touches none of the spectral machinery; the Monte Carlo
oracle checks the closed form against itself one step on:

* matrix_mgf: the Gaussian quadratic-form identity.  Conditionally on
  X_0 = x, (X_1..X_t) is normal with mean vector mu and covariance Sigma,
  so E[exp(alpha*S_t)] = exp(alpha*x^2) * det(I - 2*alpha*Sigma)^(-1/2)
  * exp(alpha * mu' (I - 2*alpha*Sigma)^(-1) mu).  The process is Markov:
  with L the unit lower-bidiagonal innovation map (-theta below the
  diagonal), L*(X - mu) is standard normal, so Sigma = L^(-1) L^(-T) and
  both terms come from the tridiagonal B = L L' - 2*alpha*I and w = L*mu:
  det(I - 2*alpha*Sigma) = det B and mu'(I - 2*alpha*Sigma)^(-1) mu =
  w' B^(-1) w.  One forward elimination of B (_eliminate), in pure Python,
  gives both; no t x t matrix is formed.  Its state settles, in doubles, on
  a short cycle, mostly a fixed point or a 2-cycle, so it stops there, and
  _read adds the repeated tail exactly, at t or any shorter horizon: its
  cost is bounded by the transient (plus lcm(16, p) on a cycle of period
  p > 16), not by t, and its bits are those of all t steps.  With
  det B = pi_t and Sigma_t = x^2 + w' B^(-1) w they are the two factors of
  the paper's L_t = pi_t^(-1/2)*exp(alpha*Sigma_t), at a real or complex
  alpha: _log_mgf forms log L_t (matrix_mgf is its real face), and
  sigma_via_recursion Sigma_t, with no root and no log.

* monte_carlo_mgf: the empirical mean, with its standard error, of the
  one-step identity L_t(alpha, x) = exp(alpha*x^2)*E[L_{t-1}(alpha, X_1) |
  X_0 = x] (the process is Markov), with log L_{t-1} the closed form's exact
  quadratic in X_1 (quadratic_coefficients).  Each path draws X_1 alone, one
  standard normal of one Generator(SFC64(seed)) vector, so the result
  depends on (seed, n) only.  It reads no elimination.  verify's one_step
  check evaluates the same expectation exactly (closed_form._gaussian_step),
  so this sampled face of it is for callers and the tests, not verify.

unconditional_transform is the exact Gaussian integral of L_t(alpha, .)
over the stationary start law N(m, 1/(1-theta^2)); it raises
ParameterError where its value lies beyond the double range.

Both oracles take a real alpha only (a complex one on the real axis is its
real part, any other raises ParameterError).  At a complex alpha log det B
(_log_det) is a sum of principal logs of the pivots d_1 = 1 - 2*alpha,
d_s = 1 + theta^2 - 2*alpha - theta^2/d_{s-1}.  On the half-plane
a = Re alpha < (1-|theta|)^2/2 that sum is proved to be one continuous
branch: every pivot has

    Re d_s >= b = min(1 - 2a, lambda_+(a)) > 0,

lambda_+(a) the larger root of r^2 - (1 + theta^2 - 2a)*r + theta^2, real
there with lambda_- < |theta| < lambda_+.  Re d_1 = 1 - 2a >= b.  If
Re d_{s-1} >= b > 0, then Re(1/d) <= 1/Re d gives Re d_s >= g(Re d_{s-1})
>= g(b) >= b, where g(r) = 1 + theta^2 - 2a - theta^2/r is increasing on
r > 0 and g(r) - r = -(r - lambda_-)(r - lambda_+)/r >= 0 on
[lambda_-, lambda_+], an interval that holds b: b <= lambda_+, and
1 - 2a > 1 - (1-|theta|)^2 >= |theta| > lambda_-.  So no pivot meets the
cut of the principal log, each log is continuous in alpha, and so is their
sum, which is real on the real axis: it is log det B continued from there
(exact arithmetic; tests/test_oracle.py checks the computed pivots against
b).  The closed form's log pi_t is still only measured to take the same
branch (13,450 seeded draws against a 60-digit reference), so the complex
face of the matrix oracle stays private.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .closed_form import _LOG_MAX, _LOG_MIN, _exp, _gaussian_step, _overflow, quadratic_coefficients
from .errors import ConvergenceError, ParameterError
from .model import ModelParams, check_finite, check_horizon
from .spectral import TransformPoint, _log, _roots


class OracleResult(namedtuple("OracleResult", "value method stderr n_samples", defaults=(None, None))):
    """A single oracle evaluation, its method "matrix" or "monte_carlo";
    stderr/n_samples only for Monte Carlo."""

    __slots__ = ()


def _exact_square(p: float) -> tuple[float, float]:
    """(p*p, e) with p*p + e exact: Dekker's TwoProduct, splitting p into
    two halves of at most 26 significant bits whose products are exact."""
    square = p * p
    c = 134217729.0 * p  # 2^27 + 1
    high = c - (c - p)
    low = p - high
    return square, ((high * high - square) + 2.0 * high * low) + low * low


def _real_alpha(alpha) -> float:
    """alpha as a finite float; a complex alpha must lie on the real axis."""
    if getattr(alpha, "imag", 0.0) != 0.0:
        raise ParameterError(f"the matrix and Monte Carlo oracles take a real alpha only, got {alpha!r}")
    a = float(getattr(alpha, "real", alpha))
    check_finite("alpha", a)
    return a


def _fsum(values: list) -> float:
    """fsum(values), or the plain sum, +/-inf, where a sum of finite values
    passes the double range (fsum raises OverflowError)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)


def _tail(values, repeats: list):
    """values with its last len(repeats) entries repeated repeats[j] more
    times each, a count c as ldexp(v, k) for each set bit k of c: every term
    is exact, so fsum (rounded once) returns the bits of the written-out sum
    with O(log c) more terms.  With no repeats, values as given."""
    if not repeats:
        return values
    values = list(values)
    for v, c in zip(values[len(values) - len(repeats):], repeats):
        values += [math.ldexp(v, k) for k in range(c.bit_length()) if c >> k & 1]
    return values


def _signs(u: complex, z: complex) -> tuple:
    """The sign of each part of the state (u, z): states equal by == and
    here are equal bit for bit (== does not tell 0.0 from -0.0)."""
    copysign = math.copysign
    return copysign(1.0, u.real), copysign(1.0, u.imag), copysign(1.0, z.real), copysign(1.0, z.imag)


def _csum(values: list, repeats: list = ()) -> complex:
    """The sum, its real and imaginary parts each by _fsum, with _tail's
    repeats."""
    real, imag = [v.real for v in values], [v.imag for v in values]
    if repeats:
        real, imag = _tail(real, repeats), _tail(imag, repeats)
    return complex(_fsum(real), _fsum(imag))


def _eliminate(params: ModelParams, alpha: complex, x: float, t: int) -> tuple:
    """(scale, offsets, quads, start): the forward elimination of
    B = L L' - 2*alpha*I, at a real or complex alpha, with no pivot test,
    stopped at its floating-point cycle: the one tridiagonal elimination, of
    matrix_mgf, sigma_via_recursion and verify, whose sums _read forms at
    any horizon up to t.

    B has diagonal 1 - 2*alpha, then 1 + theta^2 - 2*alpha, and -theta beside
    it.  Its pivots d_s = 1 + u_s are carried as offsets, u_1 = -2*alpha and
    u_s = theta^2*u_{s-1}/(1 + u_{s-1}) - 2*alpha, with theta^2 carried
    exactly, as a double and its rounding error, so a tiny |alpha| keeps its
    digits.  z_1 = w_1, z_s = w_s + theta*z_{s-1}/d_{s-1} runs on
    w = L*mu = (mu_1, m*(1 - theta), ..., m*(1 - theta)) over scale =
    max(|mu_1|, |m|) (1 if w is empty or zero), so a huge mean stays finite:
    det B = prod(d_s) and w' B^(-1) w = scale^2*sum(quads), quads the terms
    z_s^2/d_s.  A pivot of exactly 0 ends it with an infinite last term; an
    overflowing mean raises ParameterError.

    Each step is a function of the state (u_s, z_s) alone, which in doubles
    settles on a short cycle (d_s -> lambda_+, z_s at the rate
    |theta/lambda_+|).  The state is kept every 16 steps; the loop stops the
    first time the state equals the kept one, bit for bit, and every later
    step repeats the p <= 16 since: start is the first of them (None where
    the loop ran to t), and _read repeats them exactly.  So the sums keep
    the bits of all t steps.  Where m != 0 the loop runs about
    37/ln|lambda_+/theta| steps, z_s settling on its last bit: 49 at
    theta = 0.6, alpha = -0.3, x = 0.5, m = 1, and at alpha = -1e-6, x = 1,
    545 at theta = 0.95 and 17,489 at 0.999.  At m = 0 (w = 0) z_s -> 0, and
    at the first kept state where |z_s|^2 < 2^-120 * max|quads| z_s is
    zeroed, so the loop stops once u_s repeats, about 42/ln|lambda_+/theta|
    steps in: 817 and 24,145 there (unzeroed z_s decayed through the
    subnormals, 14,465 and 426,113 steps, or turned on a ring of them).
    The offsets are untouched, and so are log det B's bits.  The dropped
    quads, geometric from there, sum to some 2^-120/(1 - |theta/lambda_+|^2)
    of the largest; fsum rounds the exact sum once, so they could move its
    last bit only where it lies that close to a tie, which no seeded draw
    has shown (README.md).

    A second state, kept at steps 1024, 2048, 4096, ..., is compared every
    16 steps, so a cycle of period p > 16 that starts at step c stops by
    step 2*max(c, lcm(16, p), 512) + lcm(16, p): start is the first such
    state on the cycle with lcm(16, p) steps before the next, and the
    repeated block is lcm(16, p) steps long, whole rounds of the cycle.
    A cycle of p <= 16 stops on the 16-step state first, so its runs are
    unchanged.  At theta = -0.7394983583580568,
    alpha = 0.19622054165068836 + 0.004193098758473933j, x = 0.5, m = 1,
    near the slit and off the half-plane Re alpha < (1-|theta|)^2/2, the
    state settles on a 23-step cycle some 3,900 steps in, and the loop
    stops at 4,464 steps (8,560 at m = 0), where it ran to t.  A state that
    never repeats (a NaN pivot, a real alpha on or beyond the slit) runs to
    t, as does a transient longer than t.
    """
    theta, m = params.theta, params.m
    mean_1 = m + theta * (x - m)
    # the largest |entry| of w is at most twice this (w is empty at t = 0)
    scale = max((abs(mean_1), abs(m))[:t], default=0.0) or 1.0
    if not math.isfinite(scale):
        raise _overflow("the conditional mean", params, x, alpha, t)
    theta_sq, theta_sq_err = _exact_square(theta)
    a2 = 2.0 * alpha
    w = m / scale * (1.0 - theta)
    z, u = mean_1 / scale, -a2
    offsets, quads, start = [], [], None
    kept, kept_u, kept_z = 0, math.nan, math.nan  # the kept state; NaN matches none
    far, far_u, far_z, refresh = 0, math.nan, math.nan, 1024  # the state kept at s = 1024, 2048, 4096, ...
    peak = 0.0  # the largest |quad| so far, at m = 0
    try:
        for s in range(t):
            # z settles last: its test fails first through the transient
            if z == kept_z and u == kept_u and _signs(u, z) == _signs(kept_u, kept_z):
                start = kept
                break
            if not s & 15:
                if not w and s:  # m = 0: z_s -> 0, and its negligible tail may run on a ring of subnormals
                    peak = max(peak, *map(abs, quads[-16:]))
                    if abs(z) ** 2 < 2.0 ** -120 * peak:
                        z *= 0.0
                if z == far_z and u == far_u and _signs(u, z) == _signs(far_u, far_z):
                    start = far
                    break
                if s == refresh:
                    far, far_u, far_z, refresh = s, u, z, 2 * s
                kept, kept_u, kept_z = s, u, z
            d = 1.0 + u
            offsets.append(u)
            quads.append(z * z / d)
            r = u / d
            u = theta_sq * r + (theta_sq_err * r - a2)
            z = w + theta * z / d
    except ZeroDivisionError:  # d = 0: w' B^(-1) w is infinite
        quads.append(math.inf)
    return scale, offsets, quads, start


def _read(alpha: complex, elimination: tuple, h: int) -> tuple:
    """(scale, offsets, repeats, quad = sum(z_s^2/d_s)), quad rounded once, at
    horizon h <= t from _eliminate's run to t: its first h steps, or past the
    loop's stop all of them, the cycle's repeated repeats[j] more times each.
    From h = 2 on (the scale is the same) these are the bits of a run to h."""
    scale, offsets, quads, start = elimination
    stop, repeats = len(offsets), ()
    if h < stop:
        offsets, quads = offsets[:h], quads[:h]
    elif h > stop and start is not None:
        rounds, rest = divmod(h - stop, stop - start)
        repeats = [rounds + 1] * rest + [rounds] * (stop - start - rest)
    quad = _csum(quads, repeats) if isinstance(alpha, complex) else math.fsum(_tail(quads, repeats))
    return scale, offsets, repeats, quad


def _log_det(alpha: complex, elimination: tuple) -> complex:
    """log det B = sum(log d_s) from _read's offsets and repeats alone: each
    pivot log comes from its offset, log1p(u_s) at a real alpha (a complex
    one on the real axis is its real part: a float is returned),
    spectral._log(1 + u_s, u_s) at any other; the repeated tail enters
    through _tail, and each sum is rounded once.  Every u_s depends on
    (theta, alpha) alone, so every (m, x) gives the same bits at one horizon.
    A pivot <= 0 or NaN raises ConvergenceError."""
    offsets, repeats = elimination[1:3]
    if isinstance(alpha, complex) and not alpha.imag:
        alpha, offsets = alpha.real, [u.real for u in offsets]
    try:  # log1p raises at a pivot d = 1 + u <= 0, log at d = 0; a NaN pivot gives NaN
        log_det = (_csum([_log(1.0 + u, u) for u in offsets], repeats) if alpha.imag
                   else math.fsum(_tail(map(math.log1p, offsets), repeats)))
    except ValueError:
        log_det = math.nan
    if cmath.isnan(log_det):
        raise ConvergenceError(f"I - 2*alpha*Sigma is not positive definite at alpha={alpha}: "
                               "the moment generating function diverges")
    return log_det


def _log_mgf(alpha: complex, x: float, elimination: tuple, log_det: complex) -> complex:
    """log L_t = alpha*x^2 - log det B/2 + alpha*w' B^(-1) w from _read's
    (scale, offsets, repeats, quad) and _log_det's log det B at that
    reading (a complex alpha on the real axis is its real part)."""
    scale, quad = elimination[0], elimination[3]
    if isinstance(alpha, complex) and not alpha.imag:
        alpha, quad = alpha.real, quad.real
    # at a real alpha the three terms share its sign; fsum rounds their sum
    # once, where two additions can land an ulp of log L_t off, a relative
    # error of |log L_t|*eps in the value
    terms = (alpha * x * x, -0.5 * log_det, (alpha * scale) * scale * quad)
    return _csum(terms) if alpha.imag else complex(_fsum(terms))


def _sigma(x: float, elimination: tuple) -> complex:
    """Sigma_t = x^2 + scale^2*quad from _read's (scale, offsets, repeats, quad)."""
    scale, _, _, quad = elimination
    return complex(x * x + scale * (scale * quad.real), scale * (scale * quad.imag))


def matrix_mgf(params: ModelParams, alpha: float, x: float, t: int) -> OracleResult:
    """E[exp(alpha*S_t) | X_0 = x] via the quadratic-form identity, at a
    cost bounded by the elimination's transient, not by t (_eliminate).

    exp(_log_mgf) on _eliminate, log det B (_log_det) and log L_t each
    rounded once: alpha = 0 gives 1, and alpha < 0 gives 0 where the
    quadratic form overflows or (t >= 1) where -2*alpha does.  B is
    positive definite exactly when I - 2*alpha*Sigma is, so a pivot <= 0
    means the moment generating function diverges (ConvergenceError).
    Near the divergence
    point the value stays within 2*eps*cond(I - 2*alpha*Sigma) of the exact
    value at the double inputs (1.5*eps*cond at worst at 0.999999 of the
    pole, t <= 500).  A non-finite alpha or x, a complex alpha off the real
    axis, an overflowing mean (at a finite -2*alpha) and a value beyond the
    double range raise ParameterError.
    """
    a = _real_alpha(alpha)
    check_finite("x", x)
    t = check_horizon(t)
    if t and -2.0 * a == math.inf:  # every pivot, and det B, is infinite
        return OracleResult(value=0.0, method="matrix")
    reading = _read(a, _eliminate(params, a, x, t), t)
    log_value = _log_mgf(a, x, reading, _log_det(a, reading)).real
    if log_value > _LOG_MAX:
        raise _overflow("L_t", params, x, a, t)
    return OracleResult(value=math.exp(log_value), method="matrix")


def sigma_via_recursion(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """Sigma_t = x^2 + w' B^(-1) w from matrix_mgf's elimination (_eliminate),
    at any t >= 0 and any alpha in D, complex included; it takes no log, and
    its cost is bounded by the elimination's transient, not by t.

    It reads neither the roots nor the A, B, C telescoping, so agreement with
    transform(...).sigma_t validates the closed form; the roots are solved
    only for _roots' DomainError outside D (DomainBoundaryError on its
    boundary), as transform does.  Raises ParameterError for a non-finite x
    and wherever Sigma_t is not finite (|m| near 1e154, a zero pivot), and
    ValueError unless t is an integer >= 0.
    """
    check_finite("x", x)
    t = check_horizon(t)
    alpha = point.alpha
    _roots(params.theta, alpha)
    sigma = _sigma(x, _read(alpha, _eliminate(params, alpha, x, t), t))
    if not cmath.isfinite(sigma):
        raise _overflow("Sigma_t", params, x, alpha, t)
    return sigma


def monte_carlo_mgf(
    params: ModelParams, alpha: float, x: float, t: int, n: int, seed: int
) -> OracleResult:
    """Sample mean and standard error of exp(alpha*x^2)*L_{t-1}(alpha, X_1)
    over n simulated values of X_1: an unbiased estimate of L_t(alpha, x).

    Requires alpha <= 0 so the integrand is bounded by 1 and the estimator
    has finite variance, an integer n >= 2 and an integer seed >= 0
    (ValueError).  A non-finite alpha or x, a complex alpha off the real
    axis, x^2 or X_1^2 at its conditional mean beyond the double range, and
    (t >= 1, -2*alpha finite) every error of quadratic_coefficients at t - 1
    raise ParameterError, alpha = 0 included: where log L_{t-1} about m is
    not finite, as transform raises there.

    Only X_1 = m + theta*(x - m) + Z is simulated, one standard normal Z per
    path, and log L_{t-1}(alpha, X_1) = g0 + g1*(X_1 - m) + c2*(X_1 - m)^2
    exactly (closed_form.quadratic_coefficients).  A path's estimate is
    exp(floor + c2*(Z + shift)^2), that quadratic plus alpha*x^2 with its
    square completed, exp(floor) where c2 = 0: exactly 1 at alpha = 0.  By
    Rao-Blackwell its variance is at most the plain estimator's, and its
    relative variance is flat in t.  The coefficients cost what transform
    does, the draws O(n) whatever t, in one n-long array.  Nothing is drawn
    at t = 0, whose estimate exp(alpha*x^2) is returned with stderr 0, nor
    where -2*alpha overflows: every estimate is 0, returned with stderr 0.

    Seed contract: path i's Z is entry i of
    Generator(SFC64(seed)).standard_normal(n), drawn in the calling thread,
    and nothing else is drawn.  The estimates are formed in place under
    numpy's errstate(all="ignore"), whatever the caller's np.seterr.  The
    mean is taken over all n paths, and the standard error is the largest
    estimate G times ndarray.std(ddof=1)'s operations on the deviations over
    G, each in [-1, 1], divided by sqrt(n) (0 where G is 0), so the squared
    deviations of estimates near 1e-187 do not underflow.  So the result
    depends on (seed, n) only and replays bit for bit.
    """
    import numpy as np
    a = _real_alpha(alpha)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    n = check_horizon(n, "Monte Carlo sample count", 2)
    seed = check_horizon(seed, "Monte Carlo seed")
    t = check_horizon(t)
    offset = params.theta * (x - params.m)  # X_1 = centre + Z = m + offset + Z
    centre = params.m + offset
    if not math.isfinite(x * x + (centre * centre if t else 0.0)):
        raise _overflow("a conditioned S_t", params, x, a, t)
    if not t:  # nothing drawn: every path's estimate is exp(alpha*x^2)
        return OracleResult(value=math.exp(a * (x * x)), method="monte_carlo", stderr=0.0, n_samples=n)
    if -2.0 * a == math.inf:  # every pivot of B is infinite: every estimate is 0
        return OracleResult(value=0.0, method="monte_carlo", stderr=0.0, n_samples=n)
    # alpha*x^2 + log L_{t-1}(X_1), its square completed: floor + c2*(Z + shift)^2
    g0, g1, c2 = (c.real for c in quadratic_coefficients(params, TransformPoint(a), t - 1))
    vertex = 0.5 * g1 / c2 if c2 else 0.0
    shift = offset + vertex if c2 else 0.0
    floor = a * (x * x) + (g0 - 0.5 * g1 * vertex)
    # an estimate's exponent may underflow, and a tiny mean or a scaled
    # deviation's square too, whatever the caller's np.seterr
    with np.errstate(all="ignore"):
        total = np.random.Generator(np.random.SFC64(seed)).standard_normal(n)
        total += shift
        np.multiply(total, total, out=total)
        total *= c2
        total += floor
        np.exp(total, out=total)
        # the mean, then the standard error in place, in ndarray.std(ddof=1)'s
        # own operations on the deviations over the largest estimate
        mean = np.add.reduce(total) / n
        largest = float(total.max())
        spread = 0.0
        if largest:
            total -= mean
            total /= largest
            np.multiply(total, total, out=total)
            spread = largest * math.sqrt(np.add.reduce(total) / (n - 1))
    return OracleResult(value=float(mean), method="monte_carlo", stderr=spread / math.sqrt(n), n_samples=n)


def unconditional_transform(params: ModelParams, point: TransformPoint, t: int) -> complex:
    """E[exp(alpha*S_t)] with X_0 drawn from the stationary law N(m, v), v = 1/(1-theta^2).

    With log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly (quadratic_coefficients),
    this is (1 - 2*c2*v)^(-1/2) * exp(g0 + g1^2*v / (2*(1 - 2*c2*v))) (_gaussian_step).  It exists iff
    Re(1 - 2*c2*v) > 0, else ConvergenceError.  alpha = 0 gives exactly 1, and a subnormal
    alpha evaluates; alpha outside D raises DomainError.  A value beyond the double range
    raises ParameterError; below it the result is exactly 0.
    """
    g0, g1, c2 = quadratic_coefficients(params, point, t)
    v = 1.0 / (1.0 - params.theta * params.theta)
    if (1.0 - 2.0 * c2 * v).real <= 0.0:
        raise ConvergenceError(f"Re(1 - 2*c2*v) <= 0: the start-law integral diverges at alpha={point.alpha}")
    log_value = _gaussian_step(g0, g1, c2, 0.0, v)
    # below the double range the value is exactly 0, as transform's
    return 0j if log_value.real < _LOG_MIN else _exp(log_value, "E[exp(alpha*S_t)]", params, None, point.alpha, t)
