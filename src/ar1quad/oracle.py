"""Formula-independent evaluations of the transform.

Two oracles validate the closed form without touching the spectral
machinery:

* matrix_mgf: the Gaussian quadratic-form identity.  Conditionally on
  X_0 = x, (X_1..X_t) is normal with mean vector mu and covariance Sigma,
  so E[exp(alpha*S_t)] = exp(alpha*x^2) * det(I - 2*alpha*Sigma)^(-1/2)
  * exp(alpha * mu' (I - 2*alpha*Sigma)^(-1) mu).  The process is Markov:
  with L the unit lower-bidiagonal innovation map (-theta below the
  diagonal), L*(X - mu) is standard normal, so Sigma = L^(-1) L^(-T) and
  both terms come from the tridiagonal B = L L' - 2*alpha*I and w = L*mu:
  det(I - 2*alpha*Sigma) = det B and mu'(I - 2*alpha*Sigma)^(-1) mu =
  w' B^(-1) w.  One forward elimination of B (_eliminate), O(t) in pure
  Python, gives both; no t x t matrix is formed.  With det B = pi_t it
  also gives sigma_via_recursion's Sigma_t = x^2 + w' B^(-1) w, at any
  t >= 0 and any alpha in D, complex included, with no root.

* monte_carlo_mgf: the empirical mean, with its standard error, of the
  conditional expectation of exp(alpha*S_t) given the even steps
  X_0 = x, X_2, X_4, ... of a simulated path.  Only the even steps are
  drawn (an AR(1) with coefficient theta^2); each odd step is Gaussian
  given its two neighbours, so its factor E[exp(alpha*X_s^2) | neighbours]
  is integrated exactly.  That halves the normal draws and cannot raise
  the variance (Rao-Blackwell); at t <= 1 nothing is drawn and the
  estimate is the exact value, with standard error 0.  The paths are cut
  into blocks of at most MC_BLOCK, each driven by an SFC64 generator on
  its own stream spawned from SeedSequence(seed) and run on a worker
  thread (numpy releases the GIL in the normal fill and the ufunc loops);
  the result depends on (seed, n) only, never on the number of cores.

unconditional_transform is the exact Gaussian integral of L_t(alpha, .)
over the stationary start law N(m, 1/(1-theta^2)); it raises
ParameterError where its value lies beyond the double range.

Both oracles take a real alpha only (a complex one on the real axis is its
real part, any other raises ParameterError): a complex determinant would
reintroduce exactly the branch ambiguity the matrix oracle arbitrates.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import Literal

from .closed_form import _LOG_MAX, _LOG_MIN, _exp, _outside, _overflow, quadratic_coefficients
from .errors import ConvergenceError, ParameterError
from .model import ModelParams, check_finite, check_horizon
from .spectral import TransformPoint, _roots

# Monte Carlo paths per block at most: each block has its own seed stream
MC_BLOCK = 2**16


@dataclass(frozen=True)
class OracleResult:
    """A single oracle evaluation; stderr/n_samples only for Monte Carlo."""

    value: float
    method: Literal["matrix", "monte_carlo"]
    stderr: float | None = None
    n_samples: int | None = None


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


def _eliminate(params: ModelParams, alpha: complex, x: float, t: int) -> tuple:
    """(scale, [u_1..u_t], [z_1^2/d_1..z_t^2/d_t]): the forward elimination of
    B = L L' - 2*alpha*I, at a real or complex alpha, with no pivot test.

    B has diagonal 1 - 2*alpha, then 1 + theta^2 - 2*alpha, and -theta beside
    it.  Its pivots d_s = 1 + u_s are carried as offsets, u_1 = -2*alpha and
    u_s = theta^2*u_{s-1}/(1 + u_{s-1}) - 2*alpha, with theta^2 carried
    exactly, as a double and its rounding error, so a tiny |alpha| keeps its
    digits.  z_1 = w_1, z_s = w_s + theta*z_{s-1}/d_{s-1} runs on
    w = L*mu = (mu_1, m*(1 - theta), ..., m*(1 - theta)) over scale =
    max(|mu_1|, |m|) (1 if w is empty or zero), so a huge mean stays finite:
    det B = prod(d_s) and w' B^(-1) w = scale^2*sum(z_s^2/d_s).  A pivot of
    exactly 0 ends it with an infinite last term; an overflowing mean raises
    ParameterError.
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
    offsets, quads = [], []
    try:
        for _ in range(t):
            d = 1.0 + u
            offsets.append(u)
            quads.append(z * z / d)
            r = u / d
            u = theta_sq * r + (theta_sq_err * r - a2)
            z = w + theta * z / d
    except ZeroDivisionError:  # d = 0: w' B^(-1) w is infinite
        quads.append(math.inf)
    return scale, offsets, quads


def matrix_mgf(params: ModelParams, alpha: float, x: float, t: int) -> OracleResult:
    """E[exp(alpha*S_t) | X_0 = x] via the quadratic-form identity, in O(t).

    log L_t = alpha*x^2 - log det B/2 + alpha*w' B^(-1) w from _eliminate,
    with log det B = fsum(log1p(u_s)), rounded once: alpha = 0 gives 1, and
    alpha < 0 gives 0 where the quadratic form overflows or (t >= 1) where
    -2*alpha does.  B is positive definite exactly when I - 2*alpha*Sigma
    is, so a pivot <= 0 means the moment generating function diverges
    (ConvergenceError).  Near the divergence point the value stays within
    2*eps*cond(I - 2*alpha*Sigma) of the exact value at the double inputs
    (1.5*eps*cond at worst at 0.999999 of the pole, t <= 500).  A non-finite
    alpha or x, a complex alpha off the real axis, an overflowing mean (at a
    finite -2*alpha) and a value beyond the double range raise
    ParameterError.
    """
    a = _real_alpha(alpha)
    check_finite("x", x)
    t = check_horizon(t)
    if t and -2.0 * a == math.inf:  # every pivot, and det B, is infinite
        return OracleResult(value=0.0, method="matrix")
    scale, offsets, quads = _eliminate(params, a, x, t)
    try:  # log1p raises where u <= -1, a pivot d = 1 + u <= 0; a NaN pivot gives NaN
        log_det = math.fsum(map(math.log1p, offsets))
    except ValueError:
        log_det = math.nan
    if math.isnan(log_det):
        raise ConvergenceError(f"I - 2*alpha*Sigma is not positive definite at alpha={a}: "
                               "the moment generating function diverges")
    # the three terms share alpha's sign; fsum rounds their sum once, where
    # two additions can land an ulp of log L_t off, a relative error of
    # |log L_t|*eps in the value
    terms = (a * x * x, -0.5 * log_det, (a * scale) * scale * math.fsum(quads))
    try:
        log_value = math.fsum(terms)
    except OverflowError:  # the sum passed the double range: +/-inf
        log_value = sum(terms)
    if log_value > _LOG_MAX:
        raise _overflow("L_t", params, x, a, t)
    return OracleResult(value=math.exp(log_value), method="matrix")


def sigma_via_recursion(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """Sigma_t = x^2 + w' B^(-1) w from matrix_mgf's elimination (_eliminate),
    at any t >= 0 and any alpha in D, complex included, with the real and
    the imaginary parts of sum(z_s^2/d_s) each summed by fsum.

    It reads neither the roots nor the A, B, C telescoping, so agreement with
    transform(...).sigma_t validates the closed form; the roots are solved
    only to raise DomainError outside D (DomainBoundaryError on its
    boundary), as transform does.  Raises ParameterError for a non-finite x
    and wherever Sigma_t is not finite (|m| near 1e154, a zero pivot), and
    ValueError unless t is an integer >= 0.
    """
    check_finite("x", x)
    t = check_horizon(t)
    alpha = point.alpha
    if not _roots(params.theta, alpha)[5]:
        raise _outside(alpha)
    scale, _, quads = _eliminate(params, alpha, x, t)
    real, imag = math.fsum([q.real for q in quads]), math.fsum([q.imag for q in quads])
    sigma = complex(x * x + scale * (scale * real), scale * (scale * imag))
    if not cmath.isfinite(sigma):
        raise _overflow("Sigma_t", params, x, alpha, t)
    return sigma


def monte_carlo_mgf(
    params: ModelParams, alpha: float, x: float, t: int, n: int, seed: int
) -> OracleResult:
    """Sample mean and standard error of E[exp(alpha*S_t) | X_0, X_2, X_4, ...]
    over n simulated even-step paths: an unbiased estimate of L_t(alpha, x).

    Requires alpha <= 0 so the integrand is bounded by 1 and the estimator
    has finite variance, an integer n >= 2 and an integer seed >= 0
    (ValueError).  A non-finite alpha or x, a complex alpha off the real
    axis and a sampled sum beyond the double range raise ParameterError.

    Only X_0 = x, X_2, X_4, ... are simulated.  With d = X - m they form an
    AR(1) with coefficient theta^2, d_{s+1} = theta^2*d_{s-1} + q*Z with
    q = sqrt(1 + theta^2), one standard normal Z per pair of steps.  Each
    odd step s is integrated exactly given its neighbours: X_s is
    N(mu_s, v_s) with mu_s = m + theta*(d_{s-1} + d_{s+1})/q^2 and
    v_s = 1/q^2, or, for the last step of an odd t, mu_t = m + theta*d_{t-1}
    and v_t = 1, so E[exp(alpha*X_s^2) | neighbours] =
    (1 - 2*alpha*v_s)^(-1/2) * exp(alpha*mu_s^2/(1 - 2*alpha*v_s)).  Each
    path's sum x^2 + sum_even X_s^2 + sum_odd mu_s^2/(1 - 2*alpha*v_s) is
    accumulated as (sqrt(r_s)*mu_s)^2, r_s = 1/(1 - 2*alpha*v_s), and its
    estimate is exp(alpha*sum + C) with the path-free C = -sum_odd
    log1p(-2*alpha*v_s)/2, so alpha = 0 gives exactly 1.  Conditioning
    halves the normal draws and, by Rao-Blackwell, cannot raise the
    variance of a path's estimate; at t <= 1 nothing is drawn, and the
    exact value every path shares is returned with stderr 0.

    Seed contract: the n paths are cut into K = ceil(n / MC_BLOCK) blocks,
    block b holding paths n*b//K to n*(b+1)//K - 1.  Block b is driven by
    Generator(SFC64(SeedSequence(seed).spawn(K)[b])), which draws one
    standard-normal vector of the block's length for each of the t//2 even
    steps X_2, X_4, ..., in order, and nothing for the odd steps.  The
    blocks run on min(K, os.cpu_count()) worker threads, each writing its
    own slice of the shared sums, and the mean and standard error are taken
    over all n paths after the join; so the result depends on (seed, n)
    only, never on the number of cores, and replays bit for bit.
    """
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor
    a = _real_alpha(alpha)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    n = check_horizon(n, "Monte Carlo sample count", 2)
    seed = check_horizon(seed, "Monte Carlo seed")
    t = check_horizon(t)
    theta, m = params.theta, params.m
    theta_sq = theta * theta
    q_sq = 1.0 + theta_sq
    q = math.sqrt(q_sq)
    # an interior odd step (variance 1/q^2) and the last step of an odd t (variance 1)
    inner = 1.0 / math.sqrt(1.0 - 2.0 * a / q_sq)
    last = 1.0 / math.sqrt(1.0 - 2.0 * a)
    inner_slope, inner_level = inner * (theta / q_sq), inner * m
    last_slope, last_level = last * theta, last * m
    # C over the t//2 interior odd steps and the last one; an absent step adds
    # nothing, where 0*log1p(inf) would add a NaN at a huge |alpha|
    log_factor = 0.0
    if t > 1:
        log_factor -= 0.5 * (t // 2) * math.log1p(-2.0 * a / q_sq)
    if t % 2:
        log_factor -= 0.5 * math.log1p(-2.0 * a)
    k = -(-n // MC_BLOCK)
    workers = min(k, os.cpu_count() or 1)
    streams = np.random.SeedSequence(seed).spawn(k)
    total = np.empty(n)
    # one block-long scratch set per worker, made here: arrays made in the
    # worker threads stay resident in their per-thread malloc arenas
    spare = [np.empty((3, -(-n // k))) for _ in range(workers)]

    def run_block(b: int) -> None:
        cut = slice(n * b // k, n * (b + 1) // k)
        rng = np.random.Generator(np.random.SFC64(streams[b]))
        block_total = total[cut]
        block_total.fill(x * x)
        scratch = spare.pop()  # at most `workers` blocks run at once
        dev, nxt, step = scratch[:, : block_total.size]  # d_{s-1}, d_{s+1}, the pair's normals
        dev.fill(x - m)
        # an overflow (or 0*inf, where the odd steps' weight underflows) leaves
        # a non-finite sum, raised after the join; errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(t // 2):
                rng.standard_normal(out=step)
                step *= q
                np.multiply(dev, theta_sq, out=nxt)
                nxt += step
                dev += nxt
                dev *= inner_slope
                dev += inner_level
                np.square(dev, out=dev)
                block_total += dev
                np.add(nxt, m, out=step)
                np.square(step, out=step)
                block_total += step
                dev, nxt = nxt, dev
            if t % 2:
                dev *= last_slope
                dev += last_level
                np.square(dev, out=dev)
                block_total += dev
        spare.append(scratch)

    # numpy releases the GIL in the normal fill and the ufunc loops, so the
    # blocks overlap; list() re-raises a worker's exception here
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(run_block, range(k)))
    if not math.isfinite(total.max()):
        raise _overflow("a sampled S_t", params, x, a, t)
    with np.errstate(over="ignore"):  # alpha*sum past -inf: the estimate is 0
        np.multiply(total, a, out=total)
    total += log_factor
    values = np.exp(total, out=total)
    if t <= 1:  # nothing drawn: every path's estimate is the same double
        return OracleResult(value=float(values[0]), method="monte_carlo", stderr=0.0, n_samples=n)
    return OracleResult(
        value=float(values.mean()),
        method="monte_carlo",
        stderr=float(values.std(ddof=1) / math.sqrt(n)),
        n_samples=n,
    )


def unconditional_transform(params: ModelParams, point: TransformPoint, t: int) -> complex:
    """E[exp(alpha*S_t)] with X_0 drawn from the stationary law N(m, v), v = 1/(1-theta^2).

    With log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly (quadratic_coefficients),
    this is (1 - 2*c2*v)^(-1/2) * exp(g0 + g1^2*v / (2*(1 - 2*c2*v))).  The integral exists iff
    Re(1 - 2*c2*v) > 0, else ConvergenceError.  alpha = 0 gives exactly 1, and a subnormal
    alpha evaluates; alpha outside D raises DomainError.  A value beyond the double range
    raises ParameterError; below it the result is exactly 0.
    """
    g0, g1, c2 = quadratic_coefficients(params, point, t)
    v = 1.0 / (1.0 - params.theta * params.theta)
    q = 1.0 - 2.0 * c2 * v
    if q.real <= 0.0:
        raise ConvergenceError(f"Re(1 - 2*c2*v) <= 0: the start-law integral diverges at alpha={point.alpha}")
    log_value = g0 + g1 * g1 * v / (2.0 * q) - 0.5 * cmath.log(q)
    # below the double range the value is exactly 0, as transform's
    return 0j if log_value.real < _LOG_MIN else _exp(log_value, "E[exp(alpha*S_t)]", params, None, point.alpha, t)
