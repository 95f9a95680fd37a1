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
  Python, gives both; no t x t matrix is formed.  With det B = pi_t and
  Sigma_t = x^2 + w' B^(-1) w they are the two factors of the paper's
  L_t = pi_t^(-1/2)*exp(alpha*Sigma_t), at a real or complex alpha:
  _log_mgf forms log L_t (matrix_mgf is its real face), and
  sigma_via_recursion Sigma_t, with no root and no log.

* monte_carlo_mgf: the empirical mean, with its standard error, of the
  conditional expectation of exp(alpha*S_t) given the skeleton
  X_0 = x, X_4, X_8, ... of a simulated path.  Only every MC_STRIDE-th step
  is drawn (an AR(1) with coefficient theta^4); the steps between two
  skeleton points form a Gaussian bridge, and the steps after the last one
  a Gaussian tail, so their factor E[exp(alpha*sum X_i^2) | ends] is
  integrated exactly (_bridge).  That quarters the normal draws and cannot
  raise the variance (Rao-Blackwell); at t < MC_STRIDE nothing is drawn and
  the estimate is the exact value, with standard error 0.  The paths are cut
  into blocks of at most MC_BLOCK, each driven by an SFC64 generator on its
  own stream spawned from SeedSequence(seed).  Every call that draws runs
  its blocks on the module's one pool of os.cpu_count() threads, made by
  the first such call and kept for the life of the process; a forked
  child, which has none of its parent's threads, makes its own (numpy
  releases the GIL in the normal fill and the ufunc loops).  Each block
  finishes its own estimates, exp included, and the caller takes their
  mean and standard error: the result depends on (seed, n) only, never on
  the number of cores.

unconditional_transform is the exact Gaussian integral of L_t(alpha, .)
over the stationary start law N(m, 1/(1-theta^2)); it raises
ParameterError where its value lies beyond the double range.

Both oracles take a real alpha only (a complex one on the real axis is its
real part, any other raises ParameterError).  At a complex alpha log det B
is a sum of principal logs, equal to the closed form's log pi_t only modulo
2*pi*i: it took the closed form's branch on 13,450 seeded draws against a
60-digit reference, a measurement, not a proof, so it stays private.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass
from typing import Literal

from .closed_form import _LOG_MAX, _LOG_MIN, _exp, _outside, _overflow, quadratic_coefficients
from .errors import ConvergenceError, ParameterError
from .model import ModelParams, check_finite, check_horizon
from .spectral import TransformPoint, _log, _roots

# Monte Carlo paths per block at most: each block has its own seed stream
MC_BLOCK = 2**16
# the Monte Carlo skeleton draws X_0 = x, X_4, X_8, ...; the steps between are integrated
MC_STRIDE = 4

# the Monte Carlo worker pool, (executor, its thread count), made on first use
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, and maybe a held lock:
    # it makes its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> tuple:
    """The process's one Monte Carlo pool of os.cpu_count() threads, made
    once, even by two first callers at the same time."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(workers), workers
        return _pool


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


def _fsum(values: list) -> float:
    """fsum(values), or the plain sum, +/-inf, where a sum of finite values
    passes the double range (fsum raises OverflowError)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)


def _csum(values: list) -> complex:
    """The sum, its real and imaginary parts each by _fsum."""
    return complex(_fsum([v.real for v in values]), _fsum([v.imag for v in values]))


def _eliminate(params: ModelParams, alpha: complex, x: float, t: int) -> tuple:
    """(scale, [u_1..u_t], quad = sum(z_s^2/d_s)): the forward elimination
    of B = L L' - 2*alpha*I, at a real or complex alpha, with no pivot test.

    B has diagonal 1 - 2*alpha, then 1 + theta^2 - 2*alpha, and -theta beside
    it.  Its pivots d_s = 1 + u_s are carried as offsets, u_1 = -2*alpha and
    u_s = theta^2*u_{s-1}/(1 + u_{s-1}) - 2*alpha, with theta^2 carried
    exactly, as a double and its rounding error, so a tiny |alpha| keeps its
    digits.  z_1 = w_1, z_s = w_s + theta*z_{s-1}/d_{s-1} runs on
    w = L*mu = (mu_1, m*(1 - theta), ..., m*(1 - theta)) over scale =
    max(|mu_1|, |m|) (1 if w is empty or zero), so a huge mean stays finite:
    det B = prod(d_s) and w' B^(-1) w = scale^2*quad, quad rounded once.  A
    pivot of exactly 0 ends it with an infinite last term; an overflowing
    mean raises ParameterError.
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
    return scale, offsets, _csum(quads) if isinstance(alpha, complex) else math.fsum(quads)


def _log_mgf(alpha: complex, x: float, elimination: tuple) -> complex:
    """log L_t = alpha*x^2 - log det B/2 + alpha*w' B^(-1) w from _eliminate's
    (scale, offsets, quad).  Each pivot log comes from its offset: log1p(u_s)
    at a real alpha (a complex one on the real axis is its real part),
    spectral._log(1 + u_s, u_s) at any other; each sum is rounded once.  A
    pivot <= 0 or NaN raises ConvergenceError."""
    scale, offsets, quad = elimination
    if isinstance(alpha, complex) and not alpha.imag:
        alpha, offsets, quad = alpha.real, [u.real for u in offsets], quad.real
    try:  # log1p raises at a pivot d = 1 + u <= 0, log at d = 0; a NaN pivot gives NaN
        log_det = _csum([_log(1.0 + u, u) for u in offsets]) if alpha.imag else math.fsum(map(math.log1p, offsets))
    except ValueError:
        log_det = math.nan
    if cmath.isnan(log_det):
        raise ConvergenceError(f"I - 2*alpha*Sigma is not positive definite at alpha={alpha}: "
                               "the moment generating function diverges")
    # at a real alpha the three terms share its sign; fsum rounds their sum
    # once, where two additions can land an ulp of log L_t off, a relative
    # error of |log L_t|*eps in the value
    terms = (alpha * x * x, -0.5 * log_det, (alpha * scale) * scale * quad)
    return _csum(terms) if alpha.imag else complex(_fsum(terms))


def _sigma(x: float, elimination: tuple) -> complex:
    """Sigma_t = x^2 + scale^2*quad from _eliminate's (scale, offsets, quad)."""
    scale, _, quad = elimination
    return complex(x * x + scale * (scale * quad.real), scale * (scale * quad.imag))


def matrix_mgf(params: ModelParams, alpha: float, x: float, t: int) -> OracleResult:
    """E[exp(alpha*S_t) | X_0 = x] via the quadratic-form identity, in O(t).

    exp(_log_mgf) on _eliminate, log det B and log L_t each rounded once:
    alpha = 0 gives 1, and alpha < 0 gives 0 where the quadratic form
    overflows or (t >= 1) where -2*alpha does.  B is positive definite
    exactly when I - 2*alpha*Sigma is, so a pivot <= 0 means the moment
    generating function diverges (ConvergenceError).  Near the divergence
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
    log_value = _log_mgf(a, x, _eliminate(params, a, x, t)).real
    if log_value > _LOG_MAX:
        raise _overflow("L_t", params, x, a, t)
    return OracleResult(value=math.exp(log_value), method="matrix")


def sigma_via_recursion(params: ModelParams, point: TransformPoint, x: float, t: int) -> complex:
    """Sigma_t = x^2 + w' B^(-1) w from matrix_mgf's elimination (_eliminate),
    at any t >= 0 and any alpha in D, complex included; it takes no log.

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
    sigma = _sigma(x, _eliminate(params, alpha, x, t))
    if not cmath.isfinite(sigma):
        raise _overflow("Sigma_t", params, x, alpha, t)
    return sigma


def _bridge(theta: float, m: float, alpha: float, p: int, pinned: bool) -> tuple:
    """(c, q0, q1, q2, q3): the exact factor of p steps of the chain between
    two skeleton points, for alpha <= 0:

        log E[exp(alpha*sum_{i=1..p} X_i^2) | X_0 - m = a, X_{p+1} - m = b]
            = c + alpha*(q0 + q1*(a + b) + q2*(a^2 + b^2) + q3*a*b).

    A pinned bridge is conditioned on both ends; a free one (the tail after
    the last skeleton point) on a only, and its b terms drop (q3 = 0, b = 0).

    Given its ends, D = (X_1 - m, ..., X_p - m) is normal with precision J,
    the tridiagonal with -theta beside the diagonal 1 + theta^2 (1 in the
    last row of a free end), and mean J^(-1)*h, h = theta*(a*e_1 + b*e_p).
    With M = J - 2*alpha*I the Gaussian integral is c = -log det(M*J^(-1))/2
    plus alpha*v'M^(-1)*J*v, v = m*1 + J^(-1)*h: q0 = m^2*1'M^(-1)*J*1,
    q1 = 2*m*theta*(M^(-1)*1)_1, q2 = theta^2*(M^(-1)*J^(-1))_11 and
    q3 = 2*theta^2*(M^(-1)*J^(-1))_1p; the bridge is reversible, so a and b
    share them.  Nothing is a difference of alpha-free parts: det(M*J^(-1))
    is the product of the pivot ratios 1 + delta_s/dJ_s, whose offsets
    delta_s = dM_s - dJ_s = -2*alpha + theta^2*delta_{s-1}/(dJ_{s-1}*dM_{s-1})
    enter through log1p, and M^(-1)*J^(-1) is applied as two solves, never
    formed as (J^(-1) - M^(-1))/(2*alpha).  So alpha = 0 gives c = 0, a tiny
    |alpha| keeps its digits, and where -2*alpha overflows, M^(-1) = 0 and
    c = -inf.  The q's come without their alpha: q0 + q1*(a + b) + ... >= 0
    is the bridge's share of a conditioned S_t, which monte_carlo_mgf sums
    before it multiplies by alpha, so an S_t past the double range
    (ParameterError) stays apart from a huge |alpha| (estimate 0).
    """
    if -2.0 * alpha == math.inf:  # every pivot of M is infinite
        return -math.inf, 0.0, 0.0, 0.0, 0.0
    theta_sq = theta * theta
    diag = [1.0 + theta_sq] * p
    rows = [(1.0 - theta) ** 2] * p  # J*1, the row sums of J
    rows[0] += theta
    rows[-1] += theta
    if not pinned:
        diag[-1] = 1.0
        rows[-1] = 1.0 - theta if p > 1 else 1.0
    piv_j, piv_m, logs = [], [], []
    offset = -2.0 * alpha
    for s in range(p):
        if s:
            offset = theta_sq * (offset / piv_m[-1]) / piv_j[-1] - 2.0 * alpha
        pivot = diag[s] - theta_sq / piv_j[-1] if s else diag[s]
        piv_j.append(pivot)
        piv_m.append(pivot + offset)
        logs.append(math.log1p(offset / pivot))

    def solve(pivots: list, rhs: list) -> list:
        # the tridiagonal system with these pivots: forward, then back
        z = [rhs[0]]
        for s in range(1, p):
            z.append(rhs[s] + theta * z[-1] / pivots[s - 1])
        y = [z[-1] / pivots[-1]]
        for s in range(p - 2, -1, -1):
            y.append((z[s] + theta * y[-1]) / pivots[s])
        return y[::-1]

    w = solve(piv_m, solve(piv_j, [1.0] + [0.0] * (p - 1)))
    q0 = m * m * math.fsum(solve(piv_m, rows))
    q1 = 2.0 * m * theta * solve(piv_m, [1.0] * p)[0]
    q3 = 2.0 * theta_sq * w[-1] if pinned else 0.0
    return -0.5 * math.fsum(logs), q0, q1, theta_sq * w[0], q3


def monte_carlo_mgf(
    params: ModelParams, alpha: float, x: float, t: int, n: int, seed: int
) -> OracleResult:
    """Sample mean and standard error of E[exp(alpha*S_t) | X_0, X_4, X_8, ...]
    over n simulated skeleton paths: an unbiased estimate of L_t(alpha, x).

    Requires alpha <= 0 so the integrand is bounded by 1 and the estimator
    has finite variance, an integer n >= 2 and an integer seed >= 0
    (ValueError).  A non-finite alpha or x, a complex alpha off the real
    axis and a conditioned S_t beyond the double range raise ParameterError.

    Only the skeleton P_j = X_{4j} - m, j = 0..k, k = t//4 (MC_STRIDE = 4),
    is simulated: P_0 = x - m and P_j = theta^4*P_{j-1} + sigma*Z_j with
    sigma^2 = 1 + theta^2 + theta^4 + theta^6, one standard normal Z per
    skeleton step.  The three steps between P_{j-1} and P_j form a Gaussian
    bridge and the t mod 4 steps after P_k a Gaussian tail, each integrated
    exactly by _bridge: log E[exp(alpha*sum X_i^2) | ends] = c + alpha*Q with
    Q = q0 + q1*(a + b) + q2*(a^2 + b^2) + q3*a*b (b = 0 for the tail).  A
    path's estimate is exp(alpha*S + C): S = x^2 + sum_j X_{4j}^2 + the
    bridges' and the tail's Q, a conditioned S_t, and the path-free C sums
    their c, so alpha = 0 gives exactly 1.  S is summed point by point: the
    terms in P_0 and every m^2 are path-free, and P_j adds
    P_j*(A*P_j + B + q3*P_{j-1}), A = 1 + 2*q2 and B = 2*(m + q1) where two
    bridges meet, A = 1 + q2 + q2_tail and B = 2*m + q1 + q1_tail at P_k.
    Conditioning quarters the normal draws and, by Rao-Blackwell, cannot
    raise the variance of a path's estimate.  At t < 4 nothing is drawn:
    the exact value every path shares is returned with stderr 0, and no
    seed stream, thread or n-long array is made.

    Seed contract: the n paths are cut into K = ceil(n / MC_BLOCK) blocks,
    block b holding paths n*b//K to n*(b+1)//K - 1.  Block b is driven by
    Generator(SFC64(SeedSequence(seed).spawn(K)[b])), which draws one
    standard-normal vector of the block's length for each of the t//4
    skeleton steps X_4, X_8, ..., in order, and nothing else.  The blocks
    run on the module's pool (see the module docstring), each writing its
    own slice of the n estimates, exp(alpha*S + C) included, under numpy's
    errstate(all="ignore") whatever the caller's np.seterr, and the mean
    and standard error are taken over all n paths after the join; so the
    result depends on (seed, n) only, never on the number of cores or the
    pool, and replays bit for bit.
    """
    import numpy as np
    a = _real_alpha(alpha)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    n = check_horizon(n, "Monte Carlo sample count", 2)
    seed = check_horizon(seed, "Monte Carlo seed")
    t = check_horizon(t)
    theta, m = params.theta, params.m
    k, tail = divmod(t, MC_STRIDE)
    # C and the path-free part of S; an absent tail or bridge adds nothing,
    # where 0*c would add a NaN at c = -inf
    log_factor, fixed, q1_tail, q2_tail = 0.0, x * x, 0.0, 0.0
    if tail:
        log_factor, q0_tail, q1_tail, q2_tail, _ = _bridge(theta, m, a, tail, False)
        fixed += q0_tail
    q1, q2 = q1_tail, q2_tail  # the terms in P_0, of the tail where no bridge starts there
    if k:
        c, q0, q1, q2, q3 = _bridge(theta, m, a, MC_STRIDE - 1, True)
        log_factor += k * c
        fixed += k * (q0 + m * m)
    first = x - m
    fixed += first * (q2 * first + q1)
    if not math.isfinite(fixed):
        raise _overflow("a conditioned S_t", params, x, a, t)
    if not k:  # nothing drawn: every path's estimate is this one double
        value = math.exp(a * fixed + log_factor)
        return OracleResult(value=value, method="monte_carlo", stderr=0.0, n_samples=n)
    theta_4 = theta * theta * (theta * theta)
    sigma = math.sqrt((1.0 + theta * theta) * (1.0 + theta_4))
    inner = 1.0 + 2.0 * q2, 2.0 * (m + q1)  # (A, B) where two bridges meet
    last = 1.0 + q2 + q2_tail, 2.0 * m + q1 + q1_tail  # (A, B) at P_k
    blocks = -(-n // MC_BLOCK)
    pool, workers = _executor()
    streams = np.random.SeedSequence(seed).spawn(blocks)
    total = np.empty(n)
    # one block-long scratch set per worker, made here: arrays made in the
    # worker threads stay resident in their per-thread malloc arenas
    spare = [np.empty((3, -(-n // blocks))) for _ in range(min(blocks, workers))]

    def run_block(b: int) -> bool:
        # the block's conditioned S, then its estimates exp(alpha*S + C) in
        # place; returns whether every S was finite
        cut = slice(n * b // blocks, n * (b + 1) // blocks)
        rng = np.random.Generator(np.random.SFC64(streams[b]))
        block_total = total[cut]
        block_total.fill(fixed)
        scratch = spare.pop()  # at most min(blocks, workers) blocks of this call run at once
        dev, nxt, step = scratch[:, : block_total.size]  # P_{j-1}, P_j, the step's terms
        dev.fill(first)
        # an overflow (or 0*inf) leaves a non-finite sum, raised after the
        # join; alpha*S past -inf gives the estimate 0 (an underflow)
        with np.errstate(all="ignore"):
            for j in range(1, k + 1):
                rng.standard_normal(out=step)
                step *= sigma
                np.multiply(dev, theta_4, out=nxt)
                nxt += step
                coef_a, coef_b = last if j == k else inner
                np.multiply(nxt, coef_a, out=step)
                step += coef_b
                dev *= q3
                step += dev
                step *= nxt
                block_total += step
                dev, nxt = nxt, dev
            finite = math.isfinite(block_total.max())
            block_total *= a
            block_total += log_factor
            np.exp(block_total, out=block_total)
        spare.append(scratch)
        return finite

    # numpy releases the GIL in the normal fill and the ufunc loops, so the
    # blocks overlap; every block ends before result() re-raises a worker's
    # exception here
    from concurrent.futures import wait
    runs = [pool.submit(run_block, b) for b in range(blocks)]
    wait(runs)
    if not all([run.result() for run in runs]):
        raise _overflow("a conditioned S_t", params, x, a, t)
    return OracleResult(
        value=float(total.mean()),
        method="monte_carlo",
        stderr=float(total.std(ddof=1) / math.sqrt(n)),
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
