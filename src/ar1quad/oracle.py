"""Formula-independent evaluations of the transform.

Two oracles validate the closed form without touching the spectral
machinery:

* matrix_mgf: the Gaussian quadratic-form identity.  Conditionally on
  X_0 = x, (X_1..X_t) is normal with mean vector mu and covariance Sigma,
  so E[exp(alpha*S_t)] = exp(alpha*x^2) * det(I - 2*alpha*Sigma)^(-1/2)
  * exp(alpha * mu' (I - 2*alpha*Sigma)^(-1) mu).  One Cholesky
  factorization of I - 2*alpha*Sigma bordered by the scaled mean mu/s
  gives the determinant from its pivots and the solve from its last row.

* monte_carlo_mgf: the empirical mean of exp(alpha*S_t) over simulated
  paths, with its standard error.  The paths are cut into blocks of at
  most MC_BLOCK, each driven by an SFC64 generator on its own stream
  spawned from SeedSequence(seed) and run on a worker thread (numpy
  releases the GIL in the normal fill and the ufunc loops); the result
  depends on (seed, n) only, never on the number of cores.

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
import sys
from dataclasses import dataclass
from typing import Literal

from .closed_form import _LOG_MAX, _LOG_MIN, _exp, _overflow, quadratic_coefficients
from .errors import ConvergenceError, ParameterError
from .model import ModelParams, check_finite, check_horizon, conditional_covariance
from .spectral import TransformPoint

# O(t^3) factorization budget for the dense oracle.
MATRIX_MAX_T = 2000
# Monte Carlo paths per block at most: each block has its own seed stream
MC_BLOCK = 2**16


@dataclass(frozen=True)
class OracleResult:
    """A single oracle evaluation; stderr/n_samples only for Monte Carlo."""

    value: float
    method: Literal["matrix", "monte_carlo"]
    stderr: float | None = None
    n_samples: int | None = None


def _real_alpha(alpha) -> float:
    """alpha as a finite float; a complex alpha must lie on the real axis."""
    if getattr(alpha, "imag", 0.0) != 0.0:
        raise ParameterError(f"the matrix and Monte Carlo oracles take a real alpha only, got {alpha!r}")
    a = float(getattr(alpha, "real", alpha))
    check_finite("alpha", a)
    return a


def matrix_mgf(params: ModelParams, alpha: float, x: float, t: int) -> OracleResult:
    """E[exp(alpha*S_t) | X_0 = x] via the dense quadratic-form identity.

    With M = I - 2*alpha*Sigma, s = max|mu| (1 if mu = 0) and b = mu/s,
    one Cholesky factor L of the bordered matrix [[M, b], [b', big]], big
    the largest double, gives both terms: its first t pivots are M's, so
    log det M = 2*sum(log L_ii), and its last row is y = L^(-1) b, so
    mu' M^(-1) mu = s^2*|y|^2.  The scaled border keeps
    |y|^2 <= t/lambda_min(M), far below big, so the factorization fails
    exactly when M is not positive definite: the moment generating
    function diverges at this alpha (ConvergenceError).  It also keeps a
    huge mean finite: alpha = 0 gives 1 and alpha < 0 gives 0 where
    mu' M^(-1) mu overflows.  A non-finite alpha or x, a complex alpha off
    the real axis, and a value beyond the double range raise ParameterError.
    """
    import numpy as np
    a = _real_alpha(alpha)
    check_finite("x", x)
    t = check_horizon(t)
    if t > MATRIX_MAX_T:
        raise ValueError(f"matrix oracle requires 0 <= t <= {MATRIX_MAX_T}, got {t}")
    mean = params.m + params.theta ** np.arange(1, t + 1) * (x - params.m)
    scale = float(np.abs(mean).max(initial=0.0)) or 1.0
    if not math.isfinite(scale):
        raise _overflow("the conditional mean", params, x, a, t)
    bordered = np.empty((t + 1, t + 1))
    np.multiply(conditional_covariance(params, t), -2.0 * a, out=bordered[:t, :t])
    diagonal = bordered.reshape(-1)[: t * (t + 2) : t + 2]  # M's diagonal, a view
    diagonal += 1.0
    np.divide(mean, scale, out=bordered[t, :t])
    bordered[:t, t] = bordered[t, :t]
    bordered[t, t] = sys.float_info.max
    try:
        factor = np.linalg.cholesky(bordered)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"I - 2*alpha*Sigma is not positive definite at alpha={a}: "
            "the moment generating function diverges"
        ) from exc
    log_det = 2.0 * float(np.log(factor.diagonal()[:t]).sum())
    y = factor[t, :t]
    log_value = a * x * x - 0.5 * log_det + (a * scale) * scale * float(y @ y)
    if log_value > _LOG_MAX:
        raise _overflow("L_t", params, x, a, t)
    return OracleResult(value=math.exp(log_value), method="matrix")


def monte_carlo_mgf(
    params: ModelParams, alpha: float, x: float, t: int, n: int, seed: int
) -> OracleResult:
    """Sample mean and standard error of exp(alpha*S_t) over n paths.

    Requires alpha <= 0 so the integrand is bounded by 1 and the estimator
    has finite variance, and an integer n >= 2 (ValueError); a non-finite
    alpha or x, or a complex alpha off the real axis, raises ParameterError.

    Seed contract: the n paths are cut into K = ceil(n / MC_BLOCK) blocks,
    block b holding paths n*b//K to n*(b+1)//K - 1.  Block b is driven by
    Generator(SFC64(SeedSequence(seed).spawn(K)[b])), which draws one
    standard-normal vector of the block's length per step (SFC64 fills it
    in about a fifth less time than default_rng's PCG64).  The blocks run
    on min(K, os.cpu_count()) worker threads, each filling its own slices
    of shared arrays, and the mean and standard error are taken over all n
    paths after the join; so the result depends on (seed, n) only, never
    on the number of cores, and replays bit for bit.
    """
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor
    a = _real_alpha(alpha)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    n = check_horizon(n, "Monte Carlo sample count", 2)
    t = check_horizon(t)
    theta, m = params.theta, params.m
    k = -(-n // MC_BLOCK)
    streams = np.random.SeedSequence(seed).spawn(k)
    dev = np.full(n, x - m)
    total = np.full(n, x * x)
    step = np.empty(n)  # the step's normals, then its squared levels

    def run_block(b: int) -> None:
        cut = slice(n * b // k, n * (b + 1) // k)
        rng = np.random.Generator(np.random.SFC64(streams[b]))
        block_dev, block_total, block_step = dev[cut], total[cut], step[cut]
        with np.errstate(over="ignore"):  # errstate is per thread
            for _ in range(t):
                rng.standard_normal(out=block_step)
                block_dev *= theta
                block_dev += block_step
                np.add(block_dev, m, out=block_step)
                np.square(block_step, out=block_step)
                block_total += block_step

    # numpy releases the GIL in the normal fill and the ufunc loops, so the
    # blocks overlap; list() re-raises a worker's exception here
    with ThreadPoolExecutor(min(k, os.cpu_count() or 1)) as pool:
        list(pool.map(run_block, range(k)))
    if not math.isfinite(total.max()):
        raise _overflow("a sampled S_t", params, x, a, t)
    np.multiply(total, a, out=total)
    values = np.exp(total, out=total)
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
