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
  paths, with its standard error.

unconditional_transform is the exact Gaussian integral of L_t(alpha, .)
over the stationary start law N(m, 1/(1-theta^2)); it raises
ParameterError where its value lies beyond the double range.

The matrix oracle deliberately restricts alpha to real values: a complex
determinant would reintroduce exactly the branch ambiguity the oracle is
meant to arbitrate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

from .closed_form import _LOG_MAX, _LOG_MIN, _exp, _overflow, quadratic_coefficients
from .errors import ConvergenceError
from .model import ModelParams, check_finite, check_horizon, conditional_covariance
from .spectral import TransformPoint

# O(t^3) factorization budget for the dense oracle.
MATRIX_MAX_T = 2000


@dataclass(frozen=True)
class OracleResult:
    """A single oracle evaluation; stderr/n_samples only for Monte Carlo."""

    value: float
    method: Literal["matrix", "monte_carlo"]
    stderr: float | None = None
    n_samples: int | None = None


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
    mu' M^(-1) mu overflows.  A non-finite alpha or x, and a value beyond
    the double range, raise ParameterError.
    """
    import numpy as np
    a = float(alpha)
    check_finite("alpha", a)
    check_finite("x", x)
    t = check_horizon(t)
    if t > MATRIX_MAX_T:
        raise ValueError(f"matrix oracle requires 0 <= t <= {MATRIX_MAX_T}, got {t}")
    mean = params.m + params.theta ** np.arange(1, t + 1) * (x - params.m)
    scale = float(np.abs(mean).max(initial=0.0)) or 1.0
    if not math.isfinite(scale):
        raise _overflow("the conditional mean", params, x, a, t)
    bordered = np.empty((t + 1, t + 1))
    block = bordered[:t, :t]
    np.multiply(conditional_covariance(params, t), -2.0 * a, out=block)
    block.flat[:: t + 1] += 1.0  # the diagonal
    np.divide(mean, scale, out=bordered[t, :t])
    bordered[:t, t] = bordered[t, :t]
    bordered[t, t] = np.finfo(float).max
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
    has finite variance; a non-finite alpha or x raises ParameterError.
    Paths are driven by default_rng(seed) with one standard-normal vector
    of length n per step, so results are deterministic given the seed.
    """
    import numpy as np
    a = float(alpha)
    check_finite("alpha", a)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    t = check_horizon(t)
    rng = np.random.default_rng(seed)
    dev = np.full(n, x - params.m)
    total = np.full(n, x * x)
    step = np.empty(n)  # the step's normals, then its squared levels
    with np.errstate(over="ignore"):
        for _ in range(t):
            rng.standard_normal(out=step)
            dev *= params.theta
            dev += step
            np.add(dev, params.m, out=step)
            np.square(step, out=step)
            total += step
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
