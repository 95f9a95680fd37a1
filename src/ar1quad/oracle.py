"""Formula-independent evaluations of the transform.

Two oracles validate the closed form without touching the spectral
machinery:

* matrix_mgf: the Gaussian quadratic-form identity.  Conditionally on
  X_0 = x, (X_1..X_t) is normal with mean vector mu and covariance Sigma,
  so E[exp(alpha*S_t)] = exp(alpha*x^2) * det(I - 2*alpha*Sigma)^(-1/2)
  * exp(alpha * mu' (I - 2*alpha*Sigma)^(-1) mu), with determinant and
  solve both taken from one Cholesky factorization.

* monte_carlo_mgf: the empirical mean of exp(alpha*S_t) over simulated
  paths, with its standard error.

unconditional_transform is the exact Gaussian integral of L_t(alpha, .)
over the stationary start law N(m, 1/(1-theta^2)).

The matrix oracle deliberately restricts alpha to real values: a complex
determinant would reintroduce exactly the branch ambiguity the oracle is
meant to arbitrate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .closed_form import _exp_checked, quadratic_coefficients
from .errors import ConvergenceError
from .model import ModelParams, check_finite, conditional_covariance
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

    Positive definiteness of I - 2*alpha*Sigma is detected by Cholesky
    failure (the factorization is being computed anyway); failure means
    the moment generating function diverges at this alpha.
    """
    a = float(alpha)
    check_finite("x", x)
    if not 0 <= t <= MATRIX_MAX_T:
        raise ValueError(f"matrix oracle requires 0 <= t <= {MATRIX_MAX_T}, got {t}")
    cov = conditional_covariance(params, t)
    mean = params.m + params.theta ** np.arange(1, t + 1) * (x - params.m)
    mat = np.eye(t) - 2.0 * a * cov
    try:
        factor = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"I - 2*alpha*Sigma is not positive definite at alpha={a}: "
            "the moment generating function diverges"
        ) from exc
    log_det = 2.0 * float(np.log(np.diag(factor)).sum())
    y = np.empty(t)  # forward substitution: factor @ y = mean, so mean' mat^(-1) mean = |y|^2
    for i in range(t):
        y[i] = (mean[i] - factor[i, :i] @ y[:i]) / factor[i, i]
    return OracleResult(value=math.exp(a * x * x - 0.5 * log_det + a * float(y @ y)), method="matrix")


def monte_carlo_mgf(
    params: ModelParams, alpha: float, x: float, t: int, n: int, seed: int
) -> OracleResult:
    """Sample mean and standard error of exp(alpha*S_t) over n paths.

    Requires alpha <= 0 so the integrand is bounded by 1 and the estimator
    has finite variance.  Paths are driven by default_rng(seed) with one
    standard-normal vector of length n per step, so results are
    deterministic given the seed.
    """
    a = float(alpha)
    check_finite("x", x)
    if a > 0:
        raise ValueError(f"need alpha <= 0 for a bounded integrand, got {a}")
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    if t < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    rng = np.random.default_rng(seed)
    dev = np.full(n, x - params.m)
    total = np.full(n, x * x)
    for _ in range(t):
        dev = params.theta * dev + rng.standard_normal(n)
        total += (dev + params.m) ** 2
    values = np.exp(a * total)
    return OracleResult(
        value=float(values.mean()),
        method="monte_carlo",
        stderr=float(values.std(ddof=1) / math.sqrt(n)),
        n_samples=n,
    )


def gauss_hermite_nodes(mean: float, variance: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the N(mean, variance) density."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return mean + math.sqrt(2.0 * variance) * nodes, weights / math.sqrt(math.pi)


def unconditional_transform(params: ModelParams, point: TransformPoint, t: int) -> complex:
    """E[exp(alpha*S_t)] with X_0 drawn from the stationary law N(m, v), v = 1/(1-theta^2).

    With log L_t(alpha, x) = g0 + g1*(x - m) + c2*(x - m)^2 exactly (quadratic_coefficients),
    this is (1 - 2*c2*v)^(-1/2) * exp(g0 + g1^2*v / (2*(1 - 2*c2*v))).  The integral exists iff
    Re(1 - 2*c2*v) > 0, else ConvergenceError.  alpha = 0 gives exactly 1, and a subnormal
    alpha evaluates; alpha outside D raises DomainError.
    """
    g0, g1, c2 = quadratic_coefficients(params, point, t)
    v = 1.0 / (1.0 - params.theta * params.theta)
    q = 1.0 - 2.0 * c2 * v
    if q.real <= 0.0:
        raise ConvergenceError(f"Re(1 - 2*c2*v) <= 0: the start-law integral diverges at alpha={point.alpha}")
    return _exp_checked(g0 + g1 * g1 * v / (2.0 * q) - 0.5 * cmath.log(q))[0]
