"""Self-verification suite: every identity the closed form rests on.

Each check measures a worst-case error over a parameter grid and compares
it to a tolerance; a non-finite error (NaN included) at any grid point
fails its check, whose detail names the parameter point of its worst
error.  The grid density scales with `grid_size` up to 5, where the fixed
parameter pools run out: a larger size runs the size-5 grid, and the m
values and the alphas stop growing at size 3 already; every grid check
draws its alphas, real and complex, from the one pool.  Size 1
is a minimal smoke run, and a size that is not an integer >= 1 raises
ValueError.  A user-supplied tolerance overrides the per-check defaults
of the deterministic float checks (the Monte Carlo check stays
statistical at 4 standard errors).  run_all rejects a bad argument
(ValueError) before any check runs, and records each check's wall time
in its result.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

from .closed_form import (
    ergodic_constants,
    fit_convergence_rate,
    transform,
)
from .model import ModelParams, check_horizon
from .oracle import _eliminate, _log_mgf, _sigma, monte_carlo_mgf
from .spectral import TransformPoint, domain_check, raw_psi, roots, sequence_ratios

# -1e-3 probes the small-|alpha| regime here; the test suite checks alpha
# down to -1e-300 against a high-precision reference
_THETA_POOL = [0.6, -0.8, 0.3, 0.8, -0.3]
_ALPHA_POOL = [-0.5, -0.05, -2.0, complex(-0.3, 0.4), complex(-1.0, -0.25), -1e-3]
_X_POOL = [0.0, -1.0, 2.0, 0.3]
# a grid of size 1 has x = 0, where m = 0 would make Sigma_t = 0 exactly
_M_POOL = [1.5, 0.0, -0.7]


@dataclass
class CheckResult:
    """One check's worst error against its tolerance; run_all sets
    `seconds`, the check's wall time."""

    name: str
    error: float
    tolerance: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _worse(worst: tuple, errors, **where) -> tuple:
    """(error, where) of the largest of worst's error and errors, NaN once
    any is NaN (max() keeps its first argument against a NaN, which would
    let a NaN error pass); where is the parameter point of errors."""
    for error in errors:
        if error > worst[0] or math.isnan(error) and not math.isnan(worst[0]):
            worst = error, where
    return worst


def _result(name: str, worst: tuple, tol: float) -> CheckResult:
    """The check's result, its detail naming the point of its worst error."""
    error, where = worst
    detail = "worst at " + ", ".join(f"{key}={value!r}" for key, value in where.items()) if where else ""
    return CheckResult(name, error, tol, error <= tol, detail)


def _grids(k: int):
    """The first k thetas, x values and m values and the first 2*k alphas,
    real and complex, of the fixed pools: sizes above 5 (3 for the m values
    and the alphas) take every entry and add nothing."""
    k = check_horizon(k, "grid size", 1)
    return _THETA_POOL[:k], _ALPHA_POOL[: 2 * k], _X_POOL[:k], _M_POOL[:k]


def check_spectral_identities(grid_size: int, tol: float) -> CheckResult:
    """Vieta relations, the symmetric functions of z = lambda_+/theta, and
    the beta product/sum forms, on a theta x alpha grid including complex
    alpha."""
    thetas, alphas, _, _ = _grids(grid_size)
    worst = 0.0, {}
    for theta in thetas:
        params = ModelParams(theta)
        for alpha in alphas:
            point = TransformPoint(alpha)
            if not domain_check(params, point):
                continue
            spectral = roots(params, point)
            lam_p, lam_m = spectral.lambda_plus, spectral.lambda_minus
            mu = point.mu
            z = lam_p / theta
            zi = lam_m / theta
            t2 = theta * theta
            pairs = [
                (lam_p * lam_m, complex(t2)),
                (lam_p + lam_m, -2 * alpha + t2 + 1),
                (z + zi, (mu + t2 + 1) / theta),
                ((z - zi) ** 2, (mu + (1 - theta) ** 2) * (mu + (1 + theta) ** 2) / t2),
                (z + zi - 2, (mu + (1 - theta) ** 2) / theta),
                (z + zi + 2, (mu + (1 + theta) ** 2) / theta),
                (
                    spectral.beta_plus * spectral.beta_minus,
                    mu / ((mu + (1 - theta) ** 2) * (mu + (1 + theta) ** 2)),
                ),
                (spectral.beta_plus + spectral.beta_minus, complex(1.0)),
            ]
            worst = _worse(worst, [_rel(a, b) for a, b in pairs], theta=theta, alpha=alpha)
    return _result("spectral_identities", worst, tol)


def check_wronskian(grid_size: int, tol: float) -> CheckResult:
    """psi's Casoratian (discrete Wronskian) psi_{s+1}*psi_{s-1} - psi_s^2
    from the roots (raw_psi), s = 1..20, against its root-free value
    psi_2*psi_0 - psi_1^2 = mu/theta^2 (mu = -2*alpha), and the anchors
    psi_0 = 1 and theta*psi_1 = 1.

    raw_psi's form gives beta_+*beta_-*(z - 1/z)^2 for any weights and z,
    so only a root-free target catches wrong roots.  The left side is a
    difference of O(|z|^(2s)) products, so the error is measured relative
    to the largest quantity formed; against the O(1) constant alone,
    doubles cannot resolve the difference once |z|^(2s)*eps exceeds it.
    """
    thetas, alphas, _, _ = _grids(grid_size)
    worst = 0.0, {}
    for theta in thetas:
        params = ModelParams(theta)
        for alpha in alphas:
            point = TransformPoint(alpha)
            if not domain_check(params, point):
                continue
            spectral = roots(params, point)
            target = point.mu / (theta * theta)
            psi = [raw_psi(spectral, params, s) for s in range(22)]
            worst = _worse(worst, [abs(psi[0] - 1.0), abs(theta * psi[1] - 1.0)], theta=theta, alpha=alpha, s=0)
            for s in range(1, 21):
                outer = psi[s + 1] * psi[s - 1]
                scale = max(abs(outer), abs(psi[s]) ** 2, abs(target))
                worst = _worse(worst, [abs(outer - psi[s] ** 2 - target) / scale], theta=theta, alpha=alpha, s=s)
    return _result("wronskian", worst, tol)


def check_matrix_oracle(grid_size: int, tol: float) -> CheckResult:
    """Closed form vs the root-free forward elimination of
    B = L L' - 2*alpha*I (oracle._eliminate), run once per grid point for
    both factors of L_t = pi_t^(-1/2)*exp(alpha*Sigma_t): log L_t, its
    error relative to max(1, |log L_t|), and Sigma_t, relative, at t = 1, 5
    and 50, complex alpha included."""
    thetas, alphas, xs, ms = _grids(grid_size)
    worst = 0.0, {}
    for theta in thetas:
        for m in ms:
            params = ModelParams(theta, m)
            for alpha in alphas:
                point = TransformPoint(alpha)
                if not domain_check(params, point):
                    continue
                for x in xs:
                    for t in (1, 5, 50):
                        elimination = _eliminate(params, point.alpha, x, t)
                        closed = transform(params, point, x, t)
                        log_value, sigma = _log_mgf(point.alpha, x, elimination), _sigma(x, elimination)
                        errors = (abs(log_value - closed.log_value) / max(1.0, abs(closed.log_value)),
                                  abs(sigma - closed.sigma_t) / max(abs(closed.sigma_t), 1e-30))
                        worst = _worse(worst, errors, theta=theta, m=m, alpha=alpha, x=x, t=t)
    return _result("matrix_oracle", worst, tol)


def check_monte_carlo(seed: int, n_samples: int) -> CheckResult:
    """Closed form within 4 standard errors of the Monte Carlo estimate."""
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.2)
    estimate = monte_carlo_mgf(params, -0.2, 0.0, 10, n_samples, seed)
    closed = transform(params, point, 0.0, 10).value.real
    z_score = abs(closed - estimate.value) / estimate.stderr
    return CheckResult(
        "monte_carlo",
        z_score,
        4.0,
        z_score <= 4.0,
        detail=f"n={n_samples}, seed={seed}, stderr={estimate.stderr:.3e}",
    )


def check_convergence_rate(tol: float) -> CheckResult:
    """Fitted geometric error ratio of the normalized transform matches
    |theta/lambda_+| over the window t in [20, 80]."""
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    fit = fit_convergence_rate(params, point, 0.5)
    expected = ergodic_constants(params, point, 0.5).rate
    deviation = abs(fit.ratio - expected) / expected
    return CheckResult(
        "convergence_rate",
        deviation,
        tol,
        deviation <= tol,
        detail=f"fitted={fit.ratio:.6f}, expected={expected:.6f}, points={fit.n_points}",
    )


def check_exactness_anchors(grid_size: int, tol: float) -> CheckResult:
    """L_0 = exp(alpha*x^2), L_t(0, x) = 1 exactly, and the t = 0 sequence
    anchors r_0 = theta, 1/psi_1 = theta, log(pi_0) = 0."""
    thetas, alphas, xs, _ = _grids(grid_size)
    worst = 0.0, {}
    for theta in thetas:
        params = ModelParams(theta, 0.5)
        zero = transform(params, TransformPoint(0.0), 1.3, 7)
        if zero.value != 1.0 or zero.log_value != 0.0:
            return CheckResult("exactness_anchors", math.inf, tol, False, "L_t(0, x) != 1")
        for alpha in alphas:
            point = TransformPoint(alpha)
            if not domain_check(params, point):
                continue
            spectral = roots(params, point)
            seq = sequence_ratios(spectral, params, 0)
            errors = abs(seq.r - theta), abs(seq.inv_psi - theta), abs(seq.log_pi)
            worst = _worse(worst, errors, theta=theta, alpha=alpha, t=0)
            for x in xs:
                error = _rel(transform(params, point, x, 0).value, cmath.exp(alpha * x * x))
                worst = _worse(worst, [error], theta=theta, m=params.m, alpha=alpha, x=x, t=0)
    return _result("exactness_anchors", worst, tol)


def run_all(
    grid_size: int = 3,
    seed: int = 20240901,
    tolerance: float | None = None,
    mc_samples: int = 1_000_000,
) -> VerifyReport:
    """Run every check, timing each; `tolerance` overrides the float-check
    defaults.

    Raises ValueError, before any check runs, for a grid size that is not
    an integer >= 1, a tolerance that is not a finite number >= 0, a Monte
    Carlo sample count that is not an integer >= 2, and a seed that is not
    an integer >= 0.
    """
    _grids(grid_size)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    check_horizon(mc_samples, "Monte Carlo sample count", 2)
    check_horizon(seed, "Monte Carlo seed")
    # the Monte Carlo oracle needs numpy.random, which numpy 2 loads on first
    # use: loading it here keeps the import out of its check's time
    import numpy.random  # noqa: F401

    def tol(default: float) -> float:
        return default if tolerance is None else tolerance

    runs = [
        (check_spectral_identities, grid_size, tol(1e-12)),
        (check_wronskian, grid_size, tol(1e-10)),
        (check_matrix_oracle, grid_size, tol(1e-10)),
        (check_monte_carlo, seed, mc_samples),
        (check_convergence_rate, tol(0.05)),
        (check_exactness_anchors, grid_size, tol(1e-14)),
    ]
    report = VerifyReport()
    for check, *args in runs:
        start = time.perf_counter()
        result = check(*args)
        result.seconds = time.perf_counter() - start
        report.checks.append(result)
    return report
