"""Self-verification suite: every identity the closed form rests on.

Each check measures a worst-case error over a parameter grid and compares
it to a tolerance; a non-finite error (NaN included) at any grid point
fails its check, whose detail names the parameter point of its worst
error.  The grid density scales with `grid_size` up to 5, where the fixed
parameter pools run out: a larger size runs the size-5 grid, and the m
values and the alphas stop growing at size 3 already; every grid check
draws its alphas, real and complex, from the one pool.  Size 1
is a minimal smoke run, and a size that is not an integer >= 1 raises
ValueError.  Every check is a function of (grid_size, tol); a
user-supplied tolerance overrides each check's default.  The checks are
deterministic: nothing is sampled, and no numpy is loaded.  run_all
rejects a bad argument (ValueError) before any check runs, and records
each check's wall time in its result.

Each quantity is evaluated once, at the level it depends on: the roots
once per (theta, alpha), shared by every m (_points); the closed form's
sequence terms and the elimination's log det B once per (theta, alpha, t);
the constants once per grid point and x, and one elimination there.  The
results are those of evaluating everything at every grid point, bit for
bit, since each shared quantity is the same operations on the same inputs.
"""

from __future__ import annotations

import cmath
import math
import time
from collections import namedtuple

from .closed_form import _coefficients, _constants, _gaussian_step, _horizon, _limit_terms, _log_limit, transform
from .errors import DomainError
from .model import ModelParams, check_horizon
from .oracle import _eliminate, _log_det, _log_mgf, _read, _sigma
from .spectral import SCALAR_OPS, TransformPoint, _sequence_terms, raw_psi, roots, sequence_ratios

# -1e-3 probes the small-|alpha| regime here; the test suite checks alpha
# down to -1e-300 against a high-precision reference
_THETA_POOL = [0.6, -0.8, 0.3, 0.8, -0.3]
_ALPHA_POOL = [-0.5, -0.05, -2.0, complex(-0.3, 0.4), complex(-1.0, -0.25), -1e-3]
_X_POOL = [0.0, -1.0, 2.0, 0.3]
# a grid of size 1 has x = 0, where m = 0 would make Sigma_t = 0 exactly
_M_POOL = [1.5, 0.0, -0.7]


class CheckResult(namedtuple("CheckResult", "name error tolerance passed detail seconds", defaults=("", 0.0))):
    """One check's worst error against its tolerance; run_all sets
    `seconds`, the check's wall time."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "checks")):
    __slots__ = ()

    def __new__(cls, checks: list[CheckResult] | None = None):
        return tuple.__new__(cls, ([] if checks is None else checks,))  # a fresh list for each report

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


def _points(grid_size: int, ms=None):
    """(params, alpha, point, spectral) at each grid point in D, theta
    outermost, then m (the pool's values, or `ms`), then alpha, the pool's
    value; spectral is roots()'s record, solved once per (theta, alpha) and
    shared by every m (an alpha outside D, where roots() raises, is left out)."""
    thetas, alphas, _, pool = _grids(grid_size)
    for theta in thetas:
        solved = []
        for alpha in alphas:
            point = TransformPoint(alpha)
            try:
                solved.append((alpha, point, roots(ModelParams(theta, 0.0), point)))
            except DomainError:
                pass
        for m in pool if ms is None else ms:
            params = ModelParams(theta, m)
            for alpha, point, spectral in solved:
                yield params, alpha, point, spectral


def check_spectral_identities(grid_size: int, tol: float) -> CheckResult:
    """Vieta relations, the symmetric functions of z = lambda_+/theta, and
    the beta product/sum forms, on a theta x alpha grid including complex
    alpha."""
    worst = 0.0, {}
    for params, alpha, point, spectral in _points(grid_size, (0.0,)):
        theta = params.theta
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
    worst = 0.0, {}
    for params, alpha, point, spectral in _points(grid_size, (0.0,)):
        theta = params.theta
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
    B = L L' - 2*alpha*I (oracle._eliminate), run once per grid point, to
    t = 50, and read (oracle._read) at t = 1, 5 and 50 for both factors of
    L_t = pi_t^(-1/2)*exp(alpha*Sigma_t): log L_t, its error relative to
    max(1, |log L_t|), and Sigma_t, relative, complex alpha included.  The
    closed form is transform's log L_t and Sigma_t: the sequence terms once
    per (theta, alpha, t), the constants once per grid point and x.  The
    pivots depend on (theta, alpha) alone, so log det B (oracle._log_det) is
    summed once per (theta, alpha, t), from the first reading there."""
    xs = _grids(grid_size)[2]
    horizons = (1, 5, 50)
    levels = {}  # (theta, alpha) -> [(t, sequence terms, log det B)]
    worst = 0.0, {}
    for params, alpha, point, spectral in _points(grid_size):
        theta, a = params.theta, point.alpha
        for x in xs:
            cf = _constants(params, point, x, spectral)[1]
            elimination = _eliminate(params, a, x, horizons[-1])
            readings = [_read(a, elimination, t) for t in horizons]
            if (theta, alpha) not in levels:
                levels[theta, alpha] = [(t, _sequence_terms(SCALAR_OPS, theta, spectral, t), _log_det(a, reading))
                                        for t, reading in zip(horizons, readings)]
            for (t, terms, log_det), reading in zip(levels[theta, alpha], readings):
                log_closed, sigma_closed = _horizon(params, x, a, cf, terms, t)[:2]
                log_value, sigma = _log_mgf(a, x, reading, log_det), _sigma(x, reading)
                errors = (abs(log_value - log_closed) / max(1.0, abs(log_closed)),
                          abs(sigma - sigma_closed) / max(abs(sigma_closed), 1e-30))
                worst = _worse(worst, errors, theta=theta, m=params.m, alpha=alpha, x=x, t=t)
    return _result("matrix_oracle", worst, tol)


def check_one_step(grid_size: int, tol: float) -> CheckResult:
    """The closed form's one-step identity L_t(x) = exp(alpha*x^2)*E[L_{t-1}(X_1) | X_0 = x]
    (the process is Markov), exactly: log L_{t-1} is the quadratic of quadratic_coefficients
    in X_1 - m ~ N(theta*(x - m), 1), whose Gaussian expectation is closed.  log L_t's error
    relative to max(1, |log L_t|), at t = 1, 10^3 and 10^6, complex alpha included; log L_t
    is transform's, from the sequence terms at t - 1 and t once per (theta, alpha, t) and the
    constants once per grid point and x.  At t = inf the identity is the eigen-equation
    exp(Lambda)*f_check(x) = exp(alpha*x^2)*E[f_check(X_1) | X_0 = x], which reads Lambda
    and log f_check(x) from the same constants and the limit terms (_limit_terms)."""
    xs = _grids(grid_size)[2]
    levels = {}  # (theta, alpha) -> [(t, sequence terms at t - 1, at t)]
    worst = 0.0, {}
    for params, alpha, point, spectral in _points(grid_size):
        theta, m, a = params.theta, params.m, point.alpha
        if (theta, alpha) not in levels:
            limit = _limit_terms(theta, spectral)
            levels[theta, alpha] = [(t, _sequence_terms(SCALAR_OPS, theta, spectral, t - 1),
                                     _sequence_terms(SCALAR_OPS, theta, spectral, t)) for t in (1, 10**3, 10**6)]
            levels[theta, alpha].append((math.inf, limit, limit))
        stages = [_constants(params, point, x, spectral) for x in xs]
        at_m = _constants(params, point, m, spectral)[1]
        for t, before, at in levels[theta, alpha]:
            coefficients = _coefficients(params, a, at_m, before, t - 1)
            for x, stage in zip(xs, stages):
                log_value = (stage[2] + _log_limit(params, x, a, stage[1], at) if t == math.inf
                             else _horizon(params, x, a, stage[1], at, t)[0])
                step = a * (x * x) + _gaussian_step(*coefficients, theta * (x - m), 1.0)
                error = abs(log_value - step) / max(1.0, abs(log_value))
                worst = _worse(worst, [error], theta=theta, m=m, alpha=alpha, x=x, t=t)
    return _result("one_step", worst, tol)


def check_exactness_anchors(grid_size: int, tol: float) -> CheckResult:
    """L_0 = exp(alpha*x^2), L_t(0, x) = 1 (error |L_t - 1| + |log L_t|), and the t = 0 sequence
    anchors r_0 = theta, 1/psi_1 = theta, log(pi_0) = 0."""
    thetas, _, xs, _ = _grids(grid_size)
    worst = 0.0, {}
    for theta in thetas:
        zero = transform(ModelParams(theta, 0.5), TransformPoint(0.0), 1.3, 7)
        worst = _worse(worst, [abs(zero.value - 1.0) + abs(zero.log_value)], theta=theta, m=0.5, alpha=0.0,
                       x=1.3, t=7)
    for params, alpha, point, spectral in _points(grid_size, (0.5,)):
        theta = params.theta
        seq = sequence_ratios(spectral, params, 0)
        errors = abs(seq.r - theta), abs(seq.inv_psi - theta), abs(seq.log_pi)
        worst = _worse(worst, errors, theta=theta, alpha=alpha, t=0)
        for x in xs:
            error = _rel(transform(params, point, x, 0).value, cmath.exp(alpha * x * x))
            worst = _worse(worst, [error], theta=theta, m=params.m, alpha=alpha, x=x, t=0)
    return _result("exactness_anchors", worst, tol)


def run_all(grid_size: int = 3, tolerance: float | None = None) -> VerifyReport:
    """Run every check, timing each; `tolerance` overrides the per-check
    defaults.

    Raises ValueError, before any check runs, for a grid size that is not
    an integer >= 1 and a tolerance that is not a finite number >= 0.
    """
    _grids(grid_size)
    try:
        bad = tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0)
    except TypeError:  # a string or a complex number
        bad = True
    if bad:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    report = VerifyReport()
    for check, default in ((check_spectral_identities, 1e-12), (check_wronskian, 1e-10),
                           (check_matrix_oracle, 1e-10), (check_one_step, 1e-12),
                           (check_exactness_anchors, 1e-14)):
        start = time.perf_counter()
        result = check(grid_size, default if tolerance is None else tolerance)
        report.checks.append(result._replace(seconds=time.perf_counter() - start))
    return report
