"""Shared helpers for the test suite."""

import collections
import math
import sys

import numpy as np

from ar1quad import ModelParams, TransformPoint, closed_form, domain_check
from ar1quad.model import check_horizon
from ar1quad.oracle import _log_det, _log_mgf
from ar1quad.spectral import RAW_INDEX_MAX, SCALAR_OPS, _int_power, _roots, _sequence_terms

EPS = sys.float_info.epsilon


def rel_err(a, b, floor=1e-300) -> float:
    return abs(a - b) / max(abs(b), floor)


def log_mgf_at(alpha, x, reading):
    """oracle._log_mgf at one oracle._read reading, from that reading's own
    log det B (oracle._log_det), as matrix_mgf forms it."""
    return _log_mgf(alpha, x, reading, _log_det(alpha, reading))


def worse(worst: float, *errors: float) -> float:
    """The largest of worst and errors, NaN once any is NaN: max() keeps its
    first argument against a NaN, so a NaN error would pass its tolerance."""
    for error in errors:
        if math.isnan(error) or error > worst:
            worst = error
    return worst


def alpha_grid_in_domain(theta: float, n_min: int = 50, include_complex: bool = True):
    """Deterministic in-domain alpha points: real-negative values plus
    complex ones with |Im alpha| <= 0.5."""
    params = ModelParams(theta)
    candidates = [complex(re) for re in np.linspace(-3.0, -0.05, 30)]
    if include_complex:
        for re in np.linspace(-2.5, -0.1, 13):
            for im in (0.5, -0.45, 0.3, -0.15):
                candidates.append(complex(re, im))
    points = [a for a in candidates if domain_check(params, TransformPoint(a))]
    assert len(points) >= n_min, f"only {len(points)} in-domain points for theta={theta}"
    return points


def raw_pi(spectral, params, s: int) -> complex:
    """pi_s evaluated directly; cross-check use only, capped at small s."""
    if not 0 <= s <= RAW_INDEX_MAX:
        raise ValueError(f"raw pi evaluation is capped at index {RAW_INDEX_MAX}, got {s}")
    return spectral.beta_plus * _int_power(spectral.lambda_plus, s + 1) + spectral.beta_minus * _int_power(
        spectral.lambda_minus, s + 1
    )


def gauss_hermite_nodes(mean: float, variance: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the N(mean, variance) density."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return mean + math.sqrt(2.0 * variance) * nodes, weights / math.sqrt(math.pi)


def count_calls(monkeypatch, module, *names):
    """Wrap each module.<name> so that its calls are counted in the returned Counter."""
    counts = collections.Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def term_sizes(params, point, x, t):
    """Sums of the magnitudes of the terms that add up to log L_t and to
    log n = log(exp(-t*Lambda)*L_t): the condition of each sum.  A sweep
    evaluates its horizon cells with numpy's exp and log, the scalar
    functions with cmath's, and the two differ in the last bits, so the
    cells differ by a few eps times these sizes.  They shrink with alpha:
    a relative loss of accuracy at small alpha does not hide below them;
    at alpha = 0 both are 0, and log L_t = 0, n = 1 must hold exactly."""
    spectral = _roots(params.theta, point.alpha)
    q_t, inv_psi, log_e = _sequence_terms(SCALAR_OPS, params.theta, spectral, t)[:3]
    _, a_const, mu_b, c_const = closed_form._constants(params, point, x, spectral)[1]
    bounded = x * x + abs(mu_b * q_t) + abs(c_const * (params.theta - inv_psi))
    log_lambda_plus, alpha = spectral[4], abs(point.alpha)
    # log pi_t = (t+1)*log lambda_+ + (log E_t - log lambda_+), log n = -log E_t/2 + alpha*bounded
    log_pi_size = (t + 1) * abs(log_lambda_plus) + abs(log_e - log_lambda_plus)
    return 0.5 * log_pi_size + alpha * (abs(a_const * t) + bounded), 0.5 * abs(log_e) + alpha * bounded


def within_conditioning(got, want, sizes) -> bool:
    """got and want are (log L_t, n) pairs, sizes their term_sizes:
    |d log L| <= 4 eps*size(log L), and n = exp(log n) inherits the
    absolute error of its log as a relative error (plus that of exp), so
    |d n| <= 4 eps*|n|*max(1, size(log n)), |n| floored at the smallest
    normal double (a subnormal n has fewer digits)."""
    (got_log_l, got_n), (log_l, n) = got, want
    return (abs(got_log_l - log_l) <= 4 * EPS * sizes[0]
            and abs(got_n - n) <= 4 * EPS * max(abs(n), sys.float_info.min) * max(1.0, sizes[1]))


def conditional_covariance(params: ModelParams, t: int) -> np.ndarray:
    """Covariance matrix of (X_1, ..., X_t) given X_0, shape (t, t): the
    dense reference of the matrix oracle's tests.

    Entry (s, u), indexed from 1, is
    theta^|s-u| * (1 - theta^(2*min(s,u))) / (1 - theta^2).
    t = 0 returns an empty (0, 0) matrix.

    Built as min(w_s, w_u) * theta^|s-u| / (1 - theta^2): w_s = 1 - theta^(2s)
    never decreases with s, so the minimum is w_min(s,u), and the Toeplitz
    factor is one strided view of the lag table (row s starts one element
    before row s-1), so no index array and no window stack is formed.
    """
    t = check_horizon(t)
    powers = params.theta ** np.arange(2 * t + 1)  # theta^k for every exponent used
    # lags[t-1+k] = theta^|k| for |k| < t: row s of the view, u = 1..t, reads
    # lags[t-s : 2t-s], which is theta^|s-u|
    lags = np.concatenate((powers[t - 1 : 0 : -1], powers[:t]))
    step = lags.itemsize
    toeplitz = np.lib.stride_tricks.as_strided(lags[t - 1 :], (t, t), (-step, step), writeable=False)
    w = 1.0 - powers[2::2]
    cov = np.minimum.outer(w, w)
    cov *= toeplitz
    cov /= 1.0 - params.theta * params.theta
    return cov


def eliminate_every_step(params: ModelParams, alpha: complex, x: float, t: int) -> tuple:
    """oracle._eliminate as it was before its stop rule: one interpreted
    step for every s = 1..t, each term written out, the same
    (scale, offsets, quads, start) with no cycle (start None).  The
    reference of the stop rule's bit-identity test."""
    from ar1quad.oracle import _exact_square
    theta, m = params.theta, params.m
    mean_1 = m + theta * (x - m)
    scale = max((abs(mean_1), abs(m))[:t], default=0.0) or 1.0
    if not math.isfinite(scale):
        raise closed_form._overflow("the conditional mean", params, x, alpha, t)
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
    except ZeroDivisionError:
        quads.append(math.inf)
    return scale, offsets, quads, None
