"""High-precision reference values of the closed form, evaluated in mpmath.

Each function takes the double-precision inputs, converts them exactly,
and evaluates the documented formulas directly (raw psi_t, pi_t and the
constants) with at least 50 correct significant digits.  No ar1quad code
is used, so a defect in the library cannot leak into its own reference.
"""

import math

import mpmath
from mpmath import mp

BASE_DIGITS = 50


def _digits(alpha: complex, t: int, level: float = 1.0) -> int:
    """Working digits that keep BASE_DIGITS after the lambda_+ ~ 1
    cancellation (about -log10|alpha| digits), the O(t) terms, and the
    terms of size level^2 = max(1, |m|, |x|)^2 that cancel in Sigma_t
    (at t = 0, B*(theta - r_0) and C*(theta - 1/psi_1) must vanish)."""
    small = max(0.0, -math.log10(abs(alpha)))
    return BASE_DIGITS + 10 + int(small) + int(math.log10(t + 2)) + int(2 * math.log10(max(1.0, level)))


def _roots(theta, alpha):
    b = -2 * alpha + theta**2 + 1
    s = mpmath.sqrt((-2 * alpha + (theta + 1) ** 2) * (-2 * alpha + (theta - 1) ** 2))
    lam_plus, lam_minus = (b + s) / 2, (b - s) / 2
    if abs(lam_plus) < abs(lam_minus):
        lam_plus, lam_minus = lam_minus, lam_plus
    beta_plus = (1 - lam_minus) / (lam_plus - lam_minus)
    beta_minus = (lam_plus - 1) / (lam_plus - lam_minus)
    return lam_plus, lam_minus, beta_plus, beta_minus


def _mp_alpha(alpha: complex):
    alpha = complex(alpha)
    return mpmath.mpf(alpha.real) if alpha.imag == 0 else mpmath.mpc(alpha)


def _complex(value) -> complex:
    return complex(float(mpmath.re(value)), float(mpmath.im(value)))


def _psi(theta, lam_plus, beta_plus, beta_minus, s):
    z = lam_plus / theta
    return beta_plus * z**s + beta_minus * z ** (-s)


def sequence_ref(theta: float, alpha: complex, t: int) -> tuple[complex, complex, complex]:
    """(r_t, theta - r_t, 1/psi_{t+1}) with r_t = psi_t/psi_{t+1}."""
    with mp.workdps(_digits(alpha, t)):
        th = mpmath.mpf(theta)
        lam_plus, _, beta_plus, beta_minus = _roots(th, _mp_alpha(alpha))
        psi_t = _psi(th, lam_plus, beta_plus, beta_minus, t)
        psi_t1 = _psi(th, lam_plus, beta_plus, beta_minus, t + 1)
        r = psi_t / psi_t1
        return _complex(r), _complex(th - r), _complex(1 / psi_t1)


def log_transform_ref(theta: float, m: float, x: float, alpha: complex, t: int) -> complex:
    """log L_t = -log(pi_t)/2 + alpha*Sigma_t, with log(pi_t) taken as
    (t+1)*log(lambda_+) + log(beta_+ + beta_-*(lambda_-/lambda_+)^(t+1))."""
    with mp.workdps(_digits(alpha, t, max(abs(m), abs(x)))):
        th, m, x, a = mpmath.mpf(theta), mpmath.mpf(m), mpmath.mpf(x), _mp_alpha(alpha)
        lam_plus, lam_minus, beta_plus, beta_minus = _roots(th, a)
        log_pi = (t + 1) * mpmath.log(lam_plus) + mpmath.log(
            beta_plus + beta_minus * (lam_minus / lam_plus) ** (t + 1)
        )
        mu = -2 * a
        nu = m * (1 - th) / (mu + (1 - th) ** 2)
        centred = x - (1 - th) * nu
        a_const = m * (1 - th) * nu
        b_const = th / mu * centred**2 - th * nu**2
        c_const = 2 * nu * centred
        psi_t = _psi(th, lam_plus, beta_plus, beta_minus, t)
        psi_t1 = _psi(th, lam_plus, beta_plus, beta_minus, t + 1)
        sigma = a_const * t + x**2 + b_const * (th - psi_t / psi_t1) + c_const * (th - 1 / psi_t1)
        return _complex(-log_pi / 2 + a * sigma)


def growth_rate_ref(theta: float, m: float, alpha: complex) -> complex:
    """Lambda(alpha) = alpha*m^2*(1-theta)^2/(mu + (1-theta)^2) - log(lambda_+)/2."""
    with mp.workdps(_digits(alpha, 0)):
        th, m, a = mpmath.mpf(theta), mpmath.mpf(m), _mp_alpha(alpha)
        lam_plus = _roots(th, a)[0]
        return _complex(a * m**2 * (1 - th) ** 2 / (-2 * a + (1 - th) ** 2) - mpmath.log(lam_plus) / 2)


def tridiagonal_det_ref(theta: float, alpha: float, t: int):
    """det(L L' - 2*alpha*I) at 60 digits, L the t x t unit lower-bidiagonal
    matrix with -theta below the diagonal; it equals det(I - 2*alpha*Sigma).
    The three-term recurrence D_s = c_s*D_{s-1} - theta^2*D_{s-2}, with
    D_0 = 1, c_1 = 1 - 2*alpha and c_s = 1 + theta^2 - 2*alpha for s >= 2,
    runs on the exact doubles theta and alpha; the result is an mpf."""
    with mp.workdps(60):
        theta_sq, two_alpha = mpmath.mpf(theta) ** 2, 2 * mpmath.mpf(alpha)
        previous, current = mpmath.mpf(0), mpmath.mpf(1)
        for s in range(1, t + 1):
            c = 1 - two_alpha + (theta_sq if s > 1 else 0)
            previous, current = current, c * current - theta_sq * previous
        return current
