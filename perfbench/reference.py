"""High-precision reference values for the benchmark's correctness checks.

Every quantity is the documented closed form evaluated in mpmath with at
least 50 significant digits, plus enough extra digits to absorb the
cancellation that tiny |alpha| and long horizons cause.  Nothing here
imports ar1quad, so a defect in the library cannot leak into its own
reference.

Conventions (these fix the branch of every complex logarithm):

* log pi_t = (t+1)*log(lambda_+) + log(beta_+ + beta_-*(lambda_-/lambda_+)^(t+1)),
  not the principal log(pi_t); the principal form is off by pi*i at, e.g.,
  theta=0.6, m=1, x=0.5, alpha=-0.3+0.4i, t=10, which flips the sign of L.
* f_check is the t -> infinity limit of exp(-t*Lambda)*L_t under that
  convention, i.e. exp(-(log beta_+ + log lambda_+)/2 + alpha*(...)).
* The unconditional transform is the exact Gaussian integral of the
  log-quadratic-in-x L_t against N(m, 1/(1-theta^2)).
"""

from __future__ import annotations

import cmath
import math

import mpmath
from mpmath import mp

BASE_DIGITS = 50


def working_digits(alpha: complex, t: int = 0) -> int:
    """Digits that keep >= BASE_DIGITS after the lambda_+ ~ 1 cancellation
    (about -log10|alpha| digits) and the O(t) terms (about log10(t))."""
    small = max(0.0, -math.log10(abs(alpha))) if alpha != 0 else 0.0
    return BASE_DIGITS + 10 + int(small) + int(math.log10(t + 2))


class Closed:
    """Roots, weights and constants of the closed form at one (theta, m, x, alpha).

    Must be built and used inside an mp.workdps context of sufficient
    precision (see working_digits).
    """

    def __init__(self, theta: float, m: float, x: float, alpha: complex):
        th = mpmath.mpf(theta)
        alpha = complex(alpha)
        # real alpha stays in mpf arithmetic, which is several times faster
        a = mpmath.mpf(alpha.real) if alpha.imag == 0 else mpmath.mpc(alpha)
        self.theta, self.m, self.x, self.alpha = th, mpmath.mpf(m), mpmath.mpf(x), a
        b = -2 * a + th * th + 1
        s = mpmath.sqrt((-2 * a + (th + 1) ** 2) * (-2 * a + (th - 1) ** 2))
        lp, lm = (b + s) / 2, (b - s) / 2
        if abs(lp) < abs(lm):
            lp, lm = lm, lp
        self.lam_p, self.lam_m = lp, lm
        self.beta_p = (1 - lm) / (lp - lm)
        self.beta_m = (lp - 1) / (lp - lm)
        self.log_lam_p = mpmath.log(lp)
        self.z = lp / th
        mu = -2 * a
        one_th = 1 - th
        nu = self.m * one_th / (mu + one_th**2)
        centred = self.x - one_th * nu
        self.A = self.m * one_th * nu
        self.B = th / mu * centred**2 - th * nu**2
        self.C = 2 * nu * centred
        self.Lambda = a * self.m**2 * one_th**2 / (mu + one_th**2) - self.log_lam_p / 2

    def log_transform(self, t: int):
        """log L_t = -log(pi_t)/2 + alpha*Sigma_t."""
        zt = self.z**t
        rho_t1 = (self.lam_m / self.lam_p) ** (t + 1)
        psi_t = self.beta_p * zt + self.beta_m / zt
        zt1 = zt * self.z
        psi_t1 = self.beta_p * zt1 + self.beta_m / zt1
        log_pi = (t + 1) * self.log_lam_p + mpmath.log(self.beta_p + self.beta_m * rho_t1)
        th = self.theta
        sigma = self.A * t + self.x**2 + self.B * (th - psi_t / psi_t1) + self.C * (th - 1 / psi_t1)
        return -log_pi / 2 + self.alpha * sigma

    def log_f_check(self):
        th = self.theta
        return -(mpmath.log(self.beta_p) + self.log_lam_p) / 2 + self.alpha * (
            self.x**2 + self.B * (th - th / self.lam_p) + self.C * th
        )

    def rate(self):
        return abs(self.theta / self.lam_p)


def in_domain(theta: float, alpha: complex, margin: float = 0.0) -> bool:
    """|lambda_-| < |theta| < |lambda_+| with a relative margin (double precision
    suffices: used only to generate inputs and to label panel entries)."""
    b = -2 * alpha + theta * theta + 1
    s = cmath.sqrt((-2 * alpha + (theta + 1) ** 2) * (-2 * alpha + (theta - 1) ** 2))
    lp, lm = (b + s) / 2, (b - s) / 2
    if abs(lp) < abs(lm):
        lp, lm = lm, lp
    return abs(lm) < (1 - margin) * abs(theta) and abs(lp) > (1 + margin) * abs(theta)


def to_complex(v) -> complex:
    """mpc/mpf -> Python complex; values beyond double range become +/-inf."""
    return complex(float(mpmath.re(v)), float(mpmath.im(v)))


def transform_ref(theta, m, x, alpha, t):
    """(log L_t, normalized = exp(log L_t - t*Lambda)) as Python complexes."""
    with mp.workdps(working_digits(alpha, t)):
        c = Closed(theta, m, x, alpha)
        log_l = c.log_transform(t)
        return to_complex(log_l), to_complex(mpmath.exp(log_l - t * c.Lambda))


def ergodic_ref(theta, m, x, alpha):
    """(Lambda, f_check, rate) as Python numbers."""
    with mp.workdps(working_digits(alpha)):
        c = Closed(theta, m, x, alpha)
        return to_complex(c.Lambda), to_complex(mpmath.exp(c.log_f_check())), float(c.rate())


def sweep_ref(theta, m, x, alpha, t_start, count):
    """[(log L_t, normalized, Lambda, rate)] for t = t_start .. t_start+count-1.

    The same formula as Closed.log_transform, stepped in t: z^(t+1),
    z^-(t+1) and rho^(t+1) advance by one multiplication per row and
    psi_{t+1} is carried over as the next row's psi_t.  log(beta_+ +
    beta_-*rho^(t+1)) is taken as log(beta_+) once the second term is below
    the working precision, where the two agree to every digit carried.
    """
    digits = working_digits(alpha, t_start + count)
    with mp.workdps(digits):
        c = Closed(theta, m, x, alpha)
        z, iz = c.z, 1 / c.z
        zt1 = z ** (t_start + 1)
        izt1 = 1 / zt1
        psi_t = c.beta_p * zt1 * iz + c.beta_m * izt1 * z
        rho = c.lam_m / c.lam_p
        rho_t1 = rho ** (t_start + 1)
        negligible = mpmath.mpf(10) ** -(digits + 5) * abs(c.beta_p)
        log_beta_p = mpmath.log(c.beta_p)
        th, a = c.theta, c.alpha
        k0 = a * (c.x**2 + (c.B + c.C) * th)
        k_t = a * c.A - c.log_lam_p / 2
        lam, rate = to_complex(c.Lambda), float(c.rate())
        rows = []
        for t in range(t_start, t_start + count):
            psi_t1 = c.beta_p * zt1 + c.beta_m * izt1
            inv = 1 / psi_t1
            tail = c.beta_m * rho_t1
            log_corr = log_beta_p if abs(tail) < negligible else mpmath.log(c.beta_p + tail)
            log_l = k0 + k_t * t - (c.log_lam_p + log_corr) / 2 - a * (c.B * psi_t + c.C) * inv
            rows.append((to_complex(log_l), to_complex(mpmath.exp(log_l - t * c.Lambda)), lam, rate))
            psi_t = psi_t1
            zt1 *= z
            izt1 *= iz
            rho_t1 *= rho
        return rows


def unconditional_ref(theta, m, alpha, t):
    """E[exp(alpha*S_t)] under X_0 ~ N(m, 1/(1-theta^2)), exactly.

    log L_t(alpha, x) = c0 + c1*x + c2*x^2 exactly, so the integral is
    (1-2*c2*v)^(-1/2) * exp(c0 + c1*m + c2*m^2 + (c1 + 2*c2*m)^2*v / (2*(1-2*c2*v))).
    Returns the log of the value (a Python complex).
    """
    with mp.workdps(working_digits(alpha, t)):
        f = [Closed(theta, m, x, alpha).log_transform(t) for x in (-1, 0, 1)]
        c0, c1, c2 = f[1], (f[2] - f[0]) / 2, (f[2] + f[0]) / 2 - f[1]
        mm = mpmath.mpf(m)
        v = 1 / (1 - mpmath.mpf(theta) ** 2)
        q = 1 - 2 * c2 * v
        return to_complex(-mpmath.log(q) / 2 + c0 + c1 * mm + c2 * mm**2 + (c1 + 2 * c2 * mm) ** 2 * v / (2 * q))


def log_rel_error(got: complex, ref: complex) -> float:
    """Relative error of a complex logarithm, comparing modulo 2*pi*i."""
    d = got - ref
    d = complex(d.real, math.remainder(d.imag, 2 * math.pi))
    return abs(d) / abs(ref) if ref != 0 else abs(d)


def l_rel_error(got_log: complex, ref_log: complex) -> float:
    """Relative error in L = exp(log L) implied by two logs (modulo 2*pi*i)."""
    d = got_log - ref_log
    d = complex(d.real, math.remainder(d.imag, 2 * math.pi))
    return abs(cmath.exp(d) - 1) if abs(d) < 1 else math.inf


def rel_error(got: complex, ref: complex) -> float:
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got)
