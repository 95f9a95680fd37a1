"""Non-centered stationary AR(1) process, conditioned on its starting value.

The process is X_t = Y_t + m, where Y_t = theta*Y_{t-1} + e_t with i.i.d.
standard Gaussian innovations and 0 < |theta| < 1.  Conditionally on
X_0 = x, the deviations X_t - m follow the same recursion started from
x - m, so the conditional law is Gaussian with

    mean:  E[X_s | X_0 = x] = m + theta^s * (x - m)
    cov :  Cov(X_s, X_u | X_0) = theta^|s-u| * (1 - theta^(2*min(s,u))) / (1 - theta^2)

The index-0 coordinate is deterministic under the conditioning and is
excluded from the covariance matrix (it would make the matrix singular);
callers account for it through a separate exp(alpha*x^2) factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np


def check_finite(name: str, value: float) -> None:
    """Raise ParameterError unless value (the level m, a start value x, an
    oracle's alpha) is finite."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def check_horizon(t) -> int:
    """t as an int; raise ValueError unless it is an integer (any value
    operator.index accepts) >= 0.  A horizon of 10.5 has no transform."""
    try:
        horizon = operator.index(t)
    except TypeError:
        raise ValueError(f"horizon t must be an integer, got {t!r}") from None
    if horizon < 0:
        raise ValueError(f"horizon t must be >= 0, got {t}")
    return horizon


@dataclass(frozen=True)
class ModelParams:
    """Process parameters: memory coefficient theta and level shift m.

    The stationary law of X is normal with mean m and variance
    1/(1 - theta^2).
    """

    theta: float
    m: float = 0.0

    def __init__(self, theta: float, m: float = 0.0):
        # each field is written once, straight into the instance dict: the
        # frozen __setattr__ refuses it, and object.__setattr__ costs more
        if not 0.0 < abs(theta) < 1.0:
            raise ParameterError(f"need 0 < |theta| < 1, got theta={theta!r}")
        check_finite("m", m)
        fields = self.__dict__
        fields["theta"] = theta
        fields["m"] = m


@dataclass(frozen=True)
class ConditionalPath:
    """A simulated trajectory X_0..X_t given X_0 = x0, driven by `seed`."""

    x0: float
    values: np.ndarray = field(repr=False)
    seed: int

    def __len__(self) -> int:
        return len(self.values)


def simulate_conditional(params: ModelParams, x: float, t: int, seed: int) -> ConditionalPath:
    """Simulate X_0..X_t conditionally on X_0 = x.

    Seed contract: the innovations e_1..e_t are exactly
    ``numpy.random.default_rng(seed).standard_normal(t)``, consumed in
    order, so identical seeds replay identical paths bit for bit.
    """
    import numpy as np
    check_finite("x", x)
    t = check_horizon(t)
    innovations = np.random.default_rng(seed).standard_normal(t)
    dev = np.empty(t + 1)
    dev[0] = x - params.m
    for s in range(1, t + 1):
        dev[s] = params.theta * dev[s - 1] + innovations[s - 1]
    values = dev + params.m
    values[0] = x  # exact, not (x - m) + m
    return ConditionalPath(x0=x, values=values, seed=seed)


def conditional_mean(params: ModelParams, x: float, s: int) -> float:
    """E[X_s | X_0 = x] = m + theta^s * (x - m).

    Equals the one-step recursion m_s = theta*m_{s-1} + m*(1 - theta)
    started from m_0 = x.
    """
    check_finite("x", x)
    if s < 0:
        raise ValueError(f"step index must be >= 0, got {s}")
    if s == 0:
        return x  # recursion anchor, exact (m + (x - m) would round)
    return params.m + params.theta**s * (x - params.m)


def conditional_covariance(params: ModelParams, t: int) -> np.ndarray:
    """Covariance matrix of (X_1, ..., X_t) given X_0, shape (t, t).

    Entry (s, u), indexed from 1, is
    theta^|s-u| * (1 - theta^(2*min(s,u))) / (1 - theta^2).
    t = 0 returns an empty (0, 0) matrix.

    Built as min(w_s, w_u) * theta^|s-u| / (1 - theta^2): w_s = 1 - theta^(2s)
    never decreases with s, so the minimum is w_min(s,u), and the Toeplitz
    factor is a window view of the power table, so no index array is formed.
    """
    import numpy as np
    t = check_horizon(t)
    powers = params.theta ** np.arange(2 * t + 1)  # theta^k for every exponent used
    # row s of the windows, read in reverse, is theta^|s-u| for u = 1..t
    lags = np.concatenate((powers[t - 1 : 0 : -1], powers[:t]))
    toeplitz = np.lib.stride_tricks.sliding_window_view(lags, t)[::-1]
    w = 1.0 - powers[2::2]
    cov = np.minimum.outer(w, w)
    cov *= toeplitz
    cov /= 1.0 - params.theta * params.theta
    return cov
