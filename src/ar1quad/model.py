"""Non-centered stationary AR(1) process, conditioned on its starting value.

The process is X_t = Y_t + m, where Y_t = theta*Y_{t-1} + e_t with i.i.d.
standard Gaussian innovations and 0 < |theta| < 1.  Conditionally on
X_0 = x, the deviations X_t - m follow the same recursion started from
x - m, so the conditional law is Gaussian with

    mean:  E[X_s | X_0 = x] = m + theta^s * (x - m)
    cov :  Cov(X_s, X_u | X_0) = theta^|s-u| * (1 - theta^(2*min(s,u))) / (1 - theta^2)

The index-0 coordinate is deterministic under the conditioning; the
transform and its oracles carry it as a separate exp(alpha*x^2) factor.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import ParameterError

# the largest integer in the double range, an int so that the test against it stays cheap
_LARGEST = int(sys.float_info.max)


def _check_real(name: str, value) -> None:
    """Raise ParameterError if value is a number that is not real: a complex,
    numpy's complexfloating and complex arrays, 0-d ones included, even on
    the real axis (math.isfinite takes a numpy complex by its real part, with
    only a warning, and a 0-d complex array raises TypeError)."""
    import numbers  # only off the float/int fast path of the callers
    if ((isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real))
            or getattr(getattr(value, "dtype", None), "kind", None) == "c"):
        raise ParameterError(f"{name} must be real, got {value!r}")


def check_finite(name: str, value: float) -> None:
    """Raise ParameterError unless value (the level m, a start value x, an
    oracle's alpha) is real and finite; a complex value raises, even on the
    real axis."""
    if type(value) is not float and type(value) is not int:
        _check_real(name, value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


def check_horizon(t, name: str = "horizon t", minimum: int = 0) -> int:
    """t as an int; raise ValueError, naming t by `name`, unless it is an
    integer (any value operator.index accepts) >= minimum and within the
    double range (at most sys.float_info.max, ~1.8e308, which every float
    operation on it needs).  A horizon of 10.5 has no transform, and a step
    index of 1.5 no conditional mean."""
    try:
        horizon = operator.index(t)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {t!r}") from None
    if not minimum <= horizon <= _LARGEST:
        if horizon < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {t}")
        raise ValueError(f"{name} must be at most {sys.float_info.max!r}, "
                         f"got an integer of {horizon.bit_length()} bits")
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
        if type(theta) is not float and type(theta) is not int:  # abs() takes a complex's modulus
            _check_real("theta", theta)
        if not 0.0 < abs(theta) < 1.0:
            raise ParameterError(f"need 0 < |theta| < 1, got theta={theta!r}")
        check_finite("m", m)
        fields = self.__dict__
        fields["theta"] = theta
        fields["m"] = m


def conditional_mean(params: ModelParams, x: float, s: int) -> float:
    """E[X_s | X_0 = x] = m + theta^s * (x - m).

    Equals the one-step recursion m_s = theta*m_{s-1} + m*(1 - theta)
    started from m_0 = x.
    """
    check_finite("x", x)
    s = check_horizon(s, "step index")
    if s == 0:
        return x  # recursion anchor, exact (m + (x - m) would round)
    return params.m + params.theta**s * (x - params.m)
