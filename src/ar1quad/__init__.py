"""Exact exponential transform of squared partial sums of a conditioned
AR(1) process, its multiplicative-ergodicity constants, and the
numerical oracles that validate every closed form.

`import ar1quad` loads the closed form alone (closed_form, spectral, model
and errors).  The oracles (OracleResult, matrix_mgf, monte_carlo_mgf,
sigma_via_recursion, unconditional_transform) and the submodule `oracle`
load on first access, through the module __getattr__ below, which binds
all five names here at once, so later calls pay a plain attribute lookup.
`from ar1quad import *` binds every name of __all__, and so loads them.
"""

from .closed_form import (
    ClosedFormConstants,
    ErgodicConstants,
    RateFit,
    TransformValue,
    constants,
    ergodic_constants,
    fit_convergence_rate,
    normalized_transform,
    transform,
)
from .errors import (
    ConvergenceError,
    DomainBoundaryError,
    DomainError,
    ParameterError,
    SingularConstantError,
    SingularSequenceError,
)
from .model import ModelParams, conditional_mean
from .spectral import (
    SequenceRatios,
    SpectralData,
    TransformPoint,
    domain_check,
    roots,
    sequence_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormConstants",
    "ConvergenceError",
    "DomainBoundaryError",
    "DomainError",
    "ErgodicConstants",
    "ModelParams",
    "OracleResult",
    "ParameterError",
    "RateFit",
    "SequenceRatios",
    "SingularConstantError",
    "SingularSequenceError",
    "SpectralData",
    "TransformPoint",
    "TransformValue",
    "conditional_mean",
    "constants",
    "domain_check",
    "ergodic_constants",
    "fit_convergence_rate",
    "matrix_mgf",
    "monte_carlo_mgf",
    "normalized_transform",
    "roots",
    "sequence_ratios",
    "sigma_via_recursion",
    "transform",
    "unconditional_transform",
]

_ORACLE_NAMES = ("OracleResult", "matrix_mgf", "monte_carlo_mgf", "sigma_via_recursion", "unconditional_transform")


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import oracle`: its fromlist handling asks this hook for
    # `oracle` again before the submodule is bound
    import importlib
    oracle = importlib.import_module(f"{__name__}.oracle")  # binds `oracle` here
    namespace = globals()
    for lazy in _ORACLE_NAMES:
        namespace[lazy] = getattr(oracle, lazy)
    return namespace[name]


def __dir__() -> list:
    return sorted({*globals(), *_ORACLE_NAMES, "oracle"})
