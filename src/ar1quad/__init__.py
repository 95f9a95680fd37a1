"""Exact exponential transform of squared partial sums of a conditioned
AR(1) process, its multiplicative-ergodicity constants, and the
numerical oracles that validate every closed form."""

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
from .oracle import (
    OracleResult,
    matrix_mgf,
    monte_carlo_mgf,
    sigma_via_recursion,
    unconditional_transform,
)
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
