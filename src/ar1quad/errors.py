"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid process parameters (the memory coefficient must satisfy 0 < |theta| < 1)."""


class DomainError(ValueError):
    """Transform argument alpha lies outside the validity domain D."""


class DomainBoundaryError(DomainError):
    """The two characteristic roots have equal modulus, so the dominant /
    recessive labelling (and hence membership in D) is ambiguous."""


class SingularSequenceError(ArithmeticError):
    """The auxiliary sequence psi vanishes at the requested index; possible
    only for complex alpha off the real-negative axis."""


class SingularConstantError(ZeroDivisionError):
    """Raised only by the public constants() at alpha == 0, where B has a
    1/(-2 alpha) pole; the evaluation carries mu*B and never forms B."""


class ConvergenceError(ArithmeticError):
    """A Gaussian moment generating function diverges: I - 2*alpha*Sigma is
    not positive definite, or L_t is not integrable over the start law."""
