"""Exception taxonomy shared across the package, and `is_real`, the one
test of a real-number argument.

Runner exit codes: usage/argument -> 2, resource -> 3, numeric -> 4.
"""

import numbers


def is_real(x) -> bool:
    """A real number that is not a bool (JSON's true is not a number)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class ArgumentError(ValueError):
    """Malformed or out-of-contract argument."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ResourceError(RuntimeError):
    """Configured memory/dimension budget exceeded."""


class NumericError(RuntimeError):
    """Numerical failure: non-convergence, self-check failure, NaN/Inf."""


class ConstraintError(ValueError):
    """A construction's verified post-condition cannot be met."""
