from .zeta import PiecewiseZeta
from .spherical import alg_sp, b_profile, opt_sp_numeric, parisi_sp, theta
from .interpolation import (
    LambdaSequence,
    cascade_value,
    gaussian_quadratic_logmoment,
    interpolation_bound_sp,
    lambda_recursion,
)
from .pde import (
    PDESolution,
    alg_is_levels,
    alg_is_numeric,
    parisi_is,
    shift_identity_check,
    solve_parisi_pde,
)
from .increasify import increasify_is, increasify_sp

__all__ = [
    "PiecewiseZeta",
    "alg_sp",
    "b_profile",
    "opt_sp_numeric",
    "parisi_sp",
    "theta",
    "LambdaSequence",
    "cascade_value",
    "gaussian_quadratic_logmoment",
    "interpolation_bound_sp",
    "lambda_recursion",
    "PDESolution",
    "alg_is_levels",
    "alg_is_numeric",
    "parisi_is",
    "shift_identity_check",
    "solve_parisi_pde",
    "increasify_is",
    "increasify_sp",
]
