"""spinlab: a numerical laboratory for mixed even p-spin glass Hamiltonians,
algorithmic thresholds, and ultrametric overlap experiments.

Importing spinlab loads numpy but not scipy.  The names re-exported from
`spinlab.parisi` (the Parisi functionals, the PDE engine and the ALG
searches) resolve on first access, which imports that package and, with
it, scipy; every other name is bound here.  The Lanczos solver imports
scipy on its first call.
"""

from .mixture import Mixture, pure, xi_eval
from .hamiltonian import (
    Hamiltonian,
    derivatives,
    energy,
    gradient,
    hessian,
    hessian_apply,
    load_snapshot,
    restricted_top_eigvec,
    sample_hamiltonian,
    save_snapshot,
)
from .ensembles import (
    CorrelatedEnsemble,
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    constrained_membership,
    kappa,
    lca_depth,
    m_matrix,
    m_of_q,
    sample_ensemble,
    target_overlap_matrix,
)
from .optimizers import (
    AmpSpec,
    Trajectory,
    amp,
    extend_to_sphere,
    gradient_ascent,
    langevin,
    lipschitz_probe,
    state_evolution,
    subag_ascent,
)
from .ogp import (
    check_chi_properties,
    constrained_grand_max,
    estimate_chi,
    overlap_concentration,
    run_branching_experiment,
)
from .ultrametric import (
    DatedRootedTree,
    Embedding,
    branching_depth,
    embed_energy_greedy,
    embed_orthogonal,
    restrict,
    tree_metric,
    validate_embedding,
)

__version__ = "0.1.0"


def __getattr__(name):
    """The re-exports of spinlab.parisi, imported on first access (PEP 562)."""
    if name in {
        "PiecewiseZeta",
        "alg_is_numeric",
        "alg_sp",
        "b_profile",
        "cascade_value",
        "gaussian_quadratic_logmoment",
        "increasify_is",
        "increasify_sp",
        "interpolation_bound_sp",
        "lambda_recursion",
        "opt_sp_numeric",
        "parisi_is",
        "parisi_sp",
        "shift_identity_check",
        "solve_parisi_pde",
        "theta",
    }:
        from . import parisi

        return getattr(parisi, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
