"""spinlab: a numerical laboratory for mixed even p-spin glass Hamiltonians,
algorithmic thresholds, and ultrametric overlap experiments."""

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
    chi_align,
    constrained_membership,
    grand_energy,
    kappa,
    lca_depth,
    m_matrix,
    m_of_q,
    sample_ensemble,
    target_overlap_matrix,
)
from .parisi import (
    PiecewiseZeta,
    alg_is_numeric,
    alg_sp,
    b_profile,
    cascade_value,
    gaussian_quadratic_logmoment,
    increasify_is,
    increasify_sp,
    interpolation_bound_sp,
    lambda_recursion,
    opt_sp_numeric,
    parisi_is,
    parisi_sp,
    shift_identity_check,
    solve_parisi_pde,
    theta,
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
