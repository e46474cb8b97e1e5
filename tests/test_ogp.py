
import math
from dataclasses import replace

import numpy as np
import pytest

from spinlab import hamiltonian, ogp, rng
from spinlab.ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    sample_ensemble,
    target_overlap_matrix,
)
from spinlab.errors import ArgumentError, ResourceError
from spinlab.hamiltonian import sample_hamiltonian
from spinlab.mixture import pure
from spinlab.ogp import (
    ChiEstimate,
    _pair_ensemble,
    check_chi_properties,
    constrained_grand_max,
    estimate_chi,
    overlap_concentration,
    run_branching_experiment,
    wilson_interval,
)
from spinlab.optimizers import gradient_ascent
from spinlab.points import sphere_point

from conftest import coefficients

M2 = pure(2)


def const_alg(value):
    return lambda h, seed: np.full(h.n, value)


def linear_alg(h, seed):
    return 0.8 * coefficients(h)[: h.n]


def ga_alg(h, seed):
    x0 = sphere_point(rng.stream(seed, "ga-x0").standard_normal(h.n)) * 0.5
    return gradient_ascent(h, x0, steps=10, lr=0.05).final


def test_estimate_chi_constant():
    est = estimate_chi(const_alg(0.5), M2, 16, (0.0, 0.5, 1.0), reps=10, seed=0)
    assert np.allclose(est.chi_hat, 0.25)
    assert np.allclose(est.se, 0.0)


def test_estimate_chi_p1_identical_inputs():
    est = estimate_chi(ga_alg, M2, 24, (0.0, 1.0, 0.5), reps=10, seed=1)
    # chi(1) is the mean squared output norm; recompute directly
    idx = est.p_grid.index(1.0)
    assert 0.0 <= est.chi_hat[idx] <= 1.0 + 1e-9


def test_pair_overlaps_run_the_algorithm_once_at_p1():
    """At p = 1 both mixes are bit-identical to H0, so the algorithm runs once
    per rep there (twice at every other p), and R(x, x) is recorded.  A p = 1
    call is one whose tensor is its rep's H0."""
    calls = []

    def counted(h, seed):
        calls.append(h.tensors[2])
        return ga_alg(h, seed)

    est = estimate_chi(counted, M2, 16, (0.0, 0.5, 1.0), reps=10, seed=1)
    assert len(calls) == 10 * (2 + 2 + 1)
    h0s = [sample_hamiltonian(M2, 16, rng.derive_seed(1, "chi", r, 0)).tensors[2] for r in range(10)]
    assert sum(any(np.array_equal(t, h0) for h0 in h0s) for t in calls) == 10
    overlap_concentration(counted, M2, 16, 1.0, reps=30, lam=0.2, seed=1)
    assert len(calls) == 50 + 30
    for r in range(3):
        pair = replace(_pair_ensemble(M2, 16, 1, "chi", r), ladder=CorrelationLadder((0.0, 1.0, 1.0)))
        h1, h2 = (pair.leaf_hamiltonian(u) for u in pair.leaves())
        assert np.array_equal(h1.tensors[2].view(np.uint64), h2.tensors[2].view(np.uint64))
        x = np.asarray(ga_alg(h1, rng.derive_seed(1, "chi-run", r)))
        assert np.array_equal(x, ga_alg(h2, rng.derive_seed(1, "chi-run", r)))


def _record_leaf_builds(monkeypatch) -> list:
    """The node of every `leaf_hamiltonian` call, in call order."""
    built = []
    leaf_hamiltonian = ogp.CorrelatedEnsemble.leaf_hamiltonian

    def counted(self, v):
        built.append(v)
        return leaf_hamiltonian(self, v)

    monkeypatch.setattr(ogp.CorrelatedEnsemble, "leaf_hamiltonian", counted)
    return built


def test_pair_overlaps_build_one_leaf_at_p1(monkeypatch):
    """At p = 1 the second leaf is not built: 2 + 2 + 1 leaves per rep."""
    built = _record_leaf_builds(monkeypatch)
    estimate_chi(const_alg(0.5), M2, 16, (0.0, 0.5, 1.0), reps=10, seed=1)
    assert len(built) == 10 * (2 + 2 + 1)


def test_estimate_chi_linear_slope():
    est = estimate_chi(linear_alg, M2, 48, (0.0, 0.25, 0.5, 0.75, 1.0), reps=40, seed=2)
    chi1 = est.at(1.0)
    for p, v, s in zip(est.p_grid, est.chi_hat, est.se):
        assert abs(v - p * chi1) <= 3 * (s + p * est.se[-1]) + 1e-12


def test_estimate_chi_preconditions(monkeypatch):
    with pytest.raises(ArgumentError):
        estimate_chi(const_alg(0.1), M2, 8, (0.0, 1.0), reps=5, seed=0)
    # a correlation outside [0, 1] fails the pair ladder before any draw
    monkeypatch.setattr(ogp, "sample_hamiltonians", None)
    with pytest.raises(ArgumentError, match="nondecreasing"):
        estimate_chi(const_alg(0.1), M2, 8, (0.0, 1.5, 1.0), reps=10, seed=0)


def test_check_chi_properties():
    est = estimate_chi(linear_alg, M2, 48, (0.0, 0.5, 1.0), reps=40, seed=3)
    rep = check_chi_properties(est)
    assert rep.ok and rep.classification == "increasing"
    est_c = estimate_chi(const_alg(0.5), M2, 16, (0.0, 0.5, 1.0), reps=10, seed=0)
    assert check_chi_properties(est_c).classification == "constant"
    dip = ChiEstimate((0.0, 0.5, 1.0), np.array([0.1, 0.02, 0.64]), np.array([0.001, 0.001, 0.001]))
    assert any("monotonicity" in f for f in check_chi_properties(dip).flags)
    with pytest.raises(ArgumentError):
        check_chi_properties(
            ChiEstimate((0.0, 1.0), np.array([0.1, 0.2]), np.array([0.0, 0.0]))
        )


def test_chi_swap_symmetry():
    # deterministic alg + shared seeds: swapping the correlated pair roles is exact
    est1 = estimate_chi(linear_alg, M2, 32, (0.5,), reps=10, seed=4)

    def swapped(h, seed):
        return linear_alg(h, seed)

    est2 = estimate_chi(swapped, M2, 32, (0.5,), reps=10, seed=4)
    assert np.array_equal(est1.chi_hat, est2.chi_hat)


def test_overlap_concentration_constant():
    rep = overlap_concentration(const_alg(0.5), M2, 16, p=0.5, reps=30, lam=0.1, seed=0)
    assert rep.sd == 0.0
    assert rep.fraction == 0.0
    rep = overlap_concentration(ga_alg, M2, 24, p=0.5, reps=30, lam=2.0, seed=0)
    assert rep.fraction == 0.0  # overlaps bounded by 1 in magnitude
    with pytest.raises(ArgumentError):
        overlap_concentration(const_alg(0.1), M2, 8, 0.5, reps=10, lam=0.1, seed=0)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 30)
    assert lo == 0.0 and hi < 0.2
    lo, hi = wilson_interval(30, 30)
    assert hi == 1.0 and lo > 0.8


def test_branching_identical_leaves():
    shape = TreeShape((1, 2))
    pl = CorrelationLadder((0.0, 1.0, 1.0))
    ql = OverlapLadder((0.0, 0.5, 1.0))
    reports = run_branching_experiment(
        const_alg(0.6), M2, 24, shape, pl, ql, eta=0.2, reps=1, seed=0
    )
    rep = reports[0]
    # underline view has a single leaf Hamiltonian (D_ul = 1, k_1 = 1)
    assert rep.overlap_matrix.shape == (1, 1)
    assert rep.overlap_matrix[0, 0] == pytest.approx(0.36)


def test_branching_independent_constant():
    shape = TreeShape((2,))
    pl = CorrelationLadder((0.0, 1.0))
    ql = OverlapLadder((0.0, 1.0))
    reports = run_branching_experiment(
        const_alg(0.6), M2, 24, shape, pl, ql, eta=0.5, reps=1, seed=0, chi1=0.36
    )
    rep = reports[0]
    assert rep.overlap_matrix[0, 1] == pytest.approx(0.36)
    assert rep.target_matrix[0, 1] == 0.0
    assert rep.max_deviation == pytest.approx(0.36)


def test_branching_self_consistency_with_concentration():
    # align the ladder to the algorithm's measured correlation function, then
    # check observed overlaps against the target within 3 concentration sds
    shape = TreeShape((2, 2))
    est = estimate_chi(ga_alg, M2, 64, (0.0, 0.5, 1.0), reps=30, seed=21)
    chi0, chi_mid, chi1 = est.chi_hat
    pl = CorrelationLadder((0.0, 0.5, 1.0))
    ql = OverlapLadder((float(chi0), float(chi_mid), 1.0))
    sd = max(
        overlap_concentration(ga_alg, M2, 64, p=p, reps=30, lam=0.2, seed=22).sd
        for p in (0.0, 0.5)
    )
    reports = run_branching_experiment(
        ga_alg, M2, 64, shape, pl, ql, eta=0.3, reps=3, seed=5, chi1=float(chi1)
    )
    for rep in reports:
        r = rep.overlap_matrix
        q = rep.target_matrix
        off = ~np.eye(r.shape[0], dtype=bool)
        assert np.max(np.abs((r - q)[off])) <= 3 * sd


def test_branching_refuses_overlap_matrices_over_the_budget_before_it_samples(monkeypatch):
    """p2 at n = 2 on the shape (100,) holds 101 node tensors and a leaf of 4
    entries, within a budget of 10^4; its two 100 x 100 matrices and their
    100 x 100 x 1 lca table hold 3 * 10^4, so the run is refused before a
    tensor is drawn."""

    def refuse(*args, **kwargs):
        raise AssertionError("no tensor may be drawn once the budget is exceeded")

    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", 10**4)
    monkeypatch.setattr(hamiltonian, "sample_tensors", refuse)
    shape, pl, ql = TreeShape((100,)), CorrelationLadder((0.0, 1.0)), OverlapLadder((0.0, 1.0))
    with pytest.raises(ResourceError, match="^the overlap matrices of 100 underline nodes hold 30000 tensor entries"):
        run_branching_experiment(const_alg(0.6), M2, 2, shape, pl, ql, None, reps=1, seed=0)


def test_branching_refuses_extension_overlap_matrices_over_the_budget_before_it_samples(monkeypatch):
    """With p_1 = 1 the shape (1, 6000) has one underline node, but its
    extension forms two 6000 x 6000 matrices over the leaves and their
    6000 x 6000 x 2 lca table, 1.44 * 10^8 entries over the real budget of
    2^27, so `extend` is refused before the ensemble samples; without it
    the run gets as far as sampling."""

    def refuse(*args, **kwargs):
        raise AssertionError("the ensemble sampled")

    monkeypatch.setattr(ogp, "sample_ensemble", refuse)
    shape, pl, ql = TreeShape((1, 6000)), CorrelationLadder((0.0, 1.0, 1.0)), OverlapLadder((0.0, 0.5, 1.0))
    with pytest.raises(ResourceError, match="^the overlap matrices of 6000 leaves hold 144000000 tensor entries"):
        run_branching_experiment(const_alg(0.6), M2, 2, shape, pl, ql, None, reps=1, seed=0, extend=True)
    with pytest.raises(AssertionError, match="the ensemble sampled"):
        run_branching_experiment(const_alg(0.6), M2, 2, shape, pl, ql, None, reps=1, seed=0)


def test_branching_with_extension():
    shape = TreeShape((2, 2))
    pl = CorrelationLadder((0.0, 1.0, 1.0))
    ql = OverlapLadder((0.0, 0.6, 1.0))

    def scaled_ga(h, seed):
        # outputs inside the ball so the extension has room to grow
        return 0.75 * ga_alg(h, seed)

    reports = run_branching_experiment(
        scaled_ga, M2, 96, shape, pl, ql, eta=0.35, reps=1, seed=9, extend=True
    )
    ext = reports[0].extension
    assert ext is not None
    # extension realizes the full-depth targets up to eta
    assert ext["max_deviation"] <= 0.35


def test_constrained_grand_max_k1():
    ens = sample_ensemble(M2, 32, TreeShape((1,)), CorrelationLadder((0.0, 1.0)), seed=3)
    rep = constrained_grand_max(
        ens, np.array([[1.0]]), np.zeros(32), eta=0.2, restarts=3, seed=1, steps=80
    )
    assert rep.feasible
    h = ens.leaf_hamiltonian((1,))
    best_ga = max(
        gradient_ascent(
            h, sphere_point(rng.stream(1, "grand-max", r).standard_normal(32)), 80, 0.05
        ).final_energy
        / 32
        for r in range(3)
    )
    assert rep.best_energy >= best_ga - 0.05


def test_constrained_grand_max_refuses_leaves_over_the_budget(monkeypatch):
    """The K leaves are held beside the nodes: 6 nodes and 4 leaves of p2 at
    n = 16 take 2560 entries, so a budget that holds the nodes but not the
    leaves refuses before any leaf is built."""
    shape = TreeShape((2, 2))
    ens = sample_ensemble(M2, 16, shape, CorrelationLadder((0.0, 0.5, 1.0)), seed=0)
    q = target_overlap_matrix(shape, OverlapLadder((0.0, 0.5, 1.0)))
    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", 2559)
    monkeypatch.setattr(type(ens), "leaf_hamiltonian", None)
    with pytest.raises(ResourceError, match="^6 nodes and 4 leaves hold 2560 tensor entries, over the budget of 2559$"):
        constrained_grand_max(ens, q, np.zeros(16), eta=0.2, restarts=1, seed=0)


def test_constrained_grand_max_holds_one_hamiltonian_per_distinct_leaf(monkeypatch):
    """With the pladder (0, 1, 1) both leaves of the shape (1, 2) are the one
    depth-1 node's Hamiltonian: 3 nodes and 1 leaf of p2 at n = 16 hold 1024
    entries, within a budget of 1100 that 3 nodes and 2 leaves (1280) are
    over, and the leaf is built once."""
    shape = TreeShape((1, 2))
    ens = sample_ensemble(M2, 16, shape, CorrelationLadder((0.0, 1.0, 1.0)), seed=0)
    q = target_overlap_matrix(shape, OverlapLadder((0.0, 0.5, 1.0)))
    built = _record_leaf_builds(monkeypatch)
    monkeypatch.setattr(hamiltonian, "DEFAULT_MAX_TENSOR_ENTRIES", 1100)
    rep = constrained_grand_max(ens, q, np.zeros(16), eta=0.2, restarts=1, seed=0)
    assert rep.feasible
    assert built == [(1,)]


def test_constrained_grand_max_pulls_the_points_into_the_anchor_band():
    """The random start has overlap about 0 with the anchor, far outside the
    band |R(sigma, m) - q_0| <= eta around q_0 = |m|_N^2 = 0.5; the frame
    puts the point on R(sigma, m) = q_0 exactly."""
    n = 32
    ens = sample_ensemble(M2, n, TreeShape((1,)), CorrelationLadder((0.0, 1.0)), seed=5)
    anchor = sphere_point(rng.stream(6, "anchor").standard_normal(n)) * math.sqrt(0.5)
    start = sphere_point(rng.stream(1, "grand-max", 0).standard_normal(n))
    assert abs(start @ anchor / n - 0.5) > 0.3
    rep = constrained_grand_max(ens, np.array([[1.0]]), anchor, eta=0.05, restarts=1, seed=1)
    assert rep.feasible


@pytest.mark.parametrize("eta", (0.05, 1e-9))
def test_constrained_grand_max_meets_an_anchored_tree_target_exactly(eta):
    """A (2, 2) tree with q-ladder (0.2, 0.6, 1) and an anchor at q_0 = 0.2:
    each frame point meets every target overlap and the anchor band to
    rounding, so the membership verdict passes at eta = 1e-9 as at 0.05,
    with one value at both."""
    n = 32
    shape = TreeShape((2, 2))
    ens = sample_ensemble(M2, n, shape, CorrelationLadder((0.0, 0.5, 1.0)), seed=0)
    q = target_overlap_matrix(shape, OverlapLadder((0.2, 0.6, 1.0)))
    anchor = sphere_point(rng.stream(8, "anchor").standard_normal(n)) * math.sqrt(0.2)
    rep = constrained_grand_max(ens, q, anchor, eta=eta, restarts=4, seed=1)
    assert rep.feasible
    assert rep.best_energy == pytest.approx(4.8871, abs=1e-4)


def test_constrained_grand_max_loose_eta_equals_leaf_maxima():
    shape = TreeShape((2,))
    ens = sample_ensemble(M2, 32, shape, CorrelationLadder((0.0, 1.0)), seed=4)
    q = target_overlap_matrix(shape, OverlapLadder((0.0, 1.0)))
    rep = constrained_grand_max(ens, q, np.zeros(32), eta=2.0, restarts=4, seed=2, steps=150)
    assert rep.feasible
    per_leaf = 0.0
    for u in shape.leaves():
        h = ens.leaf_hamiltonian(u)
        per_leaf += max(
            gradient_ascent(
                h, sphere_point(rng.stream(3, str(u), r).standard_normal(32)), 150, 0.05
            ).final_energy
            / 32
            for r in range(4)
        )
    assert rep.best_energy >= per_leaf * 0.99 - 0.02
