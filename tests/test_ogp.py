
import numpy as np
import pytest

from spinlab import rng
from spinlab.ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    sample_ensemble,
    target_overlap_matrix,
)
from spinlab.errors import ArgumentError
from spinlab.mixture import pure
from spinlab.ogp import (
    ChiEstimate,
    check_chi_properties,
    constrained_grand_max,
    estimate_chi,
    overlap_concentration,
    run_branching_experiment,
    wilson_interval,
)
from spinlab.optimizers import gradient_ascent
from spinlab.points import sphere_point

M2 = pure(2)


def const_alg(value):
    return lambda h, seed: np.full(h.n, value)


def linear_alg(h, seed):
    return 0.8 * h.coefficients[: h.n]


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


def test_estimate_chi_linear_slope():
    est = estimate_chi(linear_alg, M2, 48, (0.0, 0.25, 0.5, 0.75, 1.0), reps=40, seed=2)
    chi1 = est.at(1.0)
    for p, v, s in zip(est.p_grid, est.chi_hat, est.se):
        assert abs(v - p * chi1) <= 3 * (s + p * est.se[-1]) + 1e-12


def test_estimate_chi_preconditions():
    with pytest.raises(ArgumentError):
        estimate_chi(const_alg(0.1), M2, 8, (0.0, 1.0), reps=5, seed=0)


def test_check_chi_properties():
    est = estimate_chi(linear_alg, M2, 48, (0.0, 0.5, 1.0), reps=40, seed=3)
    rep = check_chi_properties(est)
    assert rep.ok and rep.classification == "increasing"
    est_c = estimate_chi(const_alg(0.5), M2, 16, (0.0, 0.5, 1.0), reps=10, seed=0)
    assert check_chi_properties(est_c).classification == "constant"
    dip = ChiEstimate(
        (0.0, 0.5, 1.0), np.array([0.1, 0.02, 0.64]), np.array([0.001, 0.001, 0.001]), 30, "", 8
    )
    assert any("monotonicity" in f for f in check_chi_properties(dip).flags)
    with pytest.raises(ArgumentError):
        check_chi_properties(
            ChiEstimate((0.0, 1.0), np.array([0.1, 0.2]), np.array([0.0, 0.0]), 10, "", 8)
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
