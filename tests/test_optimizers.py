import math

import numpy as np
import pytest

from spinlab import hamiltonian, optimizers, rng, ultrametric
from spinlab.ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    sample_ensemble,
    target_overlap_matrix,
)
from spinlab.errors import ArgumentError
from spinlab.hamiltonian import (
    DEFAULT_DENSE_HESSIAN_CAP,
    derivatives,
    energy,
    gradient,
    hessian_apply,
    projected_top_eigvec,
    sample_hamiltonian,
    top_eigenpairs,
)
from spinlab.mixture import Mixture, pure, xi_eval
from spinlab.optimizers import (
    AmpSpec,
    amp,
    export_trajectory_csv,
    extend_to_sphere,
    gradient_ascent,
    langevin,
    lipschitz_probe,
    round_to_corners,
    state_evolution,
    subag_ascent,
    subag_step,
)
from spinlab.points import (
    norm_n_sq,
    orthogonal_unit,
    orthonormal_rows,
    overlap,
    project_ball,
    sign_toward,
    sphere_point,
)


def test_gradient_ascent_field_only():
    h = sample_hamiltonian(Mixture({2: 0.0}, h=1.0), 32, seed=0)
    traj = gradient_ascent(h, np.zeros(32), steps=60, lr=0.1)
    assert traj.final_energy / 32 == pytest.approx(1.0, abs=1e-6)


def test_gradient_ascent_zero_lr():
    h = sample_hamiltonian(pure(2), 16, seed=1)
    x0 = sphere_point(rng.stream(70).standard_normal(16)) * 0.5
    traj = gradient_ascent(h, x0, steps=5, lr=0.0)
    assert all(np.array_equal(x0, x) for x in traj.iterates)


def test_gradient_ascent_p2_benchmark():
    h = sample_hamiltonian(pure(2), 32, seed=4)
    g = h.tensors[2]
    bench = float(np.linalg.eigvalsh((g + g.T) / 2).max()) / math.sqrt(32)
    x0 = sphere_point(rng.stream(71).standard_normal(32))
    traj = gradient_ascent(h, x0, steps=300, lr=0.05)
    assert abs(traj.final_energy / 32 - bench) / bench <= 0.10


def test_gradient_ascent_domain_check():
    h = sample_hamiltonian(pure(2), 8, seed=0)
    with pytest.raises(ArgumentError):
        gradient_ascent(h, 2.0 * np.ones(8), 1, 0.1)


def test_trajectory_energy_recompute_and_csv(tmp_path):
    h = sample_hamiltonian(pure(2), 16, seed=2)
    x0 = sphere_point(rng.stream(72).standard_normal(16)) * 0.4
    traj = gradient_ascent(h, x0, steps=8, lr=0.05)
    for x, e in zip(traj.iterates, traj.energies):
        assert energy(h, x) == pytest.approx(e, abs=1e-9)
        assert norm_n_sq(x) <= 1.0 + 1e-9
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, path, anchor=x0)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "step,energy,norm2,overlap_anchor"
    assert len(lines) == 2 + len(traj.iterates)


def test_amp_zero_nonlinearity():
    spec = AmpSpec(fs=[lambda x0: 0.0 * x0, lambda x0, x1: 0.0 * x0], lipschitz=[0.0, 0.0], horizon=2)
    h = sample_hamiltonian(pure(2), 32, seed=1)
    traj = amp(h, spec, seed=0)
    assert all(np.allclose(x, 0.0) for x in traj.iterates[1:])


def test_amp_one_step_state_evolution():
    m2 = pure(2)
    spec = AmpSpec(fs=[lambda x0: x0], lipschitz=[1.0], horizon=1)
    q, xs = state_evolution(spec, m2)
    assert q[0, 0] == pytest.approx(xi_eval(m2, 1.0, 1), abs=1e-12)
    vals = []
    for s in range(8):
        h = sample_hamiltonian(m2, 128, seed=300 + s)
        vals.append(norm_n_sq(amp(h, spec, seed=s).iterates[1]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - q[0, 0]) <= 5 / math.sqrt(128) + 3 * se


def test_amp_onsager_empty_at_t0():
    # one-step output is independent of later nonlinearities (empty Onsager sum)
    m2 = pure(2)
    h = sample_hamiltonian(m2, 32, seed=5)
    spec1 = AmpSpec(fs=[lambda x0: x0, lambda x0, x1: 0.3 * x1], lipschitz=[1.0, 0.3], horizon=2)
    spec2 = AmpSpec(fs=[lambda x0: x0, lambda x0, x1: 0.15 * x1], lipschitz=[1.0, 0.15], horizon=2)
    t1 = amp(h, spec1, seed=0)
    t2 = amp(h, spec2, seed=0)
    assert np.array_equal(t1.iterates[1], t2.iterates[1])
    assert not np.array_equal(t1.iterates[2], t2.iterates[2])


def test_amp_rejects_non_lipschitz():
    with pytest.raises(ArgumentError):
        AmpSpec(fs=[lambda x0: 10.0 * x0], lipschitz=[1.0], horizon=1)


def test_amp_overlap_spread_shrinks_with_n():
    # empirical overlaps concentrate on the state-evolution prediction as N grows
    m2 = pure(2)
    spec = AmpSpec(fs=[lambda x0: x0], lipschitz=[1.0], horizon=1)
    q, _ = state_evolution(spec, m2)
    rms = []
    for n in (64, 128, 256):
        devs = []
        for s in range(20):
            h = sample_hamiltonian(m2, n, seed=500 + s)
            devs.append(norm_n_sq(amp(h, spec, seed=s).iterates[1]) - q[0, 0])
        rms.append(float(np.sqrt(np.mean(np.square(devs)))))
    assert rms[0] > rms[1] > rms[2]


def test_subag_norm_schedule_and_orthogonality():
    h = sample_hamiltonian(pure(2), 40, seed=3)
    traj = subag_ascent(h, 0.1, "top_eig", seed=1)
    for i, ns in enumerate(traj.norms_sq()):
        assert abs(ns - (i + 1) * 0.1) <= 1e-10
    for i in range(1, len(traj.iterates)):
        inc = traj.iterates[i] - traj.iterates[i - 1]
        assert abs(inc @ traj.iterates[i - 1]) <= 1e-10 * 40
    assert norm_n_sq(traj.final) == pytest.approx(1.0, abs=1e-12)


def test_subag_p2_benchmark():
    h = sample_hamiltonian(pure(2), 64, seed=2)
    g = h.tensors[2]
    bench = float(np.linalg.eigvalsh((g + g.T) / 2).max()) / math.sqrt(64)
    traj = subag_ascent(h, 0.05, "top_eig", seed=0)
    assert abs(traj.final_energy / 64 - bench) / bench <= 0.15


def test_subag_random_subspace_mode():
    h = sample_hamiltonian(pure(2), 40, seed=6)
    traj = subag_ascent(h, 0.1, "random_subspace", seed=2)
    assert norm_n_sq(traj.final) == pytest.approx(1.0, abs=1e-10)
    # reproducible
    traj2 = subag_ascent(h, 0.1, "random_subspace", seed=2)
    assert np.array_equal(traj.final, traj2.final)


# -- warm-started Lanczos (n above the dense-Hessian cap) versus cold solves ------

LANCZOS_N = DEFAULT_DENSE_HESSIAN_CAP + 8


def _solve_cold(monkeypatch, module):
    """Make `module` call projected_top_eigvec without its warm start."""

    def cold(h, x, orth=(), k=1, seed=0, start=None):
        return projected_top_eigvec(h, x, orth=orth, k=k, seed=seed)

    monkeypatch.setattr(module, "projected_top_eigvec", cold)


def _record_warm_solves(monkeypatch, module):
    """Pass `module`'s calls through unchanged; re-solve every warm-started
    one cold and keep the pair of top eigenvalues (warm, cold)."""
    pairs = []

    def recorded(h, x, orth=(), k=1, seed=0, start=None):
        vecs, vals = projected_top_eigvec(h, x, orth=orth, k=k, seed=seed, start=start)
        if start is not None:
            pairs.append((vals[0], projected_top_eigvec(h, x, orth=orth, k=k, seed=seed)[1][0]))
        return vecs, vals

    monkeypatch.setattr(module, "projected_top_eigvec", recorded)
    return pairs


def _count_matvecs(monkeypatch):
    calls = [0]
    apply = hamiltonian.hessian_apply

    def counted(h, x, w):
        calls[0] += 1
        return apply(h, x, w)

    monkeypatch.setattr(hamiltonian, "hessian_apply", counted)
    return calls


@pytest.mark.parametrize("field", [0.0, 0.3])
def test_subag_lanczos_warm_start_matches_cold(monkeypatch, field):
    h = sample_hamiltonian(Mixture({2: 1.0}, h=field), LANCZOS_N, seed=11)
    matvecs = _count_matvecs(monkeypatch)
    with monkeypatch.context() as mp:
        _solve_cold(mp, optimizers)
        cold = subag_ascent(h, 0.1, "top_eig", seed=4)
    cold_matvecs, matvecs[0] = matvecs[0], 0
    warm = subag_ascent(h, 0.1, "top_eig", seed=4)
    assert matvecs[0] < 0.6 * cold_matvecs
    pairs = _record_warm_solves(monkeypatch, optimizers)
    assert np.array_equal(subag_ascent(h, 0.1, "top_eig", seed=4).final, warm.final)
    assert len(pairs) == 9  # every step after the first at the origin
    for w, c in pairs:
        assert abs(w - c) <= 1e-12 * abs(c)
    for a, b in zip(warm.iterates, cold.iterates):
        assert np.max(np.abs(a - b)) <= 1e-10
    assert np.allclose(warm.energies, cold.energies, rtol=1e-12, atol=0)


def test_embedding_lanczos_warm_start_matches_cold(monkeypatch):
    h = sample_hamiltonian(pure(2), LANCZOS_N, seed=12)
    tree = ultrametric.star_tree(3)
    with monkeypatch.context() as mp:
        _solve_cold(mp, optimizers)
        cold, cold_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=5)
    pairs = _record_warm_solves(monkeypatch, optimizers)
    warm, warm_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=5)
    assert len(pairs) == 3 * 7  # each leaf chain: 8 steps, the first cold
    for w, c in pairs:
        assert abs(w - c) <= 1e-12 * abs(c)
    for v in tree.vertices():
        assert abs(warm_energies[v] - cold_energies[v]) <= 1e-12 * max(1.0, abs(cold_energies[v]))
    # pure p2 has <grad H(x), v> at rounding level, so a vector may reflect
    def gram(emb):
        vecs = np.stack([emb.vectors[v] for v in tree.vertices()])
        return vecs @ vecs.T

    assert np.max(np.abs(gram(warm) - gram(cold))) <= 1e-12 * np.max(np.abs(gram(cold)))


@pytest.mark.parametrize("mode, delta", [("top_eig", 0.125), ("random_subspace", 0.01)])
def test_subag_step_dense_and_lanczos_paths_agree(monkeypatch, mode, delta):
    h = sample_hamiltonian(Mixture({2: 1.0}, h=0.3), LANCZOS_N, seed=15)
    x = 0.5 * sphere_point(rng.stream(77, "step-point").standard_normal(LANCZOS_N))
    e_lanczos, v_lanczos = subag_step(h, x, mode, delta, 8)
    monkeypatch.setattr(optimizers, "DEFAULT_DENSE_HESSIAN_CAP", LANCZOS_N)
    e_dense, v_dense = subag_step(h, x, mode, delta, 8)
    assert e_dense == e_lanczos
    assert np.max(np.abs(v_dense - v_lanczos)) <= 1e-8


def test_dense_embedding_takes_one_order_two_call_per_step(monkeypatch):
    h = sample_hamiltonian(pure(4), 24, seed=16)
    orders = []
    plan = hamiltonian.derivatives

    def counted(h, x, order):
        orders.append(order)
        return plan(h, x, order)

    for module in (hamiltonian, optimizers):
        monkeypatch.setattr(module, "derivatives", counted)
    ultrametric.embed_energy_greedy(h, ultrametric.star_tree(2), 0.125, seed=8)
    assert [o for o in orders if o > 0] == [2] * 16  # two leaf chains of 8 steps


# -- step orientation does not depend on the eigensolver's sign ------------------


def _negate_eigenvectors(monkeypatch):
    """Negate every eigenvector the dense (eigh) and Lanczos (eigsh) solvers return."""
    eigh, eigsh = np.linalg.eigh, hamiltonian.eigsh

    def neg_eigh(a):
        vals, vecs = eigh(a)
        return vals, -vecs

    def neg_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals, -vecs

    monkeypatch.setattr(np.linalg, "eigh", neg_eigh)
    monkeypatch.setattr(hamiltonian, "eigsh", neg_eigsh)


@pytest.mark.parametrize("n, delta", [(16, 0.125), (LANCZOS_N, 0.25)])
def test_subag_does_not_depend_on_the_eigenvector_sign(monkeypatch, n, delta):
    # pure p2 without a field: <grad H, v> = 0 at the origin and ~1e-16 at step 2
    h = sample_hamiltonian(pure(2), n, seed=13)
    want = subag_ascent(h, delta, "top_eig", seed=6)
    _negate_eigenvectors(monkeypatch)
    got = subag_ascent(h, delta, "top_eig", seed=6)
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, want.iterates))
    assert got.energies == want.energies


def test_embedding_does_not_depend_on_the_eigenvector_sign(monkeypatch):
    h = sample_hamiltonian(pure(2), 96, seed=14)
    tree = ultrametric.star_tree(3)
    want, want_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=7)
    _negate_eigenvectors(monkeypatch)
    got, got_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=7)
    for v in tree.vertices():
        assert np.array_equal(got.vectors[v], want.vectors[v])
    assert got_energies == want_energies


def test_subag_rejects_non_integer_inverse_delta():
    h = sample_hamiltonian(pure(2), 40, seed=6)
    with pytest.raises(ArgumentError):
        subag_ascent(h, 0.3, "top_eig")


def test_langevin_zero_noise_equals_gradient_ascent():
    h = sample_hamiltonian(pure(2), 24, seed=5)
    beta, dt, horizon = 1.0, 0.01, 0.3
    tl = langevin(h, beta, horizon, dt, r=1.0, seed=3, noise_scale=0.0)
    tg = gradient_ascent(h, np.zeros(24), int(round(horizon / dt)), 0.5 * beta * dt)
    assert len(tl.iterates) == len(tg.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(tl.iterates, tg.iterates))


def test_langevin_noise_only_stays_in_ball():
    h = sample_hamiltonian(Mixture({2: 0.0}, h=0.0), 24, seed=5)
    traj = langevin(h, beta=0.0, horizon=1.0, dt=0.01, r=1.2, seed=3)
    assert max(traj.norms_sq()) <= 1.2**2 + 1e-9
    assert norm_n_sq(traj.final) <= 1.0 + 1e-9


def test_langevin_step_refinement():
    h = sample_hamiltonian(pure(2), 32, seed=8)
    e1 = langevin(h, beta=1.0, horizon=1.0, dt=0.01, seed=2).final_energy / 32
    e2 = langevin(h, beta=1.0, horizon=1.0, dt=0.005, seed=2).final_energy / 32
    assert abs(e1 - e2) <= 0.05 * max(1.0, abs(e1))


def test_langevin_preconditions():
    h = sample_hamiltonian(pure(2), 16, seed=0)
    with pytest.raises(ArgumentError):
        langevin(h, 1.0, 1.0, dt=0.1)
    with pytest.raises(ArgumentError):
        langevin(h, 1.0, 1.0, dt=0.01, r=0.5)


def test_extend_to_sphere_spherical_exact():
    m = pure(2)
    n = 128
    shape = TreeShape((2, 2))
    pl = CorrelationLadder((0.0, 1.0, 1.0))
    ql = OverlapLadder((0.0, 0.45, 1.0))
    ens = sample_ensemble(m, n, shape, pl, seed=7)
    gen = rng.stream(73)
    v1 = gen.standard_normal(n)
    v1 *= math.sqrt(0.4 * n) / np.linalg.norm(v1)
    v2 = gen.standard_normal(n)
    v2 -= (v2 @ v1) / (v1 @ v1) * v1
    v2 *= math.sqrt(0.35 * n) / np.linalg.norm(v2)
    rep = extend_to_sphere(ens, {(1,): v1, (2,): v2}, ql, eta=0.1, seed=0, mode="sphere")
    q = target_overlap_matrix(shape, ql)
    leaves = shape.leaves()
    for i, u in enumerate(leaves):
        for j, v in enumerate(leaves):
            assert overlap(rep.points[u], rep.points[v]) == pytest.approx(q[i, j], abs=1e-12)


def gradient_norm_probe(h, r, trials, seed, iters):
    """Lower estimate of sup_{|x|_N <= r} |grad H(x)|_N, the k = 1 operator
    norm, by random-restart alternating maximization: sigma follows the
    gradient, and x takes a projected step along Hess(x) sigma while that
    raises <grad H(x), sigma>."""
    sqrt_n = math.sqrt(h.n)
    best = 0.0
    for trial in range(trials):
        gen = rng.stream(seed, "opnorm", trial)
        x = r * sphere_point(gen.standard_normal(h.n))
        sigma = sphere_point(gen.standard_normal(h.n))
        step = 0.5 * r
        for _ in range(iters):
            grad = gradient(h, x)
            nrm = np.linalg.norm(grad)
            if nrm > 0:
                sigma = grad * (sqrt_n / nrm)
            gx = hessian_apply(h, x, sigma)
            nrm = np.linalg.norm(gx)
            if nrm > 0:
                cand = project_ball(x + step * sqrt_n * gx / nrm, r)
                if gradient(h, cand) @ sigma > grad @ sigma:
                    x = cand
                else:
                    step *= 0.5
        best = max(best, abs(gradient(h, x) @ sigma) / h.n)
    return best


def test_extend_single_point_drift_bound():
    m = pure(2)
    n = 96
    ens = sample_ensemble(m, n, TreeShape((1,)), CorrelationLadder((0.0, 1.0)), seed=9)
    gen = rng.stream(74)
    x = gen.standard_normal(n)
    x *= math.sqrt(0.25 * n) / np.linalg.norm(x)
    rep = extend_to_sphere(ens, {(1,): x}, OverlapLadder((0.0, 1.0)), eta=0.1, seed=0, mode="sphere")
    c1 = gradient_norm_probe(ens.leaf_hamiltonian((1,)), 1.0, trials=4, seed=0, iters=25)
    drift = abs(rep.energy_change[(1,)]) / n
    assert drift <= c1 * math.sqrt(1 - 0.25)


def test_ising_rounding_mean_consistency():
    m = pure(2)
    n = 256
    ens = sample_ensemble(m, n, TreeShape((2,)), CorrelationLadder((0.0, 1.0)), seed=11)
    gen = rng.stream(75)
    w1 = np.clip(gen.standard_normal(n) * 0.4, -1.0, 1.0)
    w2 = np.clip(gen.standard_normal(n) * 0.4, -1.0, 1.0)
    rep = extend_to_sphere(
        ens, {(1,): w1, (2,): w2}, OverlapLadder((0.0, 1.0)), eta=0.2, seed=5, mode="ising"
    )
    assert np.all(np.abs(rep.points[(1,)]) == 1.0)
    pre = rep.pre_rounding
    r_pre = overlap(pre[(1,)], pre[(2,)])
    draws = np.array([overlap(*round_to_corners(pre, s).values()) for s in range(50)])
    se = draws.std(ddof=1) / math.sqrt(50)
    assert abs(draws.mean() - r_pre) <= 3 * se


def test_lipschitz_probe_constant_and_isometric():
    m = pure(2)

    def const_alg(h, seed):
        return np.full(h.n, 0.3)

    mx, mean, _ = lipschitz_probe(const_alg, m, 16, eps=1e-2, reps=5, seed=0)
    assert mx == 0.0

    def coefficients_alg(h, seed):
        return h.coefficients

    mx, mean, _ = lipschitz_probe(coefficients_alg, m, 16, eps=1e-2, reps=5, seed=0)
    assert mx == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_probe_gradient_ascent_stable():
    m = pure(2)

    def ga(h, seed):
        x0 = sphere_point(rng.stream(seed, "ga-x0").standard_normal(h.n)) * 0.5
        return gradient_ascent(h, x0, 10, 0.05).final

    r1, _, _ = lipschitz_probe(ga, m, 32, eps=1e-3, reps=6, seed=1)
    r2, _, _ = lipschitz_probe(ga, m, 32, eps=1e-2, reps=6, seed=1)
    assert np.isfinite(r1) and np.isfinite(r2)
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def oracle_run_iterative(h, fs, x_init, k_order=1):
    """Iterates of the generic k-th order iteration x^{t+1} = f_t(xs, derivs):
    derivs[s]["grad"] is the gradient at x^s and, for k_order = 2,
    derivs[s]["hessian"] the dense Hessian.  gradient_ascent and subag_ascent
    must reproduce it bit for bit."""

    def at(x):
        return dict(zip(("grad", "hessian"), derivatives(h, x, k_order)[1:]))

    xs = [np.asarray(x, dtype=float) for x in x_init]
    derivs = [at(x) for x in xs]
    for f in fs:
        xs.append(np.asarray(f(list(xs), list(derivs)), dtype=float))
        derivs.append(at(xs[-1]))
    return xs


def test_opt_form_conformance_gradient_ascent():
    h = sample_hamiltonian(pure(2), 24, seed=9)
    x0 = sphere_point(rng.stream(76).standard_normal(24)) * 0.5
    lr = 0.07
    direct = gradient_ascent(h, x0, steps=6, lr=lr)

    def f(xs, derivs):
        return project_ball(xs[-1] + lr * derivs[-1]["grad"], 1.0)

    generic = oracle_run_iterative(h, [f] * 6, [x0], k_order=1)
    assert all(np.array_equal(a, b) for a, b in zip(direct.iterates, generic))


def test_opt_form_conformance_subag():
    h = sample_hamiltonian(pure(2), 24, seed=10)
    delta, seed = 0.25, 3
    direct = subag_ascent(h, delta, "top_eig", seed=seed)

    scale = math.sqrt(delta * 24)

    def f(xs, derivs):
        x = xs[-1]
        vecs, _vals = top_eigenpairs(derivs[-1]["hessian"], orthonormal_rows([x], 24))
        return x + scale * sign_toward(orthogonal_unit(vecs[0], [x]), derivs[-1]["grad"])

    generic = oracle_run_iterative(h, [f] * 4, [np.zeros(24)], k_order=2)
    assert all(np.array_equal(a, b) for a, b in zip(direct.iterates, generic[1:]))
