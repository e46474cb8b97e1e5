import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

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
    Hamiltonian,
    derivatives,
    energy,
    gradient,
    hessian_apply,
    projected_top_eigvec,
    sample_hamiltonian,
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

from conftest import coefficients


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
    export_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "step,energy,norm2"
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


# -- the p = 2 frame walk versus the per-step walk, below and above the caps --

LANCZOS_N = DEFAULT_DENSE_HESSIAN_CAP + 8


def oracle_per_step_walk(h, x, target_sq, delta, mode, labels, others=(), frame=None):
    """The Hessian walk before it took a frame: every step forms the Hessian
    with one order-2 call and solves it from the step's own seeded start,
    by Lanczos above DENSE_EIGH_CAP.  `frame` is ignored, so it stands in for
    `_hessian_walk` in both of its callers."""
    points, energies = [x], []
    k = 1 if mode == "top_eig" else max(math.floor(delta * h.n), 1)
    while (norm_sq := norm_n_sq(x)) < target_sq - 1e-12:
        rest = target_sq - norm_sq
        step_seed = rng.derive_seed(*labels, len(energies))
        orth = [x, *others]
        e, grad, hess = derivatives(h, x, 2)
        vecs, _vals = projected_top_eigvec(hess, orth, k=k, seed=step_seed)
        if mode == "top_eig":
            v = vecs[0]
        else:
            coeffs = rng.stream(step_seed, "subag-dir").standard_normal(k)
            v = coeffs @ np.array([sign_toward(u, grad) for u in vecs])
        v = sign_toward(orthogonal_unit(v, orth), grad)
        energies.append(e)
        gain = delta if rest > delta - 1e-12 else rest
        x = x + math.sqrt(gain * h.n) * v
        points.append(x)
    energies.append(energy(h, x))
    return points, energies


def _walk_per_step(monkeypatch):
    for module in (optimizers, ultrametric):
        monkeypatch.setattr(module, "_hessian_walk", oracle_per_step_walk)


@pytest.mark.parametrize(
    "mode, field, n",
    [("top_eig", 0.0, 64), ("top_eig", 0.0, LANCZOS_N), ("top_eig", 0.3, LANCZOS_N),
     ("random_subspace", 0.0, 96), ("random_subspace", 0.0, 256), ("random_subspace", 0.0, LANCZOS_N)],
)
def test_subag_frame_walk_matches_the_per_step_walk(monkeypatch, mode, field, n):
    """At every n a p2 walk solves its Hessian once, for k + 1 eigenpairs,
    and then takes one order-1 call and an m x m solve per step; it follows
    the per-step walk to rounding, below the dense-Hessian cap and above it."""
    h = sample_hamiltonian(Mixture({2: 1.0}, h=field), n, seed=11)
    with monkeypatch.context() as mp:
        _walk_per_step(mp)
        want = subag_ascent(h, 0.1, mode, seed=4)
    orders = _record_orders(monkeypatch)
    got = subag_ascent(h, 0.1, mode, seed=4)
    assert orders == [2] + [1] * 10 + [0]  # the frame, ten steps, the last energy
    for a, b in zip(got.iterates, want.iterates, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-10
    assert np.allclose(got.energies, want.energies, rtol=1e-12, atol=0)


TREE_ABOVE_ZERO = {"vertices": [{"id": "r", "parent": None, "height": 0.25},
                                {"id": "m", "parent": "r", "height": 0.75},
                                {"id": "a", "parent": "m", "height": 1.0},
                                {"id": "b", "parent": "m", "height": 1.0},
                                {"id": "c", "parent": "r", "height": 1.0}]}


@pytest.mark.parametrize("n", [96, LANCZOS_N])
@pytest.mark.parametrize("tree", [ultrametric.star_tree(3), ultrametric.tree_from_json(TREE_ABOVE_ZERO)],
                         ids=["star3", "root-above-zero"])
def test_embedding_frame_walk_matches_the_per_step_walk(monkeypatch, tree, n):
    """One frame serves every edge of the tree, at every n.  With the root
    above height 0 the last walk's span holds all five vertices, so the
    frame needs six eigenpairs; five would leave its steps no direction."""
    h = sample_hamiltonian(pure(2), n, seed=12)
    with monkeypatch.context() as mp:
        _walk_per_step(mp)
        want, want_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=5)
    frames = []
    monkeypatch.setattr(ultrametric, "hessian_frame", lambda h, m: frames.append(m) or optimizers.hessian_frame(h, m))
    got, got_energies, _ = ultrametric.embed_energy_greedy(h, tree, 0.125, seed=5)
    assert frames == [len(tree.vertices()) + (tree.range[0] > 0)]
    for v in tree.vertices():
        assert abs(got_energies[v] - want_energies[v]) <= 1e-12 * max(1.0, abs(want_energies[v]))
    # pure p2 has <grad H(x), v> at rounding level, so a vector may reflect
    def gram(emb):
        vecs = np.stack([emb.vectors[v] for v in tree.vertices()])
        return vecs @ vecs.T

    assert np.max(np.abs(gram(got) - gram(want))) <= 1e-12 * np.max(np.abs(gram(want)))


_THREAD_PROBE = """
import hashlib
import numpy as np
from spinlab import ensembles, hamiltonian, mixture, optimizers, rng, ultrametric
digest = hashlib.sha256()
for n in {ns}:
    h = hamiltonian.sample_hamiltonian(mixture.pure(2), n, 3)
    for mode in ("top_eig", "random_subspace"):
        traj = optimizers.subag_ascent(h, 0.125, mode, seed=4)
        digest.update(np.stack(traj.iterates).tobytes() + np.asarray(traj.energies).tobytes())
    emb, energies, _ = ultrametric.embed_energy_greedy(h, ultrametric.star_tree({star}), 0.125, seed=5)
    for v in sorted(energies):
        digest.update(emb.vectors[v].tobytes() + np.float64(energies[v]).tobytes())
for n in {ising_ns}:  # criterion 14's Ising walk
    ens = ensembles.sample_ensemble(mixture.pure(2), n, ensembles.TreeShape((2,)),
                                    ensembles.CorrelationLadder((0.0, 1.0)), seed=11)
    gi = rng.stream(14, "acc-ising")
    w1 = np.clip(gi.standard_normal(n) * 0.4, -1.0, 1.0)
    w2 = np.clip(gi.standard_normal(n) * 0.4, -1.0, 1.0)
    rep = optimizers.extend_to_sphere(ens, {{(1,): w1, (2,): w2}}, ensembles.OverlapLadder((0.0, 1.0)),
                                      eta=0.2, seed=5, mode="ising")
    for u in sorted(rep.pre_rounding):
        digest.update(rep.pre_rounding[u].tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("ns, star, ising_ns", [((LANCZOS_N,), 2, ()), ((256, 512), 3, (256,))],
                         ids=["above-the-cap", "below-the-cap"])
def test_p2_walks_are_the_same_bits_at_one_and_two_blas_threads(ns, star, ising_ns):
    """Subag (both modes) and a star embedding at each n in `ns`, and
    criterion 14's Ising walk at each n in `ising_ns`, in a fresh process
    at OPENBLAS_NUM_THREADS = 1 and 2, give equal digests: the frames and
    the Ising steps solve by gemv Lanczos above DENSE_EIGH_CAP, and a frame
    step's m x m problem stays small.  Below the dense-Hessian cap a dense
    eigh per step changed bits with the thread count from n = 145."""
    src = os.path.dirname(os.path.dirname(optimizers.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = _THREAD_PROBE.format(ns=ns, star=star, ising_ns=ising_ns)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _record_orders(monkeypatch):
    orders = []
    plan = hamiltonian.derivatives

    def counted(h, x, order):
        orders.append(order)
        return plan(h, x, order)

    for module in (hamiltonian, optimizers):
        monkeypatch.setattr(module, "derivatives", counted)
    return orders


@pytest.mark.parametrize("mode, delta", [("top_eig", 0.125), ("random_subspace", 0.01)])
def test_subag_step_dense_and_lanczos_paths_agree(monkeypatch, mode, delta):
    """Both paths take one order-2 call, and no order-1 call, per step."""
    h = sample_hamiltonian(Mixture({2: 1.0}, h=0.3), LANCZOS_N, seed=15)
    x = 0.5 * sphere_point(rng.stream(77, "step-point").standard_normal(LANCZOS_N))
    orders = _record_orders(monkeypatch)
    e_lanczos, v_lanczos = subag_step(h, x, mode, delta, 8)
    assert orders == [2]
    monkeypatch.setattr(hamiltonian, "DENSE_EIGH_CAP", LANCZOS_N)
    e_dense, v_dense = subag_step(h, x, mode, delta, 8)
    assert orders == [2, 2]
    assert e_dense == e_lanczos
    assert np.max(np.abs(v_dense - v_lanczos)) <= 1e-8


def test_dense_embedding_takes_one_order_two_call_per_step(monkeypatch):
    h = sample_hamiltonian(pure(4), 24, seed=16)
    orders = _record_orders(monkeypatch)
    ultrametric.embed_energy_greedy(h, ultrametric.star_tree(2), 0.125, seed=8)
    assert [o for o in orders if o > 0] == [2] * 16  # two leaf chains of 8 steps


# -- step orientation does not depend on the eigensolver's sign ------------------


def _negate_eigenvectors(monkeypatch):
    """Negate every eigenvector the dense (eigh) and Lanczos (eigsh) solvers return."""
    eigh, eigsh = np.linalg.eigh, scipy.sparse.linalg.eigsh

    def neg_eigh(a):
        vals, vecs = eigh(a)
        return vals, -vecs

    def neg_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals, -vecs

    monkeypatch.setattr(np.linalg, "eigh", neg_eigh)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", neg_eigsh)


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


def oracle_langevin(h, beta, horizon, dt, r, seed):
    """The hand-written Langevin loop that `langevin` replaced by the shared
    projected-ascent loop and exit: (iterates, energies, boundary hits)."""
    x = np.zeros(h.n)
    gen = rng.stream(seed, "langevin")
    iterates, energies, hits = [x], [], 0
    for _ in range(int(round(horizon / dt))):
        e, grad = derivatives(h, x, 1)
        energies.append(e)
        proposal = x + 0.5 * beta * dt * grad
        proposal = proposal + math.sqrt(dt) * gen.standard_normal(h.n)
        x = project_ball(proposal, r)
        if x is not proposal and not np.array_equal(x, proposal):
            hits += 1
        iterates.append(x)
    energies.append(energy(h, x))
    final = project_ball(x, 1.0)
    if not np.array_equal(final, x):
        iterates.append(final)
        energies.append(energy(h, final))
    return iterates, energies, hits


@pytest.mark.parametrize(
    "beta, dt, r, seed",
    [(1.0, 0.01, 1.0, 3), (4.0, 0.005, 1.3, 0), (8.0, 0.01, 1.0, 1), (0.5, 0.002, 1.1, 7)],
)
def test_langevin_matches_its_hand_written_loop_bit_for_bit(beta, dt, r, seed):
    h = sample_hamiltonian(Mixture({2: 1.0, 4: 1.0}, h=0.3), 24, seed=5)
    traj = langevin(h, beta, 0.6, dt, r=r, seed=seed)
    iterates, energies, hits = oracle_langevin(h, beta, 0.6, dt, r, seed)
    assert len(traj.iterates) == len(iterates)
    assert all(np.array_equal(a, b) for a, b in zip(traj.iterates, iterates))
    assert np.array_equal(np.array(traj.energies).view(np.uint64), np.array(energies).view(np.uint64))
    assert traj.params["boundary_hits"] == hits


def test_langevin_oracle_cases_hit_the_boundary_and_end_outside_the_ball():
    """The cases above include a run with boundary hits and one whose last
    loop iterate lies outside B_N, so both rules are compared."""
    h = sample_hamiltonian(Mixture({2: 1.0, 4: 1.0}, h=0.3), 24, seed=5)
    iterates, _energies, hits = oracle_langevin(h, 4.0, 0.6, 0.005, 1.3, 0)
    assert hits > 0 and norm_n_sq(iterates[-2]) > 1.0
    assert oracle_langevin(h, 8.0, 0.6, 0.01, 1.0, 1)[2] > 0


def test_amp_and_state_evolution_evaluate_each_nonlinearity_once():
    """f_t is evaluated once per iterate: T calls on the n-vectors in amp
    and T on the state-evolution samples, where each later t re-evaluated it."""
    calls = []

    def counted(t, f):
        def g(*xs):
            calls.append((t, xs[0].size))
            return f(*xs)

        return g

    fs = [lambda x0: x0, lambda x0, x1: 0.5 * np.tanh(x1), lambda x0, x1, x2: 0.4 * x2 + 0.3 * np.tanh(x1)]
    spec = AmpSpec(fs=[counted(t, f) for t, f in enumerate(fs)], lipschitz=[1.0, 0.5, 0.7], horizon=3)
    calls.clear()  # the Lipschitz probe's calls
    h = sample_hamiltonian(pure(2), 16, seed=2)
    state_evolution(spec, h.mixture)
    assert calls == [(0, 100_000), (1, 100_000), (2, 100_000)]
    calls.clear()
    amp(h, spec, seed=0)
    assert [c for c in calls if c[1] == 16] == [(0, 16), (1, 16), (2, 16)]


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


# each ended in a ZeroDivisionError or ValueError, or silently ran no step
@pytest.mark.parametrize(
    "call, match",
    [
        (lambda h: subag_ascent(h, 0.0), "delta"),
        (lambda h: subag_ascent(h, -0.5), "delta"),
        (lambda h: subag_ascent(h, math.nan), "delta"),
        (lambda h: langevin(h, 1.0, 0.5, dt=0.0), "dt"),
        (lambda h: langevin(h, 1.0, 0.5, dt=-0.01), "dt"),
        (lambda h: langevin(h, 1.0, 0.5, dt=math.nan), "dt"),
        (lambda h: langevin(h, 1.0, -0.5, dt=0.01), "horizon"),
        (lambda h: langevin(h, 1.0, math.nan, dt=0.01), "horizon"),
        (lambda h: gradient_ascent(h, np.zeros(h.n), -1, 0.05), "steps"),
    ],
    ids=["subag-delta0", "subag-delta-neg", "subag-delta-nan", "langevin-dt0", "langevin-dt-neg",
         "langevin-dt-nan", "langevin-horizon-neg", "langevin-horizon-nan", "ga-steps-neg"],
)
def test_optimizers_refuse_degenerate_step_settings(call, match):
    h = sample_hamiltonian(pure(2), 16, seed=0)
    with pytest.raises(ArgumentError, match=match):
        call(h)


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


def _refusing_extension(monkeypatch, partial, qladder, mode):
    """extend_to_sphere on a (2, 2) tree with p = (0, 1, 1), so D_ul = 1,
    with every step helper refusing to run: the call must fail first."""
    n = 16
    ens = sample_ensemble(pure(2), n, TreeShape((2, 2)), CorrelationLadder((0.0, 1.0, 1.0)), seed=7)

    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(optimizers, "orthogonal_unit", no_step)
    monkeypatch.setattr(optimizers, "derivatives", no_step)
    x = 0.5 * sphere_point(rng.stream(76).standard_normal(n))
    return extend_to_sphere(ens, {u: x for u in partial}, qladder, eta=0.1, seed=0, mode=mode)


@pytest.mark.parametrize("mode", ["sphere", "ising"])
@pytest.mark.parametrize(
    "partial",
    [
        [(1, 1), (1, 2), (2, 1), (2, 2)],  # the full leaves, not the depth-1 nodes: a KeyError once
        [(1,), (2,), (3,)],  # an unknown node: refused only after the walk once
        [(1,)],  # a missing node: its subtree was silently dropped
    ],
)
def test_extend_to_sphere_refuses_points_not_at_the_underline_nodes_before_any_step(monkeypatch, partial, mode):
    with pytest.raises(ArgumentError, match=r"exactly the depth-1 nodes"):
        _refusing_extension(monkeypatch, partial, OverlapLadder((0.0, 0.45, 1.0)), mode)


@pytest.mark.parametrize("mode", ["sphere", "ising"])
@pytest.mark.parametrize("qs", [(0.0, 0.3, 0.5, 1.0), (0.0, 1.0)])
def test_extend_to_sphere_refuses_an_overlap_ladder_of_another_depth_before_any_step(monkeypatch, qs, mode):
    """A deeper ladder once left the leaves at |x|_N^2 = q_2 = 0.5, off the
    sphere; a shallower one ended in an IndexError."""
    with pytest.raises(ArgumentError, match="depths disagree"):
        _refusing_extension(monkeypatch, [(1,), (2,)], OverlapLadder(qs), mode)


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


def test_ising_walk_takes_hessian_directions_above_the_dense_cap(monkeypatch):
    """With DENSE_EIGH_CAP patched below n, every Ising step solves
    by Lanczos and the walk still takes Hessian directions: fewer fallbacks
    than steps, and pre-rounding points within 1e-8 of the dense run's."""
    n = 48
    ens = sample_ensemble(pure(2), n, TreeShape((2,)), CorrelationLadder((0.0, 1.0)), seed=11)
    gen = rng.stream(75)
    partial = {(u,): np.clip(gen.standard_normal(n) * 0.4, -1.0, 1.0) for u in (1, 2)}
    calls = {"steps": 0, "lanczos": 0}
    direction, eigsh = optimizers._ising_direction, scipy.sparse.linalg.eigsh

    def counted_direction(*args):
        calls["steps"] += 1
        return direction(*args)

    def counted_eigsh(*args, **kwargs):
        calls["lanczos"] += 1
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(optimizers, "_ising_direction", counted_direction)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted_eigsh)

    def extend():
        return extend_to_sphere(ens, partial, OverlapLadder((0.0, 1.0)), eta=0.2, seed=5, mode="ising")

    dense = extend()
    assert calls["lanczos"] == 0
    monkeypatch.setattr(hamiltonian, "DENSE_EIGH_CAP", n - 1)
    calls["steps"] = 0
    lanczos = extend()
    assert calls["lanczos"] == calls["steps"] > 0
    assert lanczos.fallbacks < calls["steps"]
    for u, x in dense.pre_rounding.items():
        assert np.max(np.abs(lanczos.pre_rounding[u] - x)) <= 1e-8


def test_ising_fallback_directions_stay_on_the_free_coordinates():
    """With the node tensor -I every Hessian is negative definite, so every
    step falls back to a coordinate direction.  Orthogonalized against the
    masked span, each direction stays off the saturated coordinates, so the
    cube never stops the walk short of its target 1 - eta/2."""
    n = 32
    ens = sample_ensemble(pure(2), n, TreeShape((1,)), CorrelationLadder((0.0, 1.0)), seed=0)
    ens = dataclasses.replace(ens, node_hams={(1,): Hamiltonian(pure(2), n, {2: -np.eye(n)})})
    for start in (np.zeros(n), np.full(n, 0.1)):
        rep = extend_to_sphere(ens, {(1,): start}, OverlapLadder((0.0, 1.0)), eta=0.1, seed=0, mode="ising")
        assert rep.fallbacks > 0
        assert norm_n_sq(rep.pre_rounding[(1,)]) >= 0.95 - 1e-12


def test_ising_walk_signs_a_tied_direction_as_subag_does(monkeypatch):
    """From the origin the p2 gradient is zero, so <grad, v> ties for every
    direction v.  The walk signs it by `sign_toward`, as Subag's step does
    (largest entry positive), so an eigensolver that returns -v in place of
    v leaves the walk bit for bit unchanged."""
    n = 24
    ens = sample_ensemble(pure(2), n, TreeShape((2,)), CorrelationLadder((0.0, 1.0)), seed=3)

    def extend():
        partial = {(1,): np.zeros(n), (2,): np.zeros(n)}
        return extend_to_sphere(ens, partial, OverlapLadder((0.0, 1.0)), eta=0.2, seed=1, mode="ising")

    plain = extend()
    solve = optimizers.projected_top_eigvec

    def negated(*args, **kwargs):
        vecs, vals = solve(*args, **kwargs)
        return -vecs, vals

    monkeypatch.setattr(optimizers, "projected_top_eigvec", negated)
    flipped = extend()
    for u, x in plain.pre_rounding.items():
        assert np.array_equal(flipped.pre_rounding[u], x)


def test_lipschitz_probe_constant_and_isometric():
    m = pure(2)

    def const_alg(h, seed):
        return np.full(h.n, 0.3)

    mx, mean, _ = lipschitz_probe(const_alg, m, 16, eps=1e-2, reps=5, seed=0)
    assert mx == 0.0

    def coefficients_alg(h, seed):
        return coefficients(h)

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


def dense_top_eigvec(matrix, x):
    """Oracle: the top eigenvector of the symmetric part of P M P by eigh,
    P = I - u u^T projecting out x's unit vector u (none at x = 0)."""
    rows = orthonormal_rows([x], len(x))
    if rows.size:
        pmat = np.eye(len(x)) - rows.T @ rows
        matrix = pmat @ matrix @ pmat
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    return vecs[:, np.argsort(vals)[-1]]


def test_opt_form_conformance_subag():
    h = sample_hamiltonian(pure(4), 24, seed=10)  # pure p2 walks in a hessian_frame, order 1 per step
    delta, seed = 0.25, 3
    direct = subag_ascent(h, delta, "top_eig", seed=seed)

    scale = math.sqrt(delta * 24)

    def f(xs, derivs):
        x = xs[-1]
        v = dense_top_eigvec(derivs[-1]["hessian"], x)
        return x + scale * sign_toward(orthogonal_unit(v, [x]), derivs[-1]["grad"])

    generic = oracle_run_iterative(h, [f] * 4, [np.zeros(24)], k_order=2)
    assert all(np.array_equal(a, b) for a, b in zip(direct.iterates, generic[1:]))
