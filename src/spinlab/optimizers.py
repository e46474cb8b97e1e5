"""Optimization algorithms on p-spin Hamiltonians: projected gradient ascent,
AMP with Onsager correction and state evolution, Subag-style Hessian ascent
and the random-subspace walk, reflected Langevin dynamics, the sphere/cube
extension-and-rounding procedure, and a Lipschitz probe in the disorder
(`lipschitz_probe`, reported in the `concentration` subcommand's run.json
beside the overlap concentration it implies).

Gradient ascent and Langevin run one projected-ascent loop (`_ascend`):
each step is one order-1 derivatives call, x + lr grad, an optional noise
draw and the projection onto rB_N.  Langevin and AMP end through one exit
(`_end_in_ball`): a last iterate outside B_N is followed by its projection,
so `final` lies in B_N.

`subag_step` is the one Hessian-ascent step: the top eigenvector(s) of the
Hessian projected off the current constraints, signed along the gradient.
`_hessian_walk`, the one loop that takes it, is Subag ascent from the
origin, and the greedy energy embedding (`ultrametric.embed_energy_greedy`)
along each edge; on pure p = 2, at every n, in one `hessian_frame`.  Steps,
frames, the Ising walk and `restricted_top_eigvec` solve only through
`hamiltonian.projected_top_eigvec`, which alone picks dense eigh or Lanczos.

All optimizers ascend the energy (thresholds are maxima).
"""

import csv
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .ensembles import CorrelatedEnsemble, TreeShape, check_depths, underline_depth
from .errors import ArgumentError, NumericError, ResourceError
from .hamiltonian import (
    Hamiltonian,
    check_budget,
    derivatives,
    energy,
    gradient,
    hessian,  # noqa: F401 -- perfbench's tracer tests call spinlab.optimizers.hessian
    pool_map,
    projected_top_eigvec,
    sample_hamiltonian,
)
from .mixture import Mixture, xi_eval
from .points import (
    norm_n_sq,
    orthogonal_unit,
    orthonormal_rows,
    overlap,
    project_ball,
    sign_toward,
)


@dataclass
class Trajectory:
    iterates: list
    energies: list
    algorithm: str = ""
    params: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_energy(self) -> float:
        return self.energies[-1]

    def norms_sq(self):
        return [norm_n_sq(x) for x in self.iterates]


def export_trajectory_csv(traj: Trajectory, path):
    """CSV columns (step, energy, norm2); config echoed as a JSON header
    comment."""
    header = {"algorithm": traj.algorithm, "params": traj.params, "seed": traj.seed}
    with open(path, "w", newline="") as f:
        f.write("# " + json.dumps(header, sort_keys=True, default=lambda v: v.item()) + "\n")
        writer = csv.writer(f)
        writer.writerow(["step", "energy", "norm2"])
        for i, (x, e) in enumerate(zip(traj.iterates, traj.energies)):
            writer.writerow([i, repr(float(e)), repr(norm_n_sq(x))])


def _ascend(h: Hamiltonian, x, steps: int, lr: float, radius: float, noise=None) -> tuple:
    """(iterates, energies, boundary hits) of x <- Pi_{radius B_N}(x + lr grad
    H(x) [+ noise()]): one order-1 derivatives call per step and one energy
    call at the end.  A hit is a step whose projection moved the point."""
    iterates = [x]
    energies = []
    hits = 0
    for _ in range(steps):
        e, grad = derivatives(h, x, 1)
        energies.append(e)
        proposal = x + lr * grad
        if noise is not None:
            proposal = proposal + noise()
        x = project_ball(proposal, radius)
        if x is not proposal and not np.array_equal(x, proposal):
            hits += 1
        iterates.append(x)
    energies.append(energy(h, x))
    return iterates, energies, hits


def _end_in_ball(h: Hamiltonian, iterates: list, energies: list):
    """Follow a last iterate outside B_N by its projection and that point's
    energy, so the trajectory's `final` lies in B_N."""
    final = project_ball(iterates[-1], 1.0)
    if final is not iterates[-1]:
        iterates.append(final)
        energies.append(energy(h, final))


def gradient_ascent(h: Hamiltonian, x0, steps: int, lr: float) -> Trajectory:
    """x <- Pi_{B_N}(x + lr grad H(x)).  Energies may decrease through the
    projection; nothing is asserted about monotonicity."""
    if steps < 0:
        raise ArgumentError(f"steps={steps} must be >= 0")
    x = np.asarray(x0, dtype=float)
    if norm_n_sq(x) > 1.0 + 1e-9:
        raise ArgumentError("x0 outside B_N")
    iterates, energies, _hits = _ascend(h, x, steps, float(lr), 1.0)
    return Trajectory(iterates, energies, "gradient_ascent", {"steps": steps, "domain": ("ball", 1.0)})


# -- AMP -------------------------------------------------------------------------


@dataclass
class AmpSpec:
    """Entrywise nonlinearities f_t(x^0..x^t) with recorded Lipschitz
    constants, and the horizon T >= 0; x^0 is the all-ones vector."""

    fs: list
    lipschitz: list
    horizon: int
    _se_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not 0 <= self.horizon <= min(len(self.fs), len(self.lipschitz)):
            raise ArgumentError(f"horizon={self.horizon} must be >= 0, with a nonlinearity and constant per step")
        probe = rng.stream(0, "amp-lip-probe")
        for t, (f, lip) in enumerate(zip(self.fs[: self.horizon], self.lipschitz)):
            args1 = [probe.standard_normal(64) for _ in range(t + 1)]
            args2 = [a + 0.05 * probe.standard_normal(64) for a in args1]
            num = np.abs(np.asarray(f(*args1)) - np.asarray(f(*args2)))
            den = sum(np.abs(a - b) for a, b in zip(args1, args2))
            ratio = np.max(num / np.maximum(den, 1e-12))
            if ratio > lip * (1 + 1e-6) + 1e-9:
                raise ArgumentError(
                    f"f_{t} violated its recorded Lipschitz constant: probe ratio {ratio:.3g} > {lip}"
                )


_SE_FILL = threading.Lock()  # pooled replicas sharing one AmpSpec fill its cache once


def state_evolution(spec: AmpSpec, m: Mixture):
    """State-evolution covariance Q with Q[t-1, s-1] = Q_{t,s} =
    xi'(E[f_{t-1} f_{s-1}]) for the Gaussian iterates (X^1..X^T), by Monte
    Carlo on 100 000 cached samples shared with the Onsager expectations.
    The cache is filled under a lock, once per mixture."""
    with _SE_FILL:
        if m in spec._se_cache:
            return spec._se_cache[m]
        T = spec.horizon
        n = 100_000
        zmat = rng.stream(0, "amp-se").standard_normal((max(T, 1), n))
        xs = [np.full(n, 1.0)]
        f = []  # f[t] = f_t(X^0..X^t), evaluated once
        cov = np.zeros((T, T))
        for t in range(T):
            f.append(np.asarray(spec.fs[t](*xs[: t + 1])))
            for s in range(t + 1):
                c = float(np.clip(np.mean(f[t] * f[s]), -1.0, 2.0))
                cov[t, s] = cov[s, t] = xi_eval(m, c, 1)
            chol = np.linalg.cholesky(cov[: t + 1, : t + 1] + 1e-12 * np.eye(t + 1))
            xs.append(chol[t, : t + 1] @ zmat[: t + 1])
        spec._se_cache[m] = (cov, xs)
        return spec._se_cache[m]


def _onsager_derivatives(spec: AmpSpec, m: Mixture, t: int):
    """E[d f_t / d X^s] for s = 1..t, central differences on cached samples."""
    _q, xs = state_evolution(spec, m)
    out = np.zeros(t + 1)
    eps = 1e-4
    for s in range(1, t + 1):
        hi = list(xs[: t + 1])
        lo = list(xs[: t + 1])
        hi[s] = hi[s] + eps
        lo[s] = lo[s] - eps
        d = (np.asarray(spec.fs[t](*hi)) - np.asarray(spec.fs[t](*lo))) / (2 * eps)
        out[s] = float(np.mean(d))
    return out


def amp(h: Hamiltonian, spec: AmpSpec, seed: int = 0) -> Trajectory:
    """x^{t+1} = grad Htilde(f_t(x^0..x^t)) - sum_{s=1}^t d_{t,s} f_{s-1},
    with d_{t,s} = xi''(R(f_t, f_{s-1})) E[df_t/dX^s].

    Iterates are the raw AMP vectors (not confined to B_N); the recorded
    energies are of the iterate projected onto B_N, and per-iteration
    empirical overlaps land in params["overlaps"].  The run ends through
    `_end_in_ball`, so `final` is the point last scored.
    """
    field_free = Mixture(dict(h.mixture.gammas), h=0.0)
    h_tilde = Hamiltonian(field_free, h.n, h.tensors, seed=h.seed)
    x = np.full(h.n, 1.0)
    iterates = [x]
    energies = [energy(h, project_ball(x, 1.0))]
    f = []  # f[t] = f_t(x^0..x^t), evaluated once
    overlaps = []
    for t in range(spec.horizon):
        f.append(np.asarray(spec.fs[t](*iterates), dtype=float))
        onsager = np.zeros(h.n)
        if t >= 1:
            derivs = _onsager_derivatives(spec, h.mixture, t)
            for s in range(1, t + 1):
                r_emp = float(np.clip(overlap(f[t], f[s - 1]), -1.0, 2.0))
                onsager += xi_eval(h.mixture, r_emp, 2) * derivs[s] * f[s - 1]
        x = gradient(h_tilde, f[t]) - onsager
        iterates.append(x)
        energies.append(energy(h, project_ball(x, 1.0)))
        overlaps.append([overlap(x, xp) for xp in iterates[:-1]])
    _end_in_ball(h, iterates, energies)
    return Trajectory(
        iterates, energies, "amp", {"horizon": spec.horizon, "overlaps": overlaps}, seed=seed
    )


# -- Subag ascent ------------------------------------------------------------------


def _top_count(h: Hamiltonian, mode: str, delta: float) -> int:
    return 1 if mode == "top_eig" else max(math.floor(delta * h.n), 1)  # the eigenpairs a step takes


def hessian_frame(h: Hamiltonian, m: int):
    """(rows, eigenvalues): the top m eigenpairs of the constant Hessian of a
    pure p = 2 Hamiltonian at any n, formed (n^2 floats, as many as G) and
    solved once at seed 0; None for any other.  A step whose span(x, *others)
    lies in it with dimension j <= m - k stays in it: P Hess P's top k there
    are >= lambda_{j+k} >= lambda_{m+1} (interlacing)."""
    if h.mixture.ps != (2,):
        return None
    return projected_top_eigvec(derivatives(h, np.zeros(h.n), 2)[2], (), k=m)


def subag_step(h: Hamiltonian, x, mode: str, delta: float, step_seed: int, others=(), frame=None) -> tuple:
    """(energy at x, step direction from x), from the top eigenpairs of
    P Hess P, P projecting out span(x, *others): the top eigenvector
    ("top_eig"), or a Gaussian combination of the top max(floor(delta N), 1),
    coefficient i on the i-th largest, each first signed along the gradient
    ("random_subspace").  The direction is re-projected off the span,
    normalized and signed along the gradient by `sign_toward`; ResourceError
    if it lies in the span.  With a `hessian_frame` (pure p = 2) it solves,
    after an order-1 call, diag(eigenvalues) off the frame coordinates of
    the span and lifts the result back by the frame's rows; without one (a
    p >= 3 term, which the tensor budget keeps at n <= 107) it solves an
    order-2 call's Hessian."""
    orth = [x, *others]
    k = _top_count(h, mode, delta)
    if frame is None:
        e, grad, hess = derivatives(h, x, 2)
        vecs, _vals = projected_top_eigvec(hess, orth, k=k, seed=step_seed)
    else:
        basis, vals = frame
        e, grad = derivatives(h, x, 1)
        coef, _vals = projected_top_eigvec(np.diag(vals), [basis @ w for w in orth], k=k, seed=step_seed)
        vecs = coef @ basis
    if mode == "top_eig":
        v = vecs[0]
    else:  # signing each eigenvector frees the draw from the eigensolver's sign convention
        coeffs = rng.stream(step_seed, "subag-dir").standard_normal(k)
        v = coeffs @ np.array([sign_toward(u, grad) for u in vecs])
    v = orthogonal_unit(v, orth)
    if v is None:
        raise ResourceError("orthogonal directions exhausted")
    return e, sign_toward(v, grad)


def _hessian_walk(h: Hamiltonian, x, target_sq: float, delta: float, mode: str, labels: tuple, others=(), frame=None):
    """(points, energies) of the radial walk from points[0] = x to |x|_N^2 =
    target_sq, energies[i] = H(points[i]): step i moves x by sqrt(gain N)
    along `subag_step` at derive_seed(*labels, i) off x and `others` (in
    `frame`), gain = delta while more than delta - 1e-12 remains, then the rest."""
    points, energies = [x], []
    while (norm_sq := norm_n_sq(x)) < target_sq - 1e-12:
        rest = target_sq - norm_sq
        e, v = subag_step(h, x, mode, delta, rng.derive_seed(*labels, len(energies)), others, frame)
        energies.append(e)
        gain = delta if rest > delta - 1e-12 else rest
        x = x + math.sqrt(gain * h.n) * v
        points.append(x)
    energies.append(energy(h, x))
    return points, energies


def subag_ascent(h: Hamiltonian, delta: float, mode: str = "top_eig", seed: int = 0) -> Trajectory:
    """Radial exploration x^{i+1} = x^i + v^i sqrt(delta N); |x^i|_N^2 = i delta
    exactly, landing on the sphere after 1/delta steps.  The starting point
    x^1 is the delta-scaled top direction at the origin."""
    if mode not in ("top_eig", "random_subspace"):
        raise ArgumentError(f"unknown subag mode {mode!r}")
    if not 0 < delta <= 1:
        raise ArgumentError(f"delta={delta} must lie in (0, 1]")
    steps = 1.0 / delta
    if abs(steps - round(steps)) > 1e-9:
        raise ArgumentError(f"1/delta = {steps} must be an integer")
    if delta * h.n < 2:
        raise ArgumentError(f"delta N = {delta * h.n} too small")
    frame = hessian_frame(h, _top_count(h, mode, delta) + 1)  # the span is x alone: j <= 1
    points, energies = _hessian_walk(h, np.zeros(h.n), round(steps) * delta, delta, mode, (seed, "step"), (), frame)
    return Trajectory(points[1:], energies[1:], "subag_ascent", {"delta": delta, "mode": mode}, seed=seed)


# -- Langevin ----------------------------------------------------------------------


def langevin(h: Hamiltonian, beta: float, horizon: float, dt: float, r: float = 1.0, seed: int = 0) -> Trajectory:
    """Euler-Maruyama for dX = (beta/2) grad H dt + dB from the origin: the
    projected-ascent loop at lr = beta dt / 2 on rB_N (projection as the
    reflection surrogate), with sqrt(dt) N(0, I) noise, ended in B_N.
    Boundary hits are counted in params."""
    if not 0 < dt <= 1e-2 + 1e-15:
        raise ArgumentError(f"dt={dt} must lie in (0, 1e-2]")
    if not 0 <= horizon < math.inf:
        raise ArgumentError(f"horizon={horizon} must be a nonnegative finite number")
    if not (1.0 <= r < math.sqrt(2.0)):
        raise ArgumentError(f"radius r={r} must lie in [1, sqrt(2))")
    gen = rng.stream(seed, "langevin")
    scale = math.sqrt(dt)
    iterates, energies, hits = _ascend(
        h, np.zeros(h.n), int(round(horizon / dt)), 0.5 * beta * dt, r,
        noise=lambda: scale * gen.standard_normal(h.n),
    )
    if not np.all(np.isfinite(energies)):
        raise NumericError("Langevin energy diverged; reduce dt")
    _end_in_ball(h, iterates, energies)
    return Trajectory(
        iterates,
        energies,
        "langevin",
        {"beta": beta, "dt": dt, "horizon": horizon, "r": r, "boundary_hits": hits},
        seed=seed,
    )


# -- extension to the sphere / cube ---------------------------------------------------


@dataclass
class ExtensionReport:
    points: dict  # full leaf -> final point
    energy_change: dict  # full leaf -> leaf energy(final) - leaf energy(partial)
    fallbacks: int = 0  # Ising steps that fell back to coordinate directions
    pre_rounding: dict | None = None  # Ising mode: cube-interior points before rounding


def extend_to_sphere(
    ensemble: CorrelatedEnsemble,
    partial: dict,
    qladder,
    eta: float,
    seed: int = 0,
    mode: str = "sphere",
) -> ExtensionReport:
    """Grow the point of each depth-D_ul (underline) node into its subtree of
    full leaves with the prescribed overlap ladder.  `partial` must name
    exactly the underline nodes, and the ladder must have the tree's depth;
    both are checked before any step.

    Every increment is orthogonal to all contemporaneous iterates, so cross
    overlaps are frozen and within-tree overlaps hit q_{lca depth} exactly
    (spherical mode).  Ising mode walks along nonnegative-curvature Hessian
    directions among non-saturated coordinates when available, at every n
    (one `projected_top_eigvec` solve per step; random coordinate
    directions otherwise, counted as fallbacks), stops at
    1 - min(eta / 2, 0.05), then rounds coordinates independently with the
    mean preserved; only this gap reads eta, so spherical mode ignores it.
    The geometry is sequential; the per-leaf energy changes then run on
    `pool_map`.
    """
    if mode not in ("sphere", "ising"):
        raise ArgumentError(f"unknown extension mode {mode!r}")
    shape = ensemble.shape
    check_depths(shape, qladder)
    d_ul = underline_depth(ensemble.ladder)
    underline = set(TreeShape(shape.ks[:d_ul]).leaves())
    if set(partial) != underline:
        raise ArgumentError(
            f"partial points must name exactly the depth-{d_ul} nodes of the tree shape {shape.ks}: "
            f"missing {sorted(underline - set(partial))}, unknown {[u for u in partial if u not in underline]}"
        )
    qs = qladder.qs
    n = ensemble.n
    gen = rng.stream(seed, "extend", mode)
    gap = min(eta / 2, 0.05) if mode == "ising" else 0.0

    active = {}
    for u_ul, x in partial.items():
        x = np.asarray(x, dtype=float)
        if norm_n_sq(x) > qs[d_ul] + 1e-9:
            raise ArgumentError(f"partial point at {u_ul} has |x|_N^2 > q_{d_ul}")
        active[u_ul] = x
    fallbacks = 0

    def constraints_for(node):
        return [p for nd, p in active.items() if nd != node]

    def grow_sphere(node, x, q_target):
        if norm_n_sq(x) >= q_target - 1e-12:
            return x
        v = orthogonal_unit(gen.standard_normal(n), [x] + constraints_for(node))
        if v is None:
            raise ResourceError("orthogonal directions exhausted (N too small vs K)")
        need = max(q_target - norm_n_sq(x), 0.0) * n
        return x + math.sqrt(need) * v

    def grow_ising(node, x, q_target):
        nonlocal fallbacks
        leaf_h = ensemble.leaf_hamiltonian(node[:d_ul])
        step_cap = math.sqrt(0.01 * n)
        while norm_n_sq(x) < q_target - 1e-12:
            free = np.flatnonzero(np.abs(x) < 1.0 - 1e-12)
            if free.size < 2:
                break
            mask = np.zeros(n)
            mask[free] = 1.0
            masked = [w * mask for w in [x] + constraints_for(node)]
            _e, grad, hess = derivatives(leaf_h, x, 2)
            v = _ising_direction(hess, mask, masked)
            if v is None:
                v = _fallback_coordinate(free, masked, gen, n)
                fallbacks += 1
                if v is None:
                    break
            v = sign_toward(v, grad)
            t_level = math.sqrt(max(q_target - norm_n_sq(x), 0.0) * n)
            with np.errstate(divide="ignore", invalid="ignore"):
                pos = np.where(v > 1e-14, (1.0 - x) / v, np.inf)
                neg = np.where(v < -1e-14, (-1.0 - x) / v, np.inf)
            t_cube = float(min(pos.min(), neg.min()))
            t = min(t_level, step_cap, t_cube)
            if t <= 1e-12:
                break
            x = np.clip(x + t * v, -1.0, 1.0)
            active[node] = x
        return x

    grow = grow_sphere if mode == "sphere" else grow_ising
    for d in range(d_ul, shape.depth + 1):
        q_target = qs[d] - (gap if d == shape.depth else 0.0)
        for node in sorted(active):
            active[node] = grow(node, active[node], q_target)
        if d < shape.depth:
            branched = {}
            for node, x in sorted(active.items()):
                for child in range(1, shape.ks[d] + 1):
                    branched[node + (child,)] = x.copy()
            active = branched
    points = dict(active)

    pre_rounding = None
    if mode == "ising":
        pre_rounding = {u: x.copy() for u, x in points.items()}
        points = round_to_corners(points, rng.derive_seed(seed, "round"))

    def change(u):
        start = np.asarray(partial[u[:d_ul]], dtype=float)
        return ensemble.leaf_energy(u, points[u]) - ensemble.leaf_energy(u, start)

    changes = dict(zip(points, pool_map(change, list(points))))  # a leaf energy holds no tensor
    return ExtensionReport(points, changes, fallbacks, pre_rounding)


def round_to_corners(points: dict, seed: int) -> dict:
    """Round each coordinate independently to +-1 with the mean preserved:
    P(sigma_i = 1) = (1 + x_i)/2."""
    out = {}
    for u, x in points.items():
        gen = rng.stream(seed, "round", tuple(u))
        probs = 0.5 * (1.0 + np.clip(np.asarray(x, dtype=float), -1.0, 1.0))
        out[u] = np.where(gen.random(len(probs)) < probs, 1.0, -1.0)
    return out


def _ising_direction(hess, mask, masked):
    """Top eigenvector of P_S Hess P_S restricted to the orthocomplement of
    the masked span, with S the free coordinates (mask is their 0/1
    indicator, masked the span times mask); None if the top eigenvalue is
    negative (the curvature certificate fails at this finite N).  Masks
    hess in place: its entries are multiplied by 0 or 1, which is exact,
    and no n x n temporary is made."""
    hess *= mask
    hess *= mask[:, None]
    vecs, vals = projected_top_eigvec(hess, masked)
    if vals[0] < 0.0:
        return None
    return orthogonal_unit(vecs[0] * mask, orthonormal_rows(masked, len(hess)))


def _fallback_coordinate(free, masked, gen, n):
    """Random non-saturated coordinate direction, orthogonalized to the
    masked span, so it stays on the free coordinates and is orthogonal to
    the span itself."""
    for _ in range(16):
        i = int(free[gen.integers(free.size)])
        e = np.zeros(n)
        e[i] = 1.0
        v = orthogonal_unit(e, masked)
        if v is not None:
            return v
    return None


def lipschitz_probe(alg, m: Mixture, n: int, eps: float, reps: int, seed: int):
    """Empirical output-distance / input-distance ratios under i.i.d. Gaussian
    perturbations of scale eps of every disorder coefficient.

    Returns (max_ratio, mean_ratio, ratios); distances in the |.|_N norms.
    It holds the base, one perturbation and its perturbed copy (each rep's
    are freed when its ratio returns), which must fit the tensor budget
    before the base is sampled.
    """
    check_budget(m, n, 3, "the probe's base, perturbation and perturbed copy hold")
    base = sample_hamiltonian(m, n, rng.derive_seed(seed, "probe-base"))
    out0 = np.asarray(alg(base, seed))
    sizes = {p: base.tensors[p].size for p in m.ps}
    total = sum(sizes.values())

    def ratio(rep):
        delta = eps * rng.stream(seed, "probe", rep).standard_normal(total)
        tensors = {}
        offset = 0
        for p in m.ps:
            block = delta[offset : offset + sizes[p]].reshape(base.tensors[p].shape)
            tensors[p] = base.tensors[p] + block
            offset += sizes[p]
        pert = Hamiltonian(base.mixture, base.n, tensors)
        out1 = np.asarray(alg(pert, seed))
        dist_in = np.linalg.norm(delta) / math.sqrt(n)
        dist_out = np.linalg.norm(out1 - out0) / math.sqrt(n)
        return dist_out / dist_in if dist_in > 0 else 0.0

    ratios = np.asarray([ratio(rep) for rep in range(reps)])
    return float(ratios.max()), float(ratios.mean()), ratios
