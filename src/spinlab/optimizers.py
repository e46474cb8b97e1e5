"""Optimization algorithms on p-spin Hamiltonians: projected gradient ascent,
AMP with Onsager correction and state evolution, Subag-style Hessian ascent
and the random-subspace walk, reflected Langevin dynamics, the sphere/cube
extension-and-rounding procedure, and a Lipschitz probe in the disorder
(`lipschitz_probe`, reported in the `concentration` subcommand's run.json
beside the overlap concentration it implies).

`subag_step` is the one Hessian-ascent step: the top eigenvector(s) of the
Hessian projected off the current constraints, signed along the gradient.
Subag ascent takes it off x alone; the greedy energy embedding
(`ultrametric.embed_energy_greedy`) takes it off x and every embedded
vertex.

All optimizers ascend the energy (thresholds are maxima).
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .ensembles import CorrelatedEnsemble, underline_view
from .errors import ArgumentError, NumericError, ResourceError
from .hamiltonian import (
    DEFAULT_DENSE_HESSIAN_CAP,
    Hamiltonian,
    derivatives,
    energy,
    gradient,
    hessian,  # noqa: F401 -- perfbench's tracer tests call spinlab.optimizers.hessian
    projected_top_eigvec,
    sample_hamiltonian,
    top_eigenpairs,
)
from .mixture import Mixture, xi_eval
from .points import (
    norm_n_sq,
    orthogonal_unit,
    orthonormal_rows,
    overlap,
    project_ball,
    project_cube,
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


def export_trajectory_csv(traj: Trajectory, path, anchor=None):
    """CSV columns (step, energy, norm2[, overlap_anchor]); config echoed as a
    JSON header comment."""
    header = {"algorithm": traj.algorithm, "params": _jsonable(traj.params), "seed": traj.seed}
    with open(path, "w", newline="") as f:
        f.write("# " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(f)
        cols = ["step", "energy", "norm2"] + (["overlap_anchor"] if anchor is not None else [])
        writer.writerow(cols)
        for i, (x, e) in enumerate(zip(traj.iterates, traj.energies)):
            row = [i, repr(float(e)), repr(norm_n_sq(x))]
            if anchor is not None:
                row.append(repr(overlap(x, anchor)))
            writer.writerow(row)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _project(x, domain):
    kind, r = domain
    if kind == "ball":
        return project_ball(x, r)
    if kind == "cube":
        return project_cube(x, r)
    raise ArgumentError(f"unknown domain {kind!r}")


def _in_domain(x, domain, tol=1e-9):
    kind, r = domain
    if kind == "ball":
        return norm_n_sq(x) <= r * r + tol
    return bool(np.all(np.abs(x) <= r + tol))


def gradient_ascent(
    h: Hamiltonian,
    x0,
    steps: int,
    lr,
    domain=("ball", 1.0),
) -> Trajectory:
    """x <- Pi_domain(x + lr_k grad H(x)).  Energies may decrease through the
    projection; nothing is asserted about monotonicity."""
    x = np.asarray(x0, dtype=float)
    if not _in_domain(x, domain):
        raise ArgumentError("x0 outside the declared domain")
    lrs = [float(lr)] * steps if np.isscalar(lr) else [float(v) for v in lr]
    if len(lrs) < steps:
        raise ArgumentError("learning-rate sequence shorter than steps")
    iterates = [x]
    energies = []
    for k in range(steps):
        e, grad = derivatives(h, x, 1)
        energies.append(e)
        x = _project(x + lrs[k] * grad, domain)
        iterates.append(x)
    energies.append(energy(h, x))
    return Trajectory(iterates, energies, "gradient_ascent", {"steps": steps, "domain": domain})


# -- AMP -------------------------------------------------------------------------


@dataclass
class AmpSpec:
    """Entrywise nonlinearities f_t(x^0..x^t) with recorded Lipschitz
    constants, the horizon, and the i.i.d. initial law of x^0."""

    fs: list
    lipschitz: list
    horizon: int
    x0_law: tuple = ("constant", 1.0)
    se_samples: int = 100_000
    _se_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.fs) < self.horizon or len(self.lipschitz) < self.horizon:
            raise ArgumentError("need a nonlinearity and constant per step up to the horizon")
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

    def sample_x0(self, gen, size):
        kind, par = self.x0_law
        if kind == "constant":
            return np.full(size, float(par))
        if kind == "pm":
            return np.where(gen.random(size) < 0.5, -float(par), float(par))
        raise ArgumentError(f"unknown initial law {kind!r}")


def state_evolution(spec: AmpSpec, m: Mixture, seed: int = 0):
    """State-evolution covariance Q with Q[t-1, s-1] = Q_{t,s} =
    xi'(E[f_{t-1} f_{s-1}]) for the Gaussian iterates (X^1..X^T), by Monte
    Carlo on cached samples shared with the Onsager expectations."""
    key = (m, seed)
    if key not in spec._se_cache:
        T = spec.horizon
        n = spec.se_samples
        gen = rng.stream(seed, "amp-se")
        zmat = gen.standard_normal((max(T, 1), n))
        xs = [spec.sample_x0(gen, n)]
        cov = np.zeros((T, T))
        for t in range(T):
            f_t = np.asarray(spec.fs[t](*xs[: t + 1]))
            for s in range(t + 1):
                f_s = np.asarray(spec.fs[s](*xs[: s + 1]))
                c = float(np.clip(np.mean(f_t * f_s), -1.0, 2.0))
                cov[t, s] = cov[s, t] = xi_eval(m, c, 1)
            chol = np.linalg.cholesky(cov[: t + 1, : t + 1] + 1e-12 * np.eye(t + 1))
            xs.append(chol[t, : t + 1] @ zmat[: t + 1])
        spec._se_cache[key] = (cov, xs)
    return spec._se_cache[key]


def _onsager_derivatives(spec: AmpSpec, m: Mixture, t: int, seed: int = 0):
    """E[d f_t / d X^s] for s = 1..t, central differences on cached samples."""
    _q, xs = state_evolution(spec, m, seed)
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
    empirical overlaps land in params["overlaps"].
    """
    gen = rng.stream(seed, "amp-x0")
    field_free = Mixture(dict(h.mixture.gammas), h=0.0)
    h_tilde = Hamiltonian(field_free, h.n, h.tensors, seed=h.seed, label="field-free view")
    x = spec.sample_x0(gen, h.n)
    iterates = [x]
    energies = [energy(h, project_ball(x, 1.0))]
    overlaps = []
    for t in range(spec.horizon):
        fcur = np.asarray(spec.fs[t](*iterates[: t + 1]), dtype=float)
        onsager = np.zeros(h.n)
        if t >= 1:
            derivs = _onsager_derivatives(spec, h.mixture, t, seed=0)
            for s in range(1, t + 1):
                fprev = np.asarray(spec.fs[s - 1](*iterates[:s]), dtype=float)
                r_emp = float(np.clip(overlap(fcur, fprev), -1.0, 2.0))
                onsager += xi_eval(h.mixture, r_emp, 2) * derivs[s] * fprev
        x = gradient(h_tilde, fcur) - onsager
        iterates.append(x)
        energies.append(energy(h, project_ball(x, 1.0)))
        overlaps.append([overlap(x, xp) for xp in iterates[:-1]])
    return Trajectory(
        iterates, energies, "amp", {"horizon": spec.horizon, "overlaps": overlaps}, seed=seed
    )


# -- Subag ascent ------------------------------------------------------------------


def subag_step(
    h: Hamiltonian, x, mode: str, delta: float, step_seed: int, start=None, others=()
) -> tuple:
    """(energy at x, step direction from x), from the top eigenpairs of
    P Hess P, P projecting out span(x, *others): the top eigenvector
    ("top_eig"), or a Gaussian combination of the top max(floor(delta N), 1),
    coefficient i on the i-th largest, each first signed along the gradient
    ("random_subspace").  The direction is re-projected off the span,
    normalized and signed along the gradient by `sign_toward`; ResourceError
    if it lies in the span.

    Up to the dense-Hessian cap: one order-2 derivatives call and
    `top_eigenpairs`.  Above it: Lanczos on Hessian-vector products
    (`projected_top_eigvec`, warm-started from `start`, the previous
    direction) and one order-1 call."""
    orth = [x, *others]
    k = 1 if mode == "top_eig" else max(math.floor(delta * h.n), 1)
    if h.n <= DEFAULT_DENSE_HESSIAN_CAP:
        e, grad, hess = derivatives(h, x, 2)
        vecs, _vals = top_eigenpairs(hess, orthonormal_rows(orth, h.n), k)
    else:
        vecs, _vals = projected_top_eigvec(h, x, orth=orth, k=k, seed=step_seed, start=start)
        e, grad = derivatives(h, x, 1)
    if mode == "top_eig":
        v = vecs[0]
    else:  # signing each eigenvector frees the draw from the eigensolver's sign convention
        coeffs = rng.stream(step_seed, "subag-dir").standard_normal(k)
        v = coeffs @ np.array([sign_toward(u, grad) for u in vecs])
    v = orthogonal_unit(v, orth)
    if v is None:
        raise ResourceError("orthogonal directions exhausted")
    return e, sign_toward(v, grad)


def subag_ascent(
    h: Hamiltonian, delta: float, mode: str = "top_eig", seed: int = 0, x1=None
) -> Trajectory:
    """Radial exploration x^{i+1} = x^i + v^i sqrt(delta N); |x^i|_N^2 = i delta
    exactly, landing on the sphere after 1/delta steps.  The default starting
    point is the delta-scaled top direction at the origin; any x1 with
    |x1|_N^2 = delta may be supplied instead."""
    if mode not in ("top_eig", "random_subspace"):
        raise ArgumentError(f"unknown subag mode {mode!r}")
    steps = 1.0 / delta
    if abs(steps - round(steps)) > 1e-9:
        raise ArgumentError(f"1/delta = {steps} must be an integer")
    steps = int(round(steps))
    if delta * h.n < 2:
        raise ArgumentError(f"delta N = {delta * h.n} too small")
    scale = math.sqrt(delta * h.n)
    if x1 is not None:
        x = np.asarray(x1, dtype=float)
        if abs(norm_n_sq(x) - delta) > 1e-9:
            raise ArgumentError(f"|x1|_N^2 = {norm_n_sq(x):.6g} must equal delta = {delta}")
    else:
        x = scale * subag_step(h, np.zeros(h.n), mode, delta, rng.derive_seed(seed, "step", 0))[1]
    iterates = [x]
    energies = []
    v = x  # the first direction lies along x, so step 1 starts Lanczos cold
    for i in range(1, steps):
        e, v = subag_step(h, x, mode, delta, rng.derive_seed(seed, "step", i), start=v)
        energies.append(e)
        x = x + scale * v
        iterates.append(x)
    energies.append(energy(h, x))
    return Trajectory(iterates, energies, "subag_ascent", {"delta": delta, "mode": mode}, seed=seed)


# -- Langevin ----------------------------------------------------------------------


def langevin(
    h: Hamiltonian,
    beta: float,
    horizon: float,
    dt: float,
    r: float = 1.0,
    seed: int = 0,
    domain_kind: str = "ball",
    noise_scale: float = 1.0,
    x0=None,
) -> Trajectory:
    """Euler-Maruyama for dX = (beta/2) grad H dt + dB with per-step projection
    onto rB_N (or rC_N) as the reflection surrogate; the final point is
    projected onto B_N (C_N).  Boundary hits are counted in params.  With
    noise_scale = 0 the map equals gradient ascent at lr = 0.5 * beta * dt."""
    if dt > 1e-2 + 1e-15:
        raise ArgumentError(f"dt={dt} too large (need <= 1e-2)")
    if not (1.0 <= r < math.sqrt(2.0)):
        raise ArgumentError(f"radius r={r} must lie in [1, sqrt(2))")
    domain = (domain_kind, r)
    x = np.zeros(h.n) if x0 is None else np.asarray(x0, dtype=float)
    gen = rng.stream(seed, "langevin")
    steps = int(round(horizon / dt))
    lr_eq = 0.5 * beta * dt
    iterates = [x]
    energies = []
    hits = 0
    for _ in range(steps):
        e, grad = derivatives(h, x, 1)
        energies.append(e)
        proposal = x + lr_eq * grad
        if noise_scale != 0.0:
            proposal = proposal + noise_scale * math.sqrt(dt) * gen.standard_normal(h.n)
        x = _project(proposal, domain)
        if x is not proposal and not np.array_equal(x, proposal):
            hits += 1
        iterates.append(x)
    energies.append(energy(h, x))
    if not np.all(np.isfinite(energies)):
        raise NumericError("Langevin energy diverged; reduce dt")
    final = _project(x, ("ball", 1.0) if domain_kind == "ball" else ("cube", 1.0))
    if not np.array_equal(final, x):
        iterates.append(final)
        energies.append(energy(h, final))
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
    m_anchor=None,
    ising_stop_gap: float | None = None,
) -> ExtensionReport:
    """Grow each underline-leaf point into its subtree of full leaves with the
    prescribed overlap ladder.

    Every increment is orthogonal to all contemporaneous iterates and to the
    anchor, so cross overlaps are frozen and within-tree overlaps hit
    q_{lca depth} exactly (spherical mode).  Ising mode walks along
    nonnegative-curvature Hessian directions among non-saturated coordinates
    when available (random coordinate directions otherwise, counted as
    fallbacks), stops at 1 - gap, then rounds coordinates independently with
    the mean preserved.
    """
    if mode not in ("sphere", "ising"):
        raise ArgumentError(f"unknown extension mode {mode!r}")
    shape = ensemble.shape
    sub_shape, _, _ = underline_view(shape, ensemble.ladder, qladder)
    d_ul = sub_shape.depth
    qs = qladder.qs
    n = ensemble.n
    gen = rng.stream(seed, "extend", mode)
    gap = 0.0
    if mode == "ising":
        gap = min(eta / 2, 0.05) if ising_stop_gap is None else ising_stop_gap

    anchors = [] if m_anchor is None else [np.asarray(m_anchor, dtype=float)]
    active = {}
    for u_ul, x in partial.items():
        x = np.asarray(x, dtype=float)
        if norm_n_sq(x) > qs[d_ul] + 1e-9:
            raise ArgumentError(f"partial point at {u_ul} has |x|_N^2 > q_{d_ul}")
        active[tuple(u_ul)] = x
    fallbacks = 0

    def constraints_for(node):
        return [p for nd, p in active.items() if nd != node] + anchors

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
        leaf_h = ensemble.leaf_hamiltonian(node + (1,) * (shape.depth - len(node)), depth=d_ul)
        step_cap = math.sqrt(0.01 * n)
        while norm_n_sq(x) < q_target - 1e-12:
            free = np.flatnonzero(np.abs(x) < 1.0 - 1e-12)
            if free.size < 2:
                break
            span = [x] + constraints_for(node)
            if n <= DEFAULT_DENSE_HESSIAN_CAP:
                _e, grad, hess = derivatives(leaf_h, x, 2)
                v = _ising_direction(hess, free, span)
            else:
                grad, v = gradient(leaf_h, x), None
            if v is None:
                v = _fallback_coordinate(free, span, gen, n)
                fallbacks += 1
                if v is None:
                    break
            if grad @ v < 0:
                v = -v
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
        q_target = qs[d] - (gap if mode == "ising" and d == shape.depth else 0.0)
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

    changes = {}
    for u, x in points.items():
        start = np.asarray(partial[u[:d_ul]], dtype=float)
        changes[u] = ensemble.leaf_energy(u, x) - ensemble.leaf_energy(u, start)
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


def _ising_direction(hess, free, span):
    """Top eigenvector of P_S Hess P_S restricted to the orthocomplement of
    span, with S the free coordinates; None if the top eigenvalue is negative
    (the curvature certificate fails at this finite N)."""
    n = len(hess)
    mask = np.zeros(n)
    mask[free] = 1.0
    hs = hess * np.outer(mask, mask)
    rows = orthonormal_rows([w * mask for w in span], n)
    vecs, vals = top_eigenpairs(hs, rows)
    if vals[0] < 0.0:
        return None
    return orthogonal_unit(vecs[0] * mask, rows)


def _fallback_coordinate(free, span, gen, n):
    """Random non-saturated coordinate direction, orthogonalized to span."""
    for _ in range(16):
        i = int(free[gen.integers(free.size)])
        e = np.zeros(n)
        e[i] = 1.0
        v = orthogonal_unit(e, span)
        if v is not None:
            return v
    return None


def lipschitz_probe(alg, m: Mixture, n: int, eps: float, reps: int, seed: int):
    """Empirical output-distance / input-distance ratios under i.i.d. Gaussian
    perturbations of scale eps of every disorder coefficient.

    Returns (max_ratio, mean_ratio, ratios); distances in the |.|_N norms.
    """
    base = sample_hamiltonian(m, n, rng.derive_seed(seed, "probe-base"))
    out0 = np.asarray(alg(base, seed))
    sizes = {p: base.tensors[p].size for p in m.ps}
    total = sum(sizes.values())
    ratios = []
    for rep in range(reps):
        delta = eps * rng.stream(seed, "probe", rep).standard_normal(total)
        tensors = {}
        offset = 0
        for p in m.ps:
            block = delta[offset : offset + sizes[p]].reshape(base.tensors[p].shape)
            tensors[p] = base.tensors[p] + block
            offset += sizes[p]
        pert = base.with_tensors(tensors, label="probe")
        out1 = np.asarray(alg(pert, seed))
        dist_in = np.linalg.norm(delta) / math.sqrt(n)
        dist_out = np.linalg.norm(out1 - out0) / math.sqrt(n)
        ratios.append(dist_out / dist_in if dist_in > 0 else 0.0)
    ratios = np.asarray(ratios)
    return float(ratios.max()), float(ratios.mean()), ratios
