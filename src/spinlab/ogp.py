"""Empirical correlation functions, overlap-concentration measurement, and
branching experiments comparing observed overlap structures and grand
energies against targets and interpolation bounds.

Algorithms are callables alg(hamiltonian, seed) -> point in B_N (or C_N).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .ensembles import (
    CorrelatedEnsemble,
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    constrained_membership,
    pair_mixer,
    sample_ensemble,
    target_overlap_matrix,
    underline_target_matrix,
    underline_view,
)
from .errors import ArgumentError
from .hamiltonian import energy, gradient
from .mixture import Mixture
from .optimizers import extend_to_sphere
from .points import norm_n_sq, overlap, sphere_point


@dataclass
class ChiEstimate:
    p_grid: tuple
    chi_hat: np.ndarray
    se: np.ndarray
    reps: int
    algorithm: str
    n: int

    def at(self, p: float) -> float:
        idx = self.p_grid.index(p)
        return float(self.chi_hat[idx])


def estimate_chi(alg, m: Mixture, n: int, p_grid, reps: int, seed: int, algorithm_id: str = "") -> ChiEstimate:
    """chi(p) = E R(A(H1), A(H2)) over p-correlated pairs; the shared base
    Hamiltonian is reused across the p-grid within a rep (antithetic sweep,
    unbiased per p).  p = 1 runs the algorithm on identical Hamiltonians."""
    if reps < 10:
        raise ArgumentError(f"reps={reps} must be >= 10")
    p_grid = tuple(float(p) for p in p_grid)
    values = np.empty((reps, len(p_grid)))
    for r in range(reps):
        mix = pair_mixer(m, n, seed, "chi", r, label="chi{i}(p={p})")
        run_seed = rng.derive_seed(seed, "chi-run", r)
        for j, p in enumerate(p_grid):
            h1, h2 = mix(p)
            out1 = np.asarray(alg(h1, run_seed))
            out2 = np.asarray(alg(h2, run_seed))
            values[r, j] = overlap(out1, out2)
    chi_hat = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(reps)
    return ChiEstimate(p_grid, chi_hat, se, reps, algorithm_id, n)


@dataclass
class ChiReport:
    classification: str  # "constant" | "increasing"
    flags: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags


def check_chi_properties(est: ChiEstimate) -> ChiReport:
    """Flag statistically significant (3 SE) violations of: range in
    [0, chi(1)] within [0, 1]; a monotone trend; the chord bound
    chi(p) <= (1-p) chi(0) + p chi(1)."""
    if len(est.p_grid) < 3 or 0.0 not in est.p_grid or 1.0 not in est.p_grid:
        raise ArgumentError("need at least 3 grid points including p = 0 and p = 1")
    flags = []
    chi1 = est.at(1.0)
    se1 = float(est.se[est.p_grid.index(1.0)])
    for p, v, s in zip(est.p_grid, est.chi_hat, est.se):
        if v < -3 * s:
            flags.append(f"chi({p}) = {v:.4f} below 0 beyond 3 SE")
        if v > chi1 + 3 * (s + se1):
            flags.append(f"chi({p}) = {v:.4f} above chi(1) beyond 3 SE")
    if chi1 > 1.0 + 3 * se1:
        flags.append(f"chi(1) = {chi1:.4f} above 1 beyond 3 SE")
    for j in range(len(est.p_grid) - 1):
        gap = est.chi_hat[j] - est.chi_hat[j + 1]
        tol = 3 * math.hypot(est.se[j], est.se[j + 1])
        if gap > tol:
            flags.append(
                f"monotonicity dip between p={est.p_grid[j]} and p={est.p_grid[j + 1]}"
            )
    chi0 = est.at(0.0)
    se0 = float(est.se[est.p_grid.index(0.0)])
    for p, v, s in zip(est.p_grid, est.chi_hat, est.se):
        chord = (1 - p) * chi0 + p * chi1
        if v > chord + 3 * (s + se0 + se1):
            flags.append(f"chord bound violated at p={p}")
    spread = est.chi_hat.max() - est.chi_hat.min()
    constant = spread <= 3 * math.hypot(float(est.se.max()), float(est.se.max()))
    return ChiReport("constant" if constant else "increasing", flags)


@dataclass
class ConcentrationReport:
    mean: float
    sd: float
    fraction: float  # empirical P(|R - mean| >= lam)
    wilson: tuple  # 95% interval for the fraction
    lam: float
    reps: int


def overlap_concentration(
    alg, m: Mixture, n: int, p: float, reps: int, lam: float, seed: int
) -> ConcentrationReport:
    if reps < 30:
        raise ArgumentError(f"reps={reps} must be >= 30")
    vals = np.empty(reps)
    for r in range(reps):
        h1, h2 = pair_mixer(m, n, seed, "conc", r, label="conc{i}")(p)
        run_seed = rng.derive_seed(seed, "conc-run", r)
        vals[r] = overlap(np.asarray(alg(h1, run_seed)), np.asarray(alg(h2, run_seed)))
    if np.all(vals == vals[0]):  # identical observations: sd is exactly zero
        mean, sd = float(vals[0]), 0.0
    else:
        mean, sd = float(vals.mean()), float(vals.std(ddof=1))
    hits = int(np.sum(np.abs(vals - mean) >= lam))
    return ConcentrationReport(mean, sd, hits / reps, wilson_interval(hits, reps), lam, reps)


def wilson_interval(hits: int, total: int, z: float = 1.96) -> tuple:
    if total == 0:
        return (0.0, 1.0)
    phat = hits / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass
class BranchingReport:
    shape: TreeShape
    pladder: CorrelationLadder
    qladder: OverlapLadder
    leaf_energies: dict
    overlap_matrix: np.ndarray
    target_matrix: np.ndarray
    max_deviation: float
    grand_energy: float
    seed: int
    extension: dict | None = None  # populated when the run extends to the sphere


def run_branching_experiment(
    alg,
    m: Mixture,
    n: int,
    shape: TreeShape,
    pladder: CorrelationLadder,
    qladder: OverlapLadder,
    eta: float,
    reps: int,
    seed: int,
    chi1: float | None = None,
    extend: bool = False,
) -> list:
    """Run the algorithm on each underline-truncated leaf Hamiltonian of a
    fresh ensemble per rep; report observed overlap matrices against the
    underline target, per-leaf and grand energies, and (optionally) the
    sphere extension checked against the full target."""
    reports = []
    sub_shape, _, sub_q = underline_view(shape, pladder, qladder)
    d_ul = sub_shape.depth
    for r in range(reps):
        ens_seed = rng.derive_seed(seed, "branching", r)
        ens = sample_ensemble(m, n, shape, pladder, ens_seed)
        leaves_ul = sub_shape.leaves()
        outputs = {}
        energies = {}
        alg_seed = rng.derive_seed(ens_seed, "alg")  # one seed: A is a fixed map of H
        for u in leaves_ul:
            h_u = ens.leaf_hamiltonian(u + (1,) * (shape.depth - d_ul), depth=d_ul)
            out = np.asarray(alg(h_u, alg_seed))
            outputs[u] = out
            energies[u] = energy(h_u, out)
        k = len(leaves_ul)
        r_mat = np.empty((k, k))
        for i, u in enumerate(leaves_ul):
            for j, v in enumerate(leaves_ul):
                r_mat[i, j] = overlap(outputs[u], outputs[v])
        chi1_val = float(np.mean(np.diag(r_mat))) if chi1 is None else chi1
        q_mat = underline_target_matrix(shape, pladder, qladder, chi1_val)
        max_dev = float(np.max(np.abs(r_mat - q_mat)))
        report = BranchingReport(
            shape,
            pladder,
            qladder,
            energies,
            r_mat,
            q_mat,
            max_dev,
            float(sum(energies.values())),
            ens_seed,
        )
        if extend:
            ext = extend_to_sphere(
                ens, outputs, qladder, eta, seed=rng.derive_seed(ens_seed, "ext"), mode="sphere"
            )
            leaves = shape.leaves()
            full_q = target_overlap_matrix(shape, qladder)
            full_r = np.empty((len(leaves), len(leaves)))
            for i, u in enumerate(leaves):
                for j, v in enumerate(leaves):
                    full_r[i, j] = overlap(ext.points[u], ext.points[v])
            report.extension = {
                "points": ext.points,
                "overlap_matrix": full_r,
                "target_matrix": full_q,
                "max_deviation": float(np.max(np.abs(full_r - full_q))),
                "energy_change": ext.energy_change,
            }
        reports.append(report)
    return reports


@dataclass
class GrandMaxReport:
    best_energy: float | None  # grand energy per site, None when infeasible everywhere
    feasible: bool
    restarts: int
    penalty_final: float


def constrained_grand_max(
    ensemble: CorrelatedEnsemble,
    q_target: np.ndarray,
    m_anchor,
    eta: float,
    restarts: int,
    seed: int,
    steps: int = 120,
    lr: float = 0.05,
) -> GrandMaxReport:
    """Heuristic primal lower bound on the constrained grand maximum:
    penalized projected gradient ascent over K sphere points, quadratic
    penalties on overlap deviations and the anchor band, penalty weight
    starting at 10 and doubling on infeasibility (up to 10 escalations)."""
    leaves = ensemble.leaves()
    k = len(leaves)
    n = ensemble.n
    m_anchor = np.asarray(m_anchor, dtype=float)
    q0 = norm_n_sq(m_anchor) if m_anchor.size else 0.0
    q_target = np.asarray(q_target, dtype=float)

    leaf_hams = [ensemble.leaf_hamiltonian(u) for u in leaves]

    def ascend(penalty, start):
        sigmas = [s.copy() for s in start]
        for _ in range(steps):
            r_mat = np.array([[overlap(a, b) for b in sigmas] for a in sigmas])
            new = []
            for i, u in enumerate(leaves):
                g = gradient(leaf_hams[i], sigmas[i]) / n
                pen_grad = np.zeros(n)
                for j in range(k):
                    if j == i:
                        continue
                    dev = r_mat[i, j] - q_target[i, j]
                    excess = abs(dev) - eta
                    if excess > 0:
                        pen_grad += 2 * excess * np.sign(dev) * sigmas[j] / n
                if m_anchor.size:
                    dev = overlap(sigmas[i], m_anchor) - q0
                    excess = abs(dev) - eta
                    if excess > 0:
                        pen_grad += 2 * excess * np.sign(dev) * m_anchor / n
                step_vec = g - penalty * pen_grad
                new.append(sphere_point(sigmas[i] + lr * n * step_vec))
            sigmas = new
        return sigmas

    best = None
    penalty_final = 10.0
    for restart in range(restarts):
        gen = rng.stream(seed, "grand-max", restart)
        sigmas = [sphere_point(gen.standard_normal(n)) for _ in range(k)]
        penalty = 10.0
        for _ in range(10):
            sigmas = ascend(penalty, sigmas)
            member = constrained_membership(sigmas, q_target, m_anchor, eta, domain="sphere")
            if member.ok:
                break
            penalty *= 2.0
        penalty_final = penalty
        if member.ok:
            val = ensemble.grand_energy(sigmas) / n
            if best is None or val > best:
                best = val
    return GrandMaxReport(best, best is not None, restarts, penalty_final)
