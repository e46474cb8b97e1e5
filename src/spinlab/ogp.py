"""Empirical correlation functions, overlap-concentration measurement, and
branching experiments comparing observed overlap structures and grand
energies against targets and interpolation bounds, and the primal side of
the sandwich: the constrained grand maximum from below, by ascent over
frames whose leaf points meet every target overlap exactly.

Algorithms are callables alg(hamiltonian, seed) -> point in B_N (or C_N),
each a pure function of (H, seed): equal disorder tensors and seed give a
bit-equal point, so a pair of bit-identical Hamiltonians is run once.
The branching experiment runs them on H[u] of each depth-D_ul node u, by
the one node rule of `ensembles`.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .ensembles import (
    CorrelatedEnsemble,
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    check_depths,
    constrained_membership,
    sample_ensemble,
    target_overlap_matrix,
    underline_depth,
    underline_target_matrix,
)
from .errors import ArgumentError, ResourceError
from .hamiltonian import (
    check_budget,
    check_entries,
    derivatives,
    energy,
    pool_map,
    replica_width,
    sample_hamiltonians,
    tensor_entries,
)
from .mixture import Mixture
from .optimizers import extend_to_sphere
from .points import norm_n_sq, orthonormal_rows, overlap, overlap_matrix, worst_violation


@dataclass
class ChiEstimate:
    p_grid: tuple
    chi_hat: np.ndarray
    se: np.ndarray

    def at(self, p: float) -> float:
        idx = self.p_grid.index(p)
        return float(self.chi_hat[idx])


def _pair_ensemble(m: Mixture, n: int, *labels) -> CorrelatedEnsemble:
    """A p-correlated pair: the ensemble of shape (1, 2) whose nodes hold the
    field-free H_i of derive_seed(*labels, i), i = 0, 1, 2, in node order.
    Re-laddered to (0, p, 1), its leaves are sqrt(p) H_0 + sqrt(1 - p) H_i."""
    shape = TreeShape((1, 2))
    seeds = [rng.derive_seed(*labels, i) for i in range(3)]
    hams = dict(zip(shape.nodes(), sample_hamiltonians(Mixture(dict(m.gammas), h=0.0), n, seeds)))
    return CorrelatedEnsemble(shape, CorrelationLadder((0.0, 0.0, 1.0)), m, n, rng.derive_seed(*labels), hams)


def _pair_overlaps(alg, m: Mixture, n: int, p_grid, reps: int, seed: int, tag: str) -> np.ndarray:
    """[r, j] = R(A(H1), A(H2)) at p_grid[j]: rep r re-ladders one
    `_pair_ensemble(m, n, seed, tag, r)` over the grid and runs alg on both
    leaves at derive_seed(seed, tag + "-run", r).  At p = 1 the leaves are
    bit-identical to H_0, so one is built, A runs once and R(x, x) is taken.
    The reps run on `pool_map`, each holding three node tensors and two
    leaves, which must fit the budget before any rep samples."""
    ladders = [CorrelationLadder((0.0, p, 1.0)) for p in p_grid]
    check_budget(m, n, 5, "a rep's 3 nodes and 2 leaves hold")

    def one_rep(r):
        ens = _pair_ensemble(m, n, seed, tag, r)
        run_seed = rng.derive_seed(seed, f"{tag}-run", r)
        row = []
        for p, ladder in zip(p_grid, ladders):
            pair = replace(ens, ladder=ladder)
            x1 = np.asarray(alg(pair.leaf_hamiltonian((1, 1)), run_seed))
            x2 = x1 if p == 1.0 else np.asarray(alg(pair.leaf_hamiltonian((1, 2)), run_seed))
            row.append(overlap(x1, x2))
        return row

    width = replica_width(reps, 5 * tensor_entries(m, n))
    return np.array(pool_map(one_rep, range(reps), workers=width))


def estimate_chi(alg, m: Mixture, n: int, p_grid, reps: int, seed: int) -> ChiEstimate:
    """chi(p) = E R(A(H1), A(H2)) over p-correlated pairs, the leaves of a
    two-leaf ensemble whose shared node H_0 is reused across the p-grid
    (antithetic sweep, unbiased per p).  At p = 1 both leaves equal H_0, and
    the algorithm runs once."""
    if reps < 10:
        raise ArgumentError(f"reps={reps} must be >= 10")
    p_grid = tuple(float(p) for p in p_grid)
    values = _pair_overlaps(alg, m, n, p_grid, reps, seed, "chi")
    chi_hat = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(reps)
    return ChiEstimate(p_grid, chi_hat, se)


@dataclass
class ChiReport:
    classification: str  # "constant" | "increasing"
    flags: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.flags


def check_chi_grid(p_grid):
    """The grid `check_chi_properties` needs, checked before any run."""
    if len(p_grid) < 3 or 0.0 not in p_grid or 1.0 not in p_grid or not all(0 <= p <= 1 for p in p_grid):
        raise ArgumentError("need at least 3 grid points in [0, 1], including p = 0 and p = 1")


def check_chi_properties(est: ChiEstimate) -> ChiReport:
    """Flag statistically significant (3 SE) violations of: range in
    [0, chi(1)] within [0, 1]; a monotone trend; the chord bound
    chi(p) <= (1-p) chi(0) + p chi(1)."""
    check_chi_grid(est.p_grid)
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
    vals = _pair_overlaps(alg, m, n, (p,), reps, seed, "conc")[:, 0]
    if np.all(vals == vals[0]):  # identical observations: sd is exactly zero
        mean, sd = float(vals[0]), 0.0
    else:
        mean, sd = float(vals.mean()), float(vals.std(ddof=1))
    hits = int(np.sum(np.abs(vals - mean) >= lam))
    return ConcentrationReport(mean, sd, hits / reps, wilson_interval(hits, reps), lam, reps)


def wilson_interval(hits: int, total: int) -> tuple:
    """The 95 % Wilson score interval for hits / total."""
    z = 1.96
    if total == 0:
        return (0.0, 1.0)
    phat = hits / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass
class BranchingReport:
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
    """Run the algorithm on the Hamiltonian H[u] of each depth-D_ul
    (underline) node u of a fresh ensemble per rep; report observed overlap
    matrices against the underline target, per-node and grand energies, and
    (optionally) the sphere extension checked against the full target.
    `eta` is not read: the sphere extension takes no gap (only the Ising one
    does).  Within a rep, the underline nodes (build H[u], run alg, take its
    energy) run on `pool_map`, each holding its Hamiltonian beside the
    ensemble: the nodes and one leaf, then the two K_ul x K_ul matrices and
    their K_ul x K_ul x D_ul lca comparison (and with `extend` those of all
    K leaves), must fit the budget, and both ladders the tree's depth, before
    the first rep samples."""
    check_depths(shape, pladder, qladder)
    reports = []
    nodes = shape.n_nodes
    check_budget(m, n, nodes + 1, f"{nodes} nodes and a leaf hold")
    ul = TreeShape(shape.ks[: underline_depth(pladder)])
    for tree, what in [(ul, "underline nodes")] + [(shape, "leaves")] * extend:
        check_entries((2 + tree.depth) * tree.n_leaves**2, f"the overlap matrices of {tree.n_leaves} {what} hold")
    leaves_ul = ul.leaves()
    leaf_entries = tensor_entries(m, n)
    width = replica_width(len(leaves_ul), leaf_entries, held=nodes * leaf_entries)
    for r in range(reps):
        ens_seed = rng.derive_seed(seed, "branching", r)
        ens = sample_ensemble(m, n, shape, pladder, ens_seed)
        alg_seed = rng.derive_seed(ens_seed, "alg")  # one seed: A is a fixed map of H

        def one_leaf(u):
            h_u = ens.leaf_hamiltonian(u)
            out = np.asarray(alg(h_u, alg_seed))
            return out, energy(h_u, out)

        runs = pool_map(one_leaf, leaves_ul, workers=width)
        outputs = {u: out for u, (out, _e) in zip(leaves_ul, runs)}
        energies = {u: e for u, (_out, e) in zip(leaves_ul, runs)}
        r_mat = overlap_matrix([outputs[u] for u in leaves_ul])
        chi1_val = float(np.mean(np.diag(r_mat))) if chi1 is None else chi1
        q_mat = underline_target_matrix(shape, pladder, qladder, chi1_val)
        max_dev, _ = worst_violation((d, None) for d in np.abs(r_mat - q_mat).flat)
        report = BranchingReport(energies, r_mat, q_mat, max_dev, float(sum(energies.values())), ens_seed)
        if extend:
            ext = extend_to_sphere(
                ens, outputs, qladder, eta, seed=rng.derive_seed(ens_seed, "ext"), mode="sphere"
            )
            leaves = shape.leaves()
            full_q = target_overlap_matrix(shape, qladder)
            full_r = overlap_matrix([ext.points[u] for u in leaves])
            report.extension = {
                "points": ext.points,
                "overlap_matrix": full_r,
                "target_matrix": full_q,
                "max_deviation": worst_violation((d, None) for d in np.abs(full_r - full_q).flat)[0],
                "energy_change": ext.energy_change,
            }
        reports.append(report)
    return reports


def check_grand_max_budget(m: Mixture, n: int, shape: TreeShape, pladder: CorrelationLadder):
    """The nodes at depth >= 1 and the K_ul distinct leaves, one per depth-D_ul
    node, that `constrained_grand_max` holds at once must fit the budget, and
    its frame of K rows beside the anchor needs n >= K + 1; a run asks first."""
    nodes, k = shape.n_nodes, shape.n_leaves
    k_ul = math.prod(shape.ks[: underline_depth(pladder)])
    check_budget(m, n, nodes + k_ul, f"{nodes} nodes and {k_ul} leaves hold")
    if n < k + 1:
        raise ResourceError(f"n={n} too small for a frame of {k} leaves beside the anchor (need n >= {k + 1})")


@dataclass
class GrandMaxReport:
    best_energy: float | None  # grand energy per site at eta = 0, None when no start is a member
    feasible: bool


def constrained_grand_max(
    ensemble: CorrelatedEnsemble,
    q_target: np.ndarray,
    m_anchor,
    eta: float,
    restarts: int,
    seed: int,
    steps: int = 120,
) -> GrandMaxReport:
    """Primal lower bound on the constrained grand maximum by frame ascent:
    sigma_i = m + coef_i U, with coef = sqrt(n) V sqrt(Lambda) from the eigh
    of Q - |m|_N^2 and U K orthonormal rows orthogonal to the anchor m, meets
    every target overlap and the anchor band exactly, so its value at
    eta = 0 lower-bounds the band maximum at every eta.  Each restart ascends
    one random frame on the Stiefel manifold by `steps` tangent steps,
    retracted by `orthonormal_rows`; the step starts at 0.25 and halves, the
    step rejected, whenever the grand energy falls; the leaves below a
    depth-D_ul node share its Hamiltonian.  `constrained_membership` gives
    the verdict, after `check_grand_max_budget`."""
    n, k = ensemble.n, ensemble.shape.n_leaves
    check_grand_max_budget(ensemble.mixture, n, ensemble.shape, ensemble.ladder)
    m_anchor = np.asarray(m_anchor, dtype=float)
    anchor = m_anchor if m_anchor.size else np.zeros(n)
    lam, vecs = np.linalg.eigh(np.asarray(q_target, dtype=float) - norm_n_sq(anchor))
    coef = math.sqrt(n) * vecs * np.sqrt(np.maximum(lam, 0.0))
    d_ul = underline_depth(ensemble.ladder)
    distinct = {v: ensemble.leaf_hamiltonian(v) for v in TreeShape(ensemble.shape.ks[:d_ul]).leaves()}
    leaf_hams = [distinct[u[:d_ul]] for u in ensemble.leaves()]

    def frame(rows):
        return orthonormal_rows([anchor, *rows], n)[-k:]

    def climb(u):
        """The grand energy at the frame u and its gradient G in u."""
        parts = [derivatives(h, anchor + c @ u, 1) for h, c in zip(leaf_hams, coef)]
        return sum(e for e, _ in parts), coef.T @ np.array([g for _, g in parts]) / n

    best = None
    for restart in range(restarts):
        u = frame(rng.stream(seed, "grand-max", restart).standard_normal((k, n)))
        value, grad = climb(u)
        lr = 0.25
        for _ in range(steps):
            trial = frame(u + lr * (grad - 0.5 * (grad @ u.T + u @ grad.T) @ u))
            trial_value, trial_grad = climb(trial)
            if trial_value < value:
                lr /= 2
            else:
                u, value, grad = trial, trial_value, trial_grad
        if constrained_membership(anchor + coef @ u, q_target, m_anchor, eta, domain="sphere").ok:
            best = value / n if best is None else max(best, value / n)
    return GrandMaxReport(best, best is not None)
