"""Index trees, hierarchically correlated Hamiltonian ensembles, overlap
targets, and the kappa machinery.

Leaves of the depth-D tree with arm counts (k_1, ..., k_D) are 1-based tuples
(u_1, ..., u_D), enumerated lexicographically; all matrix outputs use this
order.  A leaf Hamiltonian is the weighted sum over its ancestor nodes,
H[u] = sum_d sqrt(p_d - p_{d-1}) H[(u_1..u_d)], so the Gram matrix of the
weight vectors is exactly (p_{lca depth}).

The root's weight is 0 (p_0 = 0), so an ensemble samples, holds and writes
to its manifest only the nodes at depth >= 1. Their tensors are drawn in one
`sample_tensors` batch, filled concurrently.
"""

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ArgumentError, ResourceError
from .hamiltonian import (
    DEFAULT_MAX_TENSOR_ENTRIES,
    Hamiltonian,
    energy,
    load_snapshot,
    pool_map,
    sample_hamiltonians,
    save_snapshot,
    weighted_sum,
)
from .mixture import Mixture
from .points import norm_n_sq, overlap


@dataclass(frozen=True)
class TreeShape:
    ks: tuple

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if not ks or any(k < 1 for k in ks):
            raise ArgumentError(f"arm counts {ks} must be positive")
        object.__setattr__(self, "ks", ks)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def n_leaves(self) -> int:
        return math.prod(self.ks)

    def leaves(self) -> list:
        return [tuple(u) for u in itertools.product(*(range(1, k + 1) for k in self.ks))]

    def nodes(self) -> list:
        """All nodes including the root (the empty tuple), depth-first order."""
        out = [()]
        for d in range(1, self.depth + 1):
            out.extend(tuple(u) for u in itertools.product(*(range(1, k + 1) for k in self.ks[:d])))
        return out


@dataclass(frozen=True)
class CorrelationLadder:
    """0 = p_0 <= p_1 <= ... <= p_D = 1."""

    ps: tuple

    def __post_init__(self):
        ps = tuple(float(p) for p in self.ps)
        if len(ps) < 2:
            raise ArgumentError("correlation ladder needs p_0 and p_D")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ArgumentError(f"correlation ladder must start at 0 and end at 1, got {ps}")
        if any(a > b for a, b in zip(ps, ps[1:])):
            raise ArgumentError(f"correlation ladder {ps} must be nondecreasing")
        object.__setattr__(self, "ps", ps)

    @property
    def depth(self) -> int:
        return len(self.ps) - 1


@dataclass(frozen=True)
class OverlapLadder:
    """0 <= q_0 < q_1 < ... < q_D = 1."""

    qs: tuple

    def __post_init__(self):
        qs = tuple(float(q) for q in self.qs)
        if len(qs) < 2:
            raise ArgumentError("overlap ladder needs q_0 and q_D")
        if qs[0] < 0.0 or qs[-1] != 1.0:
            raise ArgumentError(f"overlap ladder must sit in [0, 1] and end at 1, got {qs}")
        if any(a >= b for a, b in zip(qs, qs[1:])):
            raise ArgumentError(f"overlap ladder {qs} must be strictly increasing")
        object.__setattr__(self, "qs", qs)

    @property
    def depth(self) -> int:
        return len(self.qs) - 1


def lca_depth(u, v) -> int:
    if len(u) != len(v):
        raise ArgumentError(f"leaves {u} and {v} come from different tree shapes")
    d = 0
    for a, b in zip(u, v):
        if a != b:
            break
        d += 1
    return d


def _lca_table(shape: TreeShape) -> np.ndarray:
    """lca_depth(u, v) over all pairs of the shape's leaves, in leaves() order."""
    paths = np.array(shape.leaves())
    return np.cumprod(paths[:, None, :] == paths[None, :, :], axis=2).sum(axis=2)


def leaf_weights(shape: TreeShape, ladder: CorrelationLadder, u, depth: int | None = None) -> dict:
    """Node -> sqrt(p_d - p_{d-1}) over the ancestors of the leaf u down to
    `depth` (default: the full depth D); the root's weight is 0.  Raises
    ArgumentError unless u is a leaf of the shape and depth lies in 0..D."""
    if ladder.depth != shape.depth:
        raise ArgumentError("shape and correlation ladder depths disagree")
    u = tuple(u)
    if len(u) != shape.depth or not all(
        isinstance(a, numbers.Integral) and 1 <= a <= k for a, k in zip(u, shape.ks)
    ):
        raise ArgumentError(f"{u} is not a leaf of the tree shape {shape.ks}")
    depth = shape.depth if depth is None else depth
    if not (isinstance(depth, numbers.Integral) and 0 <= depth <= shape.depth):
        raise ArgumentError(f"depth {depth!r} outside 0..{shape.depth}")
    ps = ladder.ps
    weights = {(): 0.0}
    for d in range(1, depth + 1):
        weights[u[:d]] = math.sqrt(max(ps[d] - ps[d - 1], 0.0))
    return weights


@dataclass(frozen=True)
class CorrelatedEnsemble:
    shape: TreeShape
    ladder: CorrelationLadder
    mixture: Mixture
    n: int
    seed: int
    node_hams: dict = field(repr=False)  # node at depth >= 1 -> field-free Hamiltonian

    def leaves(self):
        return self.shape.leaves()

    def leaf_energy(self, u, x) -> float:
        """H[u](x) = <h, x> + weighted node energies; leaf tensors never built."""
        val = self.mixture.h * float(np.sum(np.asarray(x, dtype=float)))
        for node, w in leaf_weights(self.shape, self.ladder, u).items():
            if w > 0.0:
                val += w * energy(self.node_hams[node], x)
        return val

    def leaf_hamiltonian(self, u, depth: int | None = None) -> Hamiltonian:
        """Materialized leaf (or ancestor-prefix) Hamiltonian, tensors summed
        by `weighted_sum` with the ladder weights up to `depth` (default: full
        depth)."""
        depth = self.shape.depth if depth is None else depth
        weighted = [
            (self.node_hams[node], w)
            for node, w in leaf_weights(self.shape, self.ladder, u, depth).items()
            if w != 0.0
        ]
        tensors = {}
        for p in self.mixture.ps:
            terms = [(ham.tensors[p], w) for ham, w in weighted]
            tensors[p] = weighted_sum(terms) if terms else np.zeros((self.n,) * p)
        label = f"leaf{tuple(u[:depth])}"
        return Hamiltonian(self.mixture, self.n, tensors, seed=None, label=label)

    def grand_energy(self, sigmas) -> float:
        return grand_energy(self, sigmas)


def sample_ensemble(
    m: Mixture,
    n: int,
    shape: TreeShape,
    ladder: CorrelationLadder,
    seed: int,
    max_entries: int = DEFAULT_MAX_TENSOR_ENTRIES,
) -> CorrelatedEnsemble:
    if shape.depth != ladder.depth:
        raise ArgumentError("shape and correlation ladder depths disagree")
    nodes = shape.nodes()[1:]  # the root has weight 0
    total = len(nodes) * sum(n**p for p in m.ps)
    if total > max_entries:
        raise ResourceError(
            f"ensemble needs {total} tensor entries over {len(nodes)} nodes, budget {max_entries}"
        )
    field_free = Mixture(dict(m.gammas), h=0.0)
    seeds = [rng.derive_seed(seed, "node", node) for node in nodes]
    hams = sample_hamiltonians(field_free, n, seeds, max_entries)
    return CorrelatedEnsemble(shape, ladder, m, n, seed, dict(zip(nodes, hams)))


def pair_mixer(m: Mixture, n: int, *labels, label: str = "pair{i}(p={p})"):
    """Three base Hamiltonians H_i = sample_hamiltonian(m, n,
    derive_seed(*labels, i)), drawn in one batch, and the map p -> (H1', H2')
    with Hi' = sqrt(p) H0 + sqrt(1-p) Hi: disorder coefficients of covariance
    [[1, p], [p, 1]] entrywise.  Hi' is labelled label.format(i=i, p=p)."""
    base = [
        h.tensors for h in sample_hamiltonians(m, n, [rng.derive_seed(*labels, i) for i in range(3)])
    ]

    def mix(p: float) -> tuple:
        if not (0.0 <= p <= 1.0):
            raise ArgumentError(f"correlation p={p} outside [0, 1]")
        a, b = math.sqrt(p), math.sqrt(1.0 - p)
        return tuple(
            Hamiltonian(
                m,
                n,
                {q: weighted_sum([(base[0][q], a), (base[i][q], b)]) for q in m.ps},
                label=label.format(i=i, p=p),
            )
            for i in (1, 2)
        )

    return mix


def target_overlap_matrix(shape: TreeShape, qladder: OverlapLadder) -> np.ndarray:
    """Q_{u, v} = q_{lca depth(u, v)}; diagonal = q_D = 1."""
    if qladder.depth != shape.depth:
        raise ArgumentError("shape and overlap ladder depths disagree")
    return np.asarray(qladder.qs)[_lca_table(shape)]


def m_matrix(shape: TreeShape, pladder: CorrelationLadder, d: int) -> np.ndarray:
    """M^d_{u, v} = 1{lca depth >= d} p_{lca depth}."""
    if not (1 <= d <= shape.depth):
        raise ArgumentError(f"level d={d} outside 1..{shape.depth}")
    if pladder.depth != shape.depth:
        raise ArgumentError("shape and correlation ladder depths disagree")
    lca = _lca_table(shape)
    return np.where(lca >= d, np.asarray(pladder.ps)[lca], 0.0)


def _level_of_q(qladder: OverlapLadder, q: float) -> int:
    qs = qladder.qs
    if not (qs[0] <= q < 1.0):
        raise ArgumentError(f"q={q} outside [q_0, 1) = [{qs[0]}, 1)")
    for d in range(1, qladder.depth + 1):
        if q < qs[d]:
            return d
    raise ArgumentError(f"q={q} not bracketed by the overlap ladder")


def m_of_q(shape: TreeShape, pladder: CorrelationLadder, qladder: OverlapLadder, q: float) -> np.ndarray:
    """M(q) = M^d for q in [q_{d-1}, q_d)."""
    return m_matrix(shape, pladder, _level_of_q(qladder, q))


def kappa(shape: TreeShape, pladder: CorrelationLadder, qladder: OverlapLadder, q: float) -> float:
    """kappa(q) = Sum(M(q)) / K, in closed form per level."""
    d = _level_of_q(qladder, q)
    return kappa_level(shape, pladder, d)


def kappa_level(shape: TreeShape, pladder: CorrelationLadder, d: int) -> float:
    """Closed form sum_{j=d}^{D-1} (k_{j+1} - 1) prod_{l=j+2}^D k_l p_j + p_D."""
    ks, ps, depth = shape.ks, pladder.ps, shape.depth
    if not (1 <= d <= depth):
        raise ArgumentError(f"level d={d} outside 1..{depth}")
    total = ps[depth]
    for j in range(d, depth):
        total += (ks[j] - 1) * math.prod(ks[j + 1 :]) * ps[j]
    return total


def chi_align(chi, qladder: OverlapLadder, tol: float = 1e-12) -> CorrelationLadder:
    """Correlation ladder with chi(p_d) = q_d where q_d <= chi(1), else p_d = 1.

    chi must be a correlation function: values in [0, 1], nondecreasing.
    Constant chi gets p_d = 1 for every d >= 1.
    """
    grid = np.linspace(0.0, 1.0, 257)
    vals = np.array([chi(g) for g in grid])
    if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
        raise ArgumentError("chi values leave [0, 1]")
    if np.any(np.diff(vals) < -1e-10):
        raise ArgumentError("chi(p) decreasing detected; not a correlation function")
    chi0, chi1 = float(vals[0]), float(vals[-1])
    constant = (chi1 - chi0) <= 1e-12

    ps = [0.0]
    for d in range(1, qladder.depth + 1):
        q = qladder.qs[d]
        if constant or q > chi1 + tol:
            ps.append(1.0)
            continue
        if q <= chi0 + tol:
            ps.append(0.0)
            continue
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if chi(mid) < q:
                lo = mid
            else:
                hi = mid
        p = 0.5 * (lo + hi)
        ps.append(1.0 if p > 1.0 - 10 * tol else p)
    ps = np.maximum.accumulate(ps).tolist()  # guard against bisection jitter
    return CorrelationLadder(tuple(ps))


def grand_energy(e: CorrelatedEnsemble, sigmas) -> float:
    """Sum of leaf energies over the fixed lexicographic leaf order."""
    leaves = e.leaves()
    if len(sigmas) != len(leaves):
        raise ArgumentError(f"need {len(leaves)} points, got {len(sigmas)}")
    return sum(e.leaf_energy(u, x) for u, x in zip(leaves, sigmas))


@dataclass
class MembershipReport:
    ok: bool
    worst_violation: float  # largest excess over the relevant allowance; <= 0 when ok
    worst_constraint: str

    def __bool__(self):
        return self.ok


def constrained_membership(
    sigmas,
    q_target: np.ndarray,
    m_anchor,
    eta: float,
    domain: str = "sphere",
    domain_tol: float = 1e-9,
) -> MembershipReport:
    """Membership in the overlap-constrained set: domain per point, band
    |R(sigma, m) - q_0| <= eta with q_0 = |m|_N^2, and |R - Q|_inf <= eta.

    domain "sphere" checks |s|_N = 1; "cube" checks s in {-1, 1}^N.
    """
    if domain not in ("sphere", "cube"):
        raise ArgumentError(f"unknown domain {domain!r}")
    m_anchor = np.asarray(m_anchor, dtype=float)
    q0 = norm_n_sq(m_anchor) if m_anchor.size else 0.0
    if m_anchor.size and not (0.0 <= q0 <= 1.0 + 1e-12):
        raise ArgumentError(f"|m|_N^2 = {q0} outside [0, 1]")
    sigmas = [np.asarray(s, dtype=float) for s in sigmas]
    k = len(sigmas)
    q_target = np.asarray(q_target, dtype=float)
    if q_target.shape != (k, k):
        raise ArgumentError(f"target overlap matrix has shape {q_target.shape}, want {(k, k)}")

    worst, name = -np.inf, "none"

    def track(deviation, allowance, label):
        nonlocal worst, name
        if deviation - allowance > worst:
            worst, name = deviation - allowance, label

    for i, s in enumerate(sigmas):
        if domain == "sphere":
            track(abs(norm_n_sq(s) - 1.0), domain_tol, f"sphere norm of point {i}")
        else:
            track(float(np.max(np.abs(np.abs(s) - 1.0))), domain_tol, f"cube corners of point {i}")
        if m_anchor.size:
            track(abs(overlap(s, m_anchor) - q0), eta, f"band of point {i}")
    for i in range(k):
        for j in range(k):
            dev = abs(overlap(sigmas[i], sigmas[j]) - q_target[i, j])
            track(dev, eta, f"overlap ({i},{j})")
    return MembershipReport(worst <= 0.0, worst, name)


# -- underline truncation view -------------------------------------------------


def underline_view(shape: TreeShape, pladder: CorrelationLadder, qladder: OverlapLadder):
    """Cut at the first depth with p_d = 1: returns (shape, p, q) underline
    triple.  Depth-D_ul prefixes index the distinct leaf Hamiltonians."""
    ps = pladder.ps
    d_ul = next((d for d in range(len(ps)) if ps[d] >= 1.0 - 1e-15), pladder.depth)
    if d_ul == 0:
        raise ArgumentError("p_0 = 1 is not a valid correlation ladder")
    sub_shape = TreeShape(shape.ks[:d_ul])
    sub_p = CorrelationLadder(ps[: d_ul + 1][:-1] + (1.0,))
    qs = qladder.qs[: d_ul + 1][:-1] + (1.0,)
    sub_q = OverlapLadder(qs)
    return sub_shape, sub_p, sub_q


def underline_target_matrix(
    shape: TreeShape, pladder: CorrelationLadder, qladder: OverlapLadder, chi1: float
) -> np.ndarray:
    """Q_ul with entries q_{lca} ^ chi1 (min), diagonal chi1."""
    sub_shape, _, _ = underline_view(shape, pladder, qladder)
    return np.minimum(np.asarray(qladder.qs)[_lca_table(sub_shape)], chi1)


# -- manifest ------------------------------------------------------------------


def save_manifest(e: CorrelatedEnsemble, directory):
    """JSON manifest plus one snapshot per node at depth >= 1, referenced by
    node path; the snapshots are written concurrently by `pool_map`."""
    os.makedirs(directory, exist_ok=True)
    paths = e.shape.nodes()[1:]
    fnames = ["node_" + "_".join(map(str, node)) + ".bin" for node in paths]
    pool_map(
        lambda node, fname: save_snapshot(e.node_hams[node], os.path.join(directory, fname)),
        paths,
        fnames,
    )
    nodes = [{"path": list(node), "snapshot": fname} for node, fname in zip(paths, fnames)]
    manifest = {
        "ks": list(e.shape.ks),
        "pladder": list(e.ladder.ps),
        "mixture": {"gammas": {str(p): g for p, g in e.mixture.gammas.items()}, "h": e.mixture.h},
        "n": e.n,
        "seed": e.seed,
        "nodes": nodes,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)


def load_manifest(directory) -> CorrelatedEnsemble:
    """Inverse of save_manifest.  Raises ArgumentError on non-JSON, missing or
    ill-typed keys, node paths outside the shape, repeated or missing nodes at
    depth >= 1, and snapshots whose n or mixture disagree with the manifest.
    A root entry, written by earlier versions, is dropped unread.  The
    snapshots are read and checked concurrently by `pool_map`; of several bad
    ones, the first in node order is reported, its error prefixed with the
    node path and file name."""
    try:
        with open(os.path.join(directory, "manifest.json")) as f:
            manifest = json.load(f)
        shape = TreeShape(tuple(manifest["ks"]))
        ladder = CorrelationLadder(tuple(manifest["pladder"]))
        mixture = Mixture(
            {int(p): g for p, g in manifest["mixture"]["gammas"].items()},
            h=manifest["mixture"]["h"],
        )
        n, seed = manifest["n"], manifest["seed"]
        paths = [tuple(entry["path"]) for entry in manifest["nodes"]]
        snapshots = dict(zip(paths, (str(entry["snapshot"]) for entry in manifest["nodes"])))
    except ArgumentError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArgumentError(f"malformed manifest in {directory}: {exc!r}") from exc
    if type(n) is not int or n < 1 or type(seed) is not int:
        raise ArgumentError(f"manifest n={n!r} and seed={seed!r} must be integers, n >= 1")
    if len(snapshots) != len(paths):
        raise ArgumentError("manifest lists a node more than once")
    snapshots.pop((), None)
    nodes = shape.nodes()[1:]
    known = set(nodes)
    for path in snapshots:
        if path not in known:
            raise ArgumentError(f"manifest node path {list(path)} lies outside the tree shape {shape.ks}")
    missing = [list(node) for node in nodes if node not in snapshots]
    if missing:
        raise ArgumentError(f"manifest lacks the nodes {missing}")
    field_free = Mixture(dict(mixture.gammas), h=0.0)

    def load(node):
        where = f"node {list(node)} ({snapshots[node]})"
        try:
            h = load_snapshot(os.path.join(directory, snapshots[node]))
        except (ArgumentError, ResourceError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        if h.n != n or h.mixture != field_free:
            raise ArgumentError(
                f"{where}: snapshot holds n={h.n}, {h.mixture}; the manifest gives "
                f"n={n}, {field_free}"
            )
        return h

    node_hams = dict(zip(nodes, pool_map(load, nodes)))
    return CorrelatedEnsemble(shape, ladder, mixture, n, seed, node_hams)
