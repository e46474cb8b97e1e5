"""Index trees, hierarchically correlated Hamiltonian ensembles, overlap
targets, and the kappa machinery.

Leaves of the depth-D tree with arm counts (k_1, ..., k_D) are 1-based tuples
(u_1, ..., u_D), enumerated lexicographically; all matrix outputs use this
order.  The Hamiltonian of a node v = (u_1, ..., u_d) at any depth d is the
weighted sum over its ancestor nodes, H[v] = sum_{j<=d} sqrt(p_j - p_{j-1})
H[(u_1..u_j)], so the Gram matrix of the leaves' weight vectors is exactly
(p_{lca depth}); once p reaches 1 at depth D_ul, the depth-D_ul nodes hold
the distinct leaf Hamiltonians.  A p-correlated pair is the
two-leaf shape (1, 2) with the ladder (0, p, 1), whose leaves are
sqrt(p) H[(1,)] + sqrt(1 - p) H[(1, i)]: the overlap experiments of `ogp`
(chi, concentration, branching) all mix disorder by this one rule.

The root has no weight (p_0 = 0) and is not a listed node, so an ensemble
samples, holds and writes to its manifest only the nodes at depth >= 1.
Their tensors are drawn in one `sample_tensors` batch, filled concurrently.
Every ladder must have the tree's depth (`check_depths`);
`CorrelationLadder.matching` is the one p = q rule.
"""

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ArgumentError, ResourceError, is_real
from .hamiltonian import (
    Hamiltonian,
    check_budget,
    energy,
    load_snapshot,
    pool_map,
    sample_hamiltonians,
    save_snapshot,
    weighted_sum,
)
from .mixture import Mixture
from .points import norm_n_sq, overlap, overlap_matrix, worst_violation


@dataclass(frozen=True)
class TreeShape:
    ks: tuple

    def __post_init__(self):
        ks = tuple(self.ks)
        if not ks or not all(is_real(k) and k >= 1 and k % 1 == 0 for k in ks):
            raise ArgumentError(f"arm counts {ks} must be positive integers")
        object.__setattr__(self, "ks", tuple(map(int, ks)))

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def n_leaves(self) -> int:
        return math.prod(self.ks)

    @property
    def n_nodes(self) -> int:
        """sum_d prod_{j<=d} k_j, the nodes at depths 1..D, counted without listing them."""
        return sum(math.prod(self.ks[:d]) for d in range(1, self.depth + 1))

    def leaves(self) -> list:
        return [tuple(u) for u in itertools.product(*(range(1, k + 1) for k in self.ks))]

    def nodes(self) -> list:
        """The nodes at depths 1..D, shallower first, each depth in
        lexicographic order; the root () is not listed."""
        out = []
        for d in range(1, self.depth + 1):
            out.extend(tuple(u) for u in itertools.product(*(range(1, k + 1) for k in self.ks[:d])))
        return out


@dataclass(frozen=True)
class CorrelationLadder:
    """0 = p_0 <= p_1 <= ... <= p_D = 1."""

    ps: tuple

    def __post_init__(self):
        if not all(map(is_real, self.ps)):
            raise ArgumentError(f"correlation ladder {self.ps} must hold real numbers")
        ps = tuple(float(p) for p in self.ps)
        if len(ps) < 2:
            raise ArgumentError("correlation ladder needs p_0 and p_D")
        if not all(map(math.isfinite, ps)):
            raise ArgumentError(f"correlation ladder {ps} must be finite")
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ArgumentError(f"correlation ladder must start at 0 and end at 1, got {ps}")
        if any(a > b for a, b in zip(ps, ps[1:])):
            raise ArgumentError(f"correlation ladder {ps} must be nondecreasing")
        object.__setattr__(self, "ps", ps)

    @property
    def depth(self) -> int:
        return len(self.ps) - 1

    @classmethod
    def matching(cls, qladder: "OverlapLadder") -> "CorrelationLadder":
        """The p-ladder of a q-ladder: p_0 = 0 and p_d = q_d for d >= 1, exactly."""
        return cls((0.0, *qladder.qs[1:]))


@dataclass(frozen=True)
class OverlapLadder:
    """0 <= q_0 < q_1 < ... < q_D = 1."""

    qs: tuple

    def __post_init__(self):
        if not all(map(is_real, self.qs)):
            raise ArgumentError(f"overlap ladder {self.qs} must hold real numbers")
        qs = tuple(float(q) for q in self.qs)
        if len(qs) < 2:
            raise ArgumentError("overlap ladder needs q_0 and q_D")
        if not all(map(math.isfinite, qs)):
            raise ArgumentError(f"overlap ladder {qs} must be finite")
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


def check_depths(shape: TreeShape, *ladders):
    """Raise ArgumentError unless every ladder has the tree's depth D."""
    for ladder in ladders:
        if ladder.depth != shape.depth:
            raise ArgumentError(
                f"depths disagree: the tree shape {shape.ks} has depth {shape.depth}, "
                f"{ladder} has depth {ladder.depth}"
            )


def leaf_weights(shape: TreeShape, ladder: CorrelationLadder, v) -> dict:
    """Node -> sqrt(p_d - p_{d-1}) over the ancestors v[:d], d = 1..|v|, of
    the node v (the root () has none), nonzero weights only.  Raises
    ArgumentError unless v is a node of the shape or the root."""
    check_depths(shape, ladder)
    v = tuple(v)
    if len(v) > shape.depth or not all(
        isinstance(a, numbers.Integral) and 1 <= a <= k for a, k in zip(v, shape.ks)
    ):
        raise ArgumentError(f"{v} is not a node of the tree shape {shape.ks}")
    ps = ladder.ps
    return {v[:d]: math.sqrt(ps[d] - ps[d - 1]) for d in range(1, len(v) + 1) if ps[d] > ps[d - 1]}


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

    def leaf_energy(self, v, x) -> float:
        """H[v](x) = <h, x> + weighted node energies at the node v (a leaf, an
        inner node or the root); no tensor is built."""
        val = self.mixture.h * float(np.sum(np.asarray(x, dtype=float)))
        for node, w in leaf_weights(self.shape, self.ladder, v).items():
            val += w * energy(self.node_hams[node], x)
        return val

    def leaf_hamiltonian(self, v) -> Hamiltonian:
        """Materialized Hamiltonian H[v] of the node v (a leaf, an inner node
        or the root), tensors summed by `weighted_sum` with the ladder weights
        of `leaf_weights`."""
        weighted = [(self.node_hams[node], w) for node, w in leaf_weights(self.shape, self.ladder, v).items()]
        tensors = {}
        for p in self.mixture.ps:
            terms = [(ham.tensors[p], w) for ham, w in weighted]
            tensors[p] = weighted_sum(terms) if terms else np.zeros((self.n,) * p)
        return Hamiltonian(self.mixture, self.n, tensors, seed=None)

    def grand_energy(self, sigmas) -> float:
        """Sum of leaf energies over the fixed lexicographic leaf order."""
        leaves = self.leaves()
        if len(sigmas) != len(leaves):
            raise ArgumentError(f"need {len(leaves)} points, got {len(sigmas)}")
        return sum(self.leaf_energy(u, x) for u, x in zip(leaves, sigmas))


def sample_ensemble(m: Mixture, n: int, shape: TreeShape, ladder: CorrelationLadder, seed: int) -> CorrelatedEnsemble:
    """The nodes at depth >= 1, drawn in one `sample_hamiltonians` batch; a
    shape whose nodes are over the budget is refused before they are listed."""
    check_depths(shape, ladder)
    field_free = Mixture(dict(m.gammas), h=0.0)
    check_budget(field_free, n, shape.n_nodes)
    nodes = shape.nodes()
    seeds = [rng.derive_seed(seed, "node", node) for node in nodes]
    hams = sample_hamiltonians(field_free, n, seeds)
    return CorrelatedEnsemble(shape, ladder, m, n, seed, dict(zip(nodes, hams)))


def target_overlap_matrix(shape: TreeShape, qladder: OverlapLadder) -> np.ndarray:
    """Q_{u, v} = q_{lca depth(u, v)}; diagonal = q_D = 1."""
    check_depths(shape, qladder)
    return np.asarray(qladder.qs)[_lca_table(shape)]


def m_matrix(shape: TreeShape, pladder: CorrelationLadder, d: int) -> np.ndarray:
    """M^d_{u, v} = 1{lca depth >= d} p_{lca depth}."""
    if not (1 <= d <= shape.depth):
        raise ArgumentError(f"level d={d} outside 1..{shape.depth}")
    check_depths(shape, pladder)
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


@dataclass
class MembershipReport:
    ok: bool
    worst_violation: float  # largest excess over the relevant allowance; <= 0 when ok
    worst_constraint: str


def constrained_membership(
    sigmas,
    q_target: np.ndarray,
    m_anchor,
    eta: float,
    domain: str = "sphere",
) -> MembershipReport:
    """Membership in the overlap-constrained set: domain per point, band
    |R(sigma, m) - q_0| <= eta with q_0 = |m|_N^2, and |R - Q|_inf <= eta.

    domain "sphere" checks |s|_N = 1; "cube" checks s in {-1, 1}^N; both
    to 1e-9.  The report is the `worst_violation` of them all: a NaN fails.
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

    r = overlap_matrix(sigmas)
    checks = []
    for i, s in enumerate(sigmas):
        if domain == "sphere":
            checks.append((abs(r[i, i] - 1.0) - 1e-9, f"sphere norm of point {i}"))
        else:
            checks.append((np.max(np.abs(np.abs(s) - 1.0)) - 1e-9, f"cube corners of point {i}"))
        if m_anchor.size:
            checks.append((abs(overlap(s, m_anchor) - q0) - eta, f"band of point {i}"))
    checks += [(abs(r[i, j] - q_target[i, j]) - eta, f"overlap ({i},{j})") for i, j in np.ndindex(k, k)]
    worst, name = worst_violation(checks)
    return MembershipReport(worst <= 0.0, worst, name)


# -- underline truncation ------------------------------------------------------


def underline_depth(pladder: CorrelationLadder) -> int:
    """D_ul, the first depth with p_d = 1: the depth-D_ul nodes hold the
    distinct leaf Hamiltonians.  At least 1, as p_0 = 0."""
    return next(d for d, p in enumerate(pladder.ps) if p >= 1.0 - 1e-15)


def underline_target_matrix(
    shape: TreeShape, pladder: CorrelationLadder, qladder: OverlapLadder, chi1: float
) -> np.ndarray:
    """Q_ul over the depth-D_ul nodes, entries q_{lca} ^ chi1 (min); the
    diagonal is q_{D_ul} ^ chi1."""
    check_depths(shape, pladder, qladder)
    sub_shape = TreeShape(shape.ks[: underline_depth(pladder)])
    return np.minimum(np.asarray(qladder.qs)[_lca_table(sub_shape)], chi1)


# -- manifest ------------------------------------------------------------------


def save_manifest(e: CorrelatedEnsemble, directory):
    """JSON manifest plus one snapshot per node at depth >= 1, referenced by
    node path; the snapshots are written concurrently by `pool_map`."""
    os.makedirs(directory, exist_ok=True)
    paths = e.shape.nodes()
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
    A shape whose nodes are over the tensor budget raises ResourceError before
    they are listed or a snapshot read.  A root entry, written by earlier
    versions, is dropped unread.  The snapshots are read and checked
    concurrently by `pool_map`; of several bad ones, the first in node order
    is reported, its error prefixed with the node path and file name."""
    try:
        with open(os.path.join(directory, "manifest.json")) as f:
            manifest = json.load(f)
        shape = TreeShape(tuple(manifest["ks"]))
        ladder = CorrelationLadder(tuple(manifest["pladder"]))
        mixture = Mixture(manifest["mixture"]["gammas"], h=manifest["mixture"]["h"])
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
    check_budget(mixture, n, shape.n_nodes, f"the manifest's {shape.n_nodes} nodes hold")
    nodes = shape.nodes()
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
