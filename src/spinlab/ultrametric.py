"""Dated rooted trees, the tree-ultrametric correspondence, Euclidean
embeddings and their validation, branching depth, interval restriction, and
the greedy energy-seeking embedding: Subag's Hessian walk along each edge.

A dated rooted tree with range [a, b] carries float heights |v| in [a, b]
with |root| = a, leaves at height b, and |parent| < |child|; it keeps one
`children` map, built once, that every walk over the tree reads.  The
associated metric is d(u, v) = sqrt(|u| + |v| - 2 |lca(u, v)|); a Euclidean
embedding realizes R(i(u), i(v)) = |lca(u, v)| after the sqrt(N) scaling.
"""

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ArgumentError, ResourceError, is_real
from .hamiltonian import Hamiltonian
from .mixture import root_xi2_integral
from .optimizers import _hessian_walk, hessian_frame
from .points import norm_n_sq, orthonormal_rows, overlap_matrix, worst_violation

_H_TOL = 1e-12


@dataclass
class DatedRootedTree:
    """`parents` maps each vertex to its parent (None at the one root) and
    `heights` each vertex to a finite number, stored as a float.  The
    constructor sets `root` and `children` (vertex -> list of its children,
    in the order of `parents`) and refuses a tree that breaks the dating."""

    parents: dict  # vertex id -> parent id (root maps to None)
    heights: dict  # vertex id -> height in [a, b]

    def __post_init__(self):
        roots = [v for v, p in self.parents.items() if p is None]
        if len(roots) != 1:
            raise ArgumentError(f"need exactly one root, found {roots}")
        self.root = roots[0]
        if self.heights.keys() != self.parents.keys():
            raise ArgumentError("parents and heights must name the same vertices")
        heights = {}
        for v in self.parents:
            h = self.heights[v]
            if not is_real(h) or not math.isfinite(h):
                raise ArgumentError(f"vertex {v!r} needs a finite numeric height, got {h!r}")
            heights[v] = float(h)
        self.heights = heights
        self.children = {v: [] for v in self.parents}
        for v, p in self.parents.items():
            if p is None:
                continue
            if p not in self.children:
                raise ArgumentError(f"parent {p} of {v} is not a vertex")
            if heights[p] >= heights[v]:
                raise ArgumentError(f"|pa({v})| must be < |{v}|")
            self.children[p].append(v)
        b = self.range[1]
        for leaf in self.leaves():
            if abs(heights[leaf] - b) > _H_TOL:
                raise ArgumentError(f"leaf {leaf} not at the range maximum {b}")

    @property
    def range(self):
        return (self.heights[self.root], max(self.heights.values()))

    def vertices(self):
        return list(self.parents)

    def leaves(self):
        return [v for v, kids in self.children.items() if not kids]

    def ancestors(self, v):
        out = [v]
        while self.parents[out[-1]] is not None:
            out.append(self.parents[out[-1]])
        return out

    def lca(self, u, v):
        av = set(self.ancestors(v))
        return next(w for w in self.ancestors(u) if w in av)


def star_tree(k: int) -> DatedRootedTree:
    """Root "r" at height 0 with k leaves "l0".."l{k-1}" at height 1."""
    parents = {"r": None}
    heights = {"r": 0.0}
    for i in range(k):
        parents[f"l{i}"] = "r"
        heights[f"l{i}"] = 1.0
    return DatedRootedTree(parents, heights)


def full_binary_tree(depth: int, heights=None) -> DatedRootedTree:
    """Full binary tree; heights default to equal spacing on [0, 1]."""
    if heights is None:
        heights = [d / depth for d in range(depth + 1)]
    parents = {(): None}
    hmap = {(): heights[0]}
    frontier = [()]
    for d in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for c in (1, 2):
                u = v + (c,)
                parents[u] = v
                hmap[u] = heights[d]
                nxt.append(u)
        frontier = nxt
    return DatedRootedTree(parents, hmap)


def tree_metric(t: DatedRootedTree, u, v) -> float:
    """d(u, v) = sqrt(|u| + |v| - 2 |lca|)."""
    w = t.lca(u, v)
    val = t.heights[u] + t.heights[v] - 2.0 * t.heights[w]
    return math.sqrt(max(val, 0.0))


@dataclass
class Embedding:
    vectors: dict  # vertex -> point in R^n
    n: int


def validate_embedding(t: DatedRootedTree, emb: Embedding, tol: float = 1e-9):
    """Check the three-criterion characterization (root norm, parent-increment
    norms, pairwise increment orthogonality) AND the direct overlap law
    R(i(u), i(v)) = |lca|; both must agree.  (ok, (worst, label)) is the
    `worst_violation` of all these deviations above 0, so a NaN fails."""
    verts = t.vertices()
    missing = [v for v in verts if v not in emb.vectors]
    if missing:
        raise ArgumentError(f"embedding misses vertices {missing}")

    def increment(v):
        p = t.parents[v]
        base = emb.vectors[p] if p is not None else np.zeros(emb.n)
        return emb.vectors[v] - base

    r = overlap_matrix([emb.vectors[v] for v in verts])
    inc = overlap_matrix([increment(v) for v in verts])
    checks = [(abs(norm_n_sq(emb.vectors[t.root]) - t.heights[t.root]), "root norm")]
    for i, v in enumerate(verts):
        p = t.parents[v]
        want = t.heights[v] - (t.heights[p] if p is not None else 0.0)
        checks.append((abs(inc[i, i] - want), f"increment norm of {v}"))
    pairs = list(itertools.combinations_with_replacement(enumerate(verts), 2))
    checks += [(abs(inc[i, j]), f"increment orthogonality ({u},{v})") for (i, u), (j, v) in pairs if i < j]
    checks += [(abs(r[i, j] - t.heights[t.lca(u, v)]), f"overlap ({u},{v})") for (i, u), (j, v) in pairs]
    worst, label = worst_violation(checks, floor=0.0)
    return worst <= tol, (worst, label)


def embed_orthogonal(t: DatedRootedTree, n: int, seed: int = 0) -> Embedding:
    """Assign each vertex a fresh orthonormal increment direction (seeded
    Gaussian vectors through `orthonormal_rows`) of squared N-norm |v| -
    |pa(v)|; the root rides its own direction at squared norm a."""
    verts = t.vertices()
    if n < len(verts) + 1:
        raise ResourceError(f"n={n} too small to embed {len(verts)} vertices orthogonally")
    gen = rng.stream(seed, "embed", len(verts))
    basis = orthonormal_rows(gen.standard_normal((n, len(verts))).T, n)
    vectors = {}
    order = sorted(verts, key=lambda v: (t.heights[v], str(v)))
    for idx, v in enumerate(order):
        p = t.parents[v]
        base = vectors[p] if p is not None else np.zeros(n)
        gain = t.heights[v] - (t.heights[p] if p is not None else 0.0)
        vectors[v] = base + math.sqrt(max(gain, 0.0) * n) * basis[idx]
    return Embedding(vectors, n)


def _branching_depths(t: DatedRootedTree) -> dict:
    """D(v) of the subtree at every vertex, children before parents: the
    largest D such that the subtree contains a (subdivided) full binary tree
    of depth D; D(leaf) = 0, D(v) = max(m1, m2 + 1) over the two largest
    child values."""
    order = [t.root]
    for v in order:
        order.extend(t.children[v])
    depth = {}
    for v in reversed(order):
        # -1 stands in for a missing first or second child
        vals = sorted((depth[c] for c in t.children[v]), reverse=True) + [-1, -1]
        depth[v] = max(vals[0], vals[1] + 1)
    return depth


def branching_depth(t: DatedRootedTree) -> int:
    """D(root): the branching depth of the whole tree."""
    return _branching_depths(t)[t.root]


def branching_depth_vertices(t: DatedRootedTree) -> set:
    """V_D = {v : the subtree at v has full branching depth}."""
    depth = _branching_depths(t)
    return {v for v, d in depth.items() if d == depth[t.root]}


def restrict(t: DatedRootedTree, interval) -> list:
    """Components of the subgraph at heights in [a', b'], after subdividing
    the edges that cross a' or b' (degree-2 vertices at exact heights), in
    the order of their roots' first appearance."""
    lo, hi = float(interval[0]), float(interval[1])
    a, b = t.range
    if not (a - _H_TOL <= lo <= hi <= b + _H_TOL):
        raise ArgumentError(f"interval {interval} not inside the tree range [{a}, {b}]")

    parents = dict(t.parents)
    heights = dict(t.heights)
    for v in list(parents):
        if parents[v] is None:
            continue
        node = v  # hi first, then lo on the edge above the hi-cut
        for cut in (hi, lo):
            if heights[parents[node]] < cut - _H_TOL and heights[node] > cut + _H_TOL:
                # insert ("cut", k), the k-th cut so far, at height `cut` above node
                mid = ("cut", len(parents) - len(t.parents))
                parents[mid] = parents[node]
                parents[node] = mid
                heights[mid] = cut
                node = mid

    keep = [v for v in parents if lo - _H_TOL <= heights[v] <= hi + _H_TOL]
    kept = set(keep)
    components = {}  # topmost kept ancestor -> its kept descendants
    for v in keep:
        top = v
        while parents[top] in kept:
            top = parents[top]
        components.setdefault(top, []).append(v)
    return [
        DatedRootedTree(
            {v: (parents[v] if v != top else None) for v in members},
            {v: heights[v] for v in members},
        )
        for top, members in components.items()
    ]


# -- greedy energy embedding -----------------------------------------------------


def check_direction_budget(n: int, required: int, exact: bool = True):
    """ResourceError unless n >= required, the number of directions the
    greedy embedding of a tree takes, or a lower bound on it when not exact."""
    if n < required:
        raise ResourceError(f"direction budget exhausted: n={n} < {'' if exact else 'at least '}{required} required")


def embed_energy_greedy(h: Hamiltonian, t: DatedRootedTree, delta: float, seed: int = 0):
    """Subag ascent along each edge: every vertex, in height order, is the
    `top_eig` Hessian walk (`optimizers._hessian_walk`) from its parent's
    vector to its height, off every vertex embedded so far, so each step
    freezes all existing overlaps and the children of a branch point come
    out mutually orthogonal.  A vertex's energy is its walk's last.  A tree
    whose range leaves [0, 1] has no embedding in the unit ball and is refused.
    The walks share one `hessian_frame`; a span holds its point and the
    earlier nonzero vectors, so m = 1 + #(vertices above height 0).

    Returns (Embedding, per-vertex energies, profile) where profile maps each
    vertex to the reference threshold integral int_0^{|v|} sqrt(xi'') — a
    report only, nothing is asserted against it.
    """
    if not 0 < delta < math.inf:
        raise ArgumentError(f"step delta={delta} must be a positive finite number")
    a, b = t.range
    if a < -_H_TOL or b > 1.0 + _H_TOL:
        raise ArgumentError(f"tree range [{a}, {b}] must lie inside [0, 1] to embed")
    n = h.n
    verts = t.vertices()
    edge_steps = sum(
        max(1, math.ceil((t.heights[v] - t.heights[p]) / delta - 1e-12))
        for v, p in t.parents.items()
        if p is not None
    )
    root_steps = math.ceil(a / delta - 1e-12) if a > 0 else 0
    check_direction_budget(n, edge_steps + root_steps + len(verts) + 2)

    vectors, energies = {}, {}
    frame = hessian_frame(h, 1 + sum(t.heights[v] > 0 for v in verts))
    for v in sorted(verts, key=lambda v: (t.heights[v], str(v))):
        p = t.parents[v]
        base = vectors[p] if p is not None else np.zeros(n)
        labels = (rng.derive_seed(seed, "vertex", str(v)),)
        points, walk = _hessian_walk(h, base, t.heights[v], delta, "top_eig", labels, list(vectors.values()), frame)
        vectors[v], energies[v] = points[-1], walk[-1]
    profile = {v: root_xi2_integral(h.mixture, 0.0, t.heights[v]) for v in verts}
    return Embedding(vectors, n), energies, profile


# -- exchange format ----------------------------------------------------------------


def tree_from_json(source) -> DatedRootedTree:
    """Tree from its exchange JSON text, or from the already-decoded object:
    {"vertices": [{"id": ..., "parent": ... or null, "height": ...}, ...]}
    with unique ids and finite numeric heights."""
    try:
        payload = json.loads(source) if isinstance(source, str) else source
        vertices = payload["vertices"]
        parents = {v["id"]: v["parent"] for v in vertices}
        heights = {v["id"]: v["height"] for v in vertices}
        repeated = [i for i, count in Counter(v["id"] for v in vertices).items() if count > 1]
        if repeated:
            raise ArgumentError(f"tree vertex ids must be unique; repeated: {repeated}")
        return DatedRootedTree(parents, heights)
    except ArgumentError:
        raise
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"tree is not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(
            f"tree needs a 'vertices' list of objects with id, parent and height ({exc!r})"
        ) from None


def embedding_to_csv(emb: Embedding, path):
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["vertex"] + [f"x{i}" for i in range(emb.n)])
        for v, vec in emb.vectors.items():
            writer.writerow([str(v)] + [repr(float(c)) for c in vec])
