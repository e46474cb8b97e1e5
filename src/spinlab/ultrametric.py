"""Dated rooted trees, the tree-ultrametric correspondence, Euclidean
embeddings and their validation, branching depth, interval restriction, and
the greedy energy-seeking embedding walk.

A dated rooted tree with range [a, b] carries heights |v| in [a, b] with
|root| = a, leaves at height b, and |parent| < |child|.  The associated
metric is d(u, v) = sqrt(|u| + |v| - 2 |lca(u, v)|); a Euclidean embedding
realizes R(i(u), i(v)) = |lca(u, v)| after the sqrt(N) scaling.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .errors import ArgumentError, ResourceError
from .hamiltonian import Hamiltonian, energy
from .optimizers import subag_step
from .parisi.spherical import root_xi2_integral
from .points import norm_n_sq, overlap

_H_TOL = 1e-12


def _as_height(x):
    return x if isinstance(x, Fraction) else float(x)


@dataclass
class DatedRootedTree:
    parents: dict  # vertex id -> parent id (root maps to None)
    heights: dict  # vertex id -> height in [a, b]
    root: object = None

    def __post_init__(self):
        roots = [v for v, p in self.parents.items() if p is None]
        if len(roots) != 1:
            raise ArgumentError(f"need exactly one root, found {roots}")
        if self.root is None:
            self.root = roots[0]
        self.heights = {v: _as_height(h) for v, h in self.heights.items()}
        a, b = self.range
        if abs(float(self.heights[self.root]) - float(a)) > _H_TOL:
            raise ArgumentError("root height must equal the range minimum")
        for v, p in self.parents.items():
            if p is None:
                continue
            if p not in self.parents:
                raise ArgumentError(f"parent {p} of {v} is not a vertex")
            if float(self.heights[p]) >= float(self.heights[v]):
                raise ArgumentError(f"|pa({v})| must be < |{v}|")
        for leaf in self.leaves():
            if abs(float(self.heights[leaf]) - float(b)) > _H_TOL:
                raise ArgumentError(f"leaf {leaf} not at the range maximum {b}")

    @property
    def range(self):
        return (self.heights[self.root], max(self.heights.values(), key=float))

    def vertices(self):
        return list(self.parents)

    def children(self, v):
        return [u for u, p in self.parents.items() if p == v]

    def leaves(self):
        have_child = set(self.parents.values())
        return [v for v in self.parents if v not in have_child]

    def ancestors(self, v):
        out = [v]
        while self.parents[out[-1]] is not None:
            out.append(self.parents[out[-1]])
        return out

    def lca(self, u, v):
        au = self.ancestors(u)
        av = set(self.ancestors(v))
        for w in au:
            if w in av:
                return w
        raise ArgumentError("vertices share no ancestor")

    def reduced(self) -> "DatedRootedTree":
        """Remove single-child vertices (except possibly the root)."""
        parents = dict(self.parents)
        heights = dict(self.heights)
        changed = True
        while changed:
            changed = False
            for v in list(parents):
                if v == self.root:
                    continue
                kids = [u for u, p in parents.items() if p == v]
                if len(kids) == 1:
                    parents[kids[0]] = parents[v]
                    del parents[v]
                    del heights[v]
                    changed = True
                    break
        return DatedRootedTree(parents, heights, self.root)


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
    val = float(t.heights[u]) + float(t.heights[v]) - 2.0 * float(t.heights[w])
    return math.sqrt(max(val, 0.0))


@dataclass
class Embedding:
    vectors: dict  # vertex -> point in R^n
    n: int


def validate_embedding(t: DatedRootedTree, emb: Embedding, tol: float = 1e-9):
    """Check the three-criterion characterization (root norm, parent-increment
    norms, pairwise increment orthogonality) AND the direct overlap law
    R(i(u), i(v)) = |lca|; both must agree."""
    missing = [v for v in t.vertices() if v not in emb.vectors]
    if missing:
        raise ArgumentError(f"embedding misses vertices {missing}")

    worst, label = 0.0, "none"

    def track(dev, name):
        nonlocal worst, label
        if dev > worst:
            worst, label = dev, name

    a = float(t.heights[t.root])
    track(abs(norm_n_sq(emb.vectors[t.root]) - a), "root norm")

    def increment(v):
        p = t.parents[v]
        base = emb.vectors[p] if p is not None else np.zeros(emb.n)
        return emb.vectors[v] - base

    verts = t.vertices()
    for v in verts:
        p = t.parents[v]
        want = float(t.heights[v]) - (float(t.heights[p]) if p is not None else 0.0)
        track(abs(norm_n_sq(increment(v)) - want), f"increment norm of {v}")
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            track(abs(overlap(increment(u), increment(v))), f"increment orthogonality ({u},{v})")
    for i, u in enumerate(verts):
        for v in verts[i:]:
            want = float(t.heights[t.lca(u, v)])
            track(abs(overlap(emb.vectors[u], emb.vectors[v]) - want), f"overlap ({u},{v})")
    return worst <= tol, (worst, label)


def embed_orthogonal(t: DatedRootedTree, n: int, seed: int = 0) -> Embedding:
    """Assign each vertex a fresh orthonormal increment direction (from a
    seeded random basis) of squared N-norm |v| - |pa(v)|; the root rides its
    own direction at squared norm a."""
    verts = t.vertices()
    if n < len(verts) + 1:
        raise ResourceError(f"n={n} too small to embed {len(verts)} vertices orthogonally")
    gen = rng.stream(seed, "embed", len(verts))
    basis = np.linalg.qr(gen.standard_normal((n, len(verts))))[0].T  # rows orthonormal
    vectors = {}
    order = sorted(verts, key=lambda v: (float(t.heights[v]), str(v)))
    for idx, v in enumerate(order):
        p = t.parents[v]
        base = vectors[p] if p is not None else np.zeros(n)
        gain = float(t.heights[v]) - (float(t.heights[p]) if p is not None else 0.0)
        vectors[v] = base + math.sqrt(max(gain, 0.0) * n) * basis[idx]
    return Embedding(vectors, n)


def branching_depth(t: DatedRootedTree) -> int:
    """Largest D such that the tree contains a (subdivided) full binary tree
    of depth D: D(leaf) = 0, D(v) = max(m1, m2 + 1) over the two largest
    child values."""
    depth = {}
    for v in sorted(t.vertices(), key=lambda v: -float(t.heights[v])):
        kids = t.children(v)
        if not kids:
            depth[v] = 0
            continue
        vals = sorted((depth[c] for c in kids), reverse=True)
        depth[v] = vals[0] if len(vals) == 1 else max(vals[0], vals[1] + 1)
    return depth[t.root]


def branching_depth_vertices(t: DatedRootedTree) -> set:
    """V_D = {v : the subtree at v has full branching depth}."""
    total = branching_depth(t)
    out = set()
    for v in t.vertices():
        sub = _subtree(t, v)
        if branching_depth(sub) == total:
            out.add(v)
    return out


def _subtree(t: DatedRootedTree, v) -> DatedRootedTree:
    keep = {v}
    changed = True
    while changed:
        changed = False
        for u, p in t.parents.items():
            if p in keep and u not in keep:
                keep.add(u)
                changed = True
    parents = {u: (t.parents[u] if u != v else None) for u in keep}
    heights = {u: t.heights[u] for u in keep}
    # a subtree of a dated tree is dated with range [|v|, b]; leaves unchanged
    return DatedRootedTree(parents, heights, root=v)


def restrict(t: DatedRootedTree, interval) -> list:
    """Components of the subgraph at heights in [a', b'], after subdividing
    the edges that cross a' or b' (degree-2 vertices at exact heights)."""
    lo, hi = interval
    a, b = (float(t.heights[t.root]), max(float(h) for h in t.heights.values()))
    if not (a - _H_TOL <= float(lo) <= float(hi) <= b + _H_TOL):
        raise ArgumentError(f"interval {interval} not inside the tree range [{a}, {b}]")

    parents = dict(t.parents)
    heights = dict(t.heights)
    counter = [0]

    def subdivide(v, height):
        """Insert a vertex at `height` on the edge above v; return its id."""
        mid = ("cut", counter[0])
        counter[0] += 1
        parents[mid] = parents[v]
        parents[v] = mid
        heights[mid] = height
        return mid

    for v in list(parents):
        if parents[v] is None:
            continue
        node = v  # hi first, then lo on the edge above the hi-cut
        for cut in (hi, lo):
            hp, hv = float(heights[parents[node]]), float(heights[node])
            if hp < float(cut) - _H_TOL and hv > float(cut) + _H_TOL:
                node = subdivide(node, cut)

    keep = {v for v in parents if float(lo) - _H_TOL <= float(heights[v]) <= float(hi) + _H_TOL}
    comp_roots = [v for v in keep if parents[v] not in keep]
    forest = []
    for root in comp_roots:
        members = {root}
        changed = True
        while changed:
            changed = False
            for v in keep:
                if parents[v] in members and v not in members:
                    members.add(v)
                    changed = True
        sub_par = {v: (parents[v] if v != root else None) for v in members}
        sub_h = {v: heights[v] for v in members}
        forest.append(DatedRootedTree(sub_par, sub_h, root=root))
    return forest


# -- greedy energy embedding -----------------------------------------------------


def embed_energy_greedy(h: Hamiltonian, t: DatedRootedTree, delta: float, seed: int = 0):
    """Walk the tree root-to-leaves taking sqrt(delta N)-sized steps along the
    top eigenvector of the Hessian restricted to the orthogonal complement of
    all current iterates (and finished vertices); branch points spawn children
    whose first steps come out mutually orthogonal automatically.

    Returns (Embedding, per-vertex energies, profile) where profile maps each
    vertex to the reference threshold integral int_0^{|v|} sqrt(xi'') — a
    report only, nothing is asserted against it.
    """
    n = h.n
    verts = t.vertices()
    edge_steps = sum(
        max(1, math.ceil((float(t.heights[v]) - float(t.heights[p])) / delta - 1e-12))
        for v, p in t.parents.items()
        if p is not None
    )
    root_h = float(t.heights[t.root])
    root_steps = math.ceil(root_h / delta - 1e-12) if root_h > 0 else 0
    if n < edge_steps + root_steps + len(verts) + 2:
        raise ResourceError(
            f"direction budget exhausted: n={n} < {edge_steps + root_steps + len(verts) + 2} required"
        )

    vectors = {}
    energies = {}
    order = sorted(verts, key=lambda v: (float(t.heights[v]), str(v)))

    def step_chain(x, target_sq, others, step_seed):
        # every step is orthogonal to the running iterate AND to every
        # embedded vertex vector, which freezes all existing overlaps
        # each Lanczos solve after the first starts from the previous step
        i, v = 0, None
        while norm_n_sq(x) < target_sq - 1e-12:
            gain = min(delta, target_sq - norm_n_sq(x))
            _e, v = subag_step(
                h, x, "top_eig", delta, rng.derive_seed(step_seed, i), start=v, others=others
            )
            x = x + math.sqrt(gain * n) * v
            i += 1
        return x

    for v in order:
        p = t.parents[v]
        base = vectors[p] if p is not None else np.zeros(n)
        others = list(vectors.values())
        x = step_chain(
            base.copy(), float(t.heights[v]), others, rng.derive_seed(seed, "vertex", str(v))
        )
        vectors[v] = x
        energies[v] = energy(h, x)
    profile = {v: root_xi2_integral(h.mixture, 0.0, float(t.heights[v])) for v in verts}
    return Embedding(vectors, n), energies, profile


# -- exchange format ----------------------------------------------------------------


def tree_from_json(source) -> DatedRootedTree:
    """Tree from its exchange JSON text, or from the already-decoded object:
    {"vertices": [{"id": ..., "parent": ... or null, "height": ...}, ...]}."""
    try:
        payload = json.loads(source) if isinstance(source, str) else source
        parents = {v["id"]: v["parent"] for v in payload["vertices"]}
        heights = {v["id"]: float(v["height"]) for v in payload["vertices"]}
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"tree is not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(
            f"tree needs a 'vertices' list of objects with id, parent and height ({exc!r})"
        ) from None
    return DatedRootedTree(parents, heights)


def embedding_to_csv(emb: Embedding, path):
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["vertex"] + [f"x{i}" for i in range(emb.n)])
        for v, vec in emb.vectors.items():
            writer.writerow([str(v)] + [repr(float(c)) for c in vec])
