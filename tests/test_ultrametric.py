import itertools
import json
import math

import numpy as np
import pytest

from spinlab import rng
from spinlab.acceptance import _brute_branching, _tree_from_parents
from spinlab.errors import ArgumentError, ResourceError
from spinlab.hamiltonian import DEFAULT_DENSE_HESSIAN_CAP, sample_hamiltonian
from spinlab.mixture import pure
from spinlab.optimizers import subag_ascent
from spinlab.points import norm_n_sq, overlap
from spinlab.ultrametric import (
    DatedRootedTree,
    branching_depth,
    branching_depth_vertices,
    embed_energy_greedy,
    embed_orthogonal,
    full_binary_tree,
    restrict,
    star_tree,
    tree_from_json,
    tree_metric,
    validate_embedding,
)


def chain_tree(heights) -> DatedRootedTree:
    """Path r -> v1 -> ... -> leaf at the given increasing heights."""
    ids = list(range(len(heights)))
    parents = {0: None}
    for i in ids[1:]:
        parents[i] = i - 1
    return DatedRootedTree(parents, dict(zip(ids, heights)))


def test_tree_invariants():
    with pytest.raises(ArgumentError):
        DatedRootedTree({"a": None, "b": "a"}, {"a": 0.5, "b": 0.2})
    with pytest.raises(ArgumentError):
        DatedRootedTree({"a": None, "b": None}, {"a": 0.0, "b": 0.0})
    t = DatedRootedTree({"r": None, "m": "r", "x": "m", "y": "r"}, {"r": 0, "m": 0.5, "x": 1, "y": 1})
    assert t.root == "r" and t.children == {"r": ["m", "y"], "m": ["x"], "x": [], "y": []}
    assert all(type(h) is float for h in t.heights.values()) and t.leaves() == ["x", "y"]


@pytest.mark.parametrize(
    "heights",
    (
        {"r": 0.0, "a": math.nan},
        {"r": 0.0, "a": math.inf},
        {"r": -math.inf, "a": 1.0},
        {"r": 0.0, "a": "1"},
        {"r": 0.0, "a": None},
        {"r": 0.0, "a": True},
        {"r": 0.0},
        {"r": 0.0, "a": 1.0, "b": 1.0},
    ),
)
def test_tree_refuses_a_missing_non_numeric_or_non_finite_height(heights):
    with pytest.raises(ArgumentError):
        DatedRootedTree({"r": None, "a": "r"}, heights)


def test_tree_metric_examples():
    t = star_tree(3)
    assert tree_metric(t, "l0", "l0") == 0.0
    assert tree_metric(t, "l0", "l1") == pytest.approx(math.sqrt(2.0))
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    leaves = bt.leaves()
    u, v = (1, 1), (1, 2)
    assert tree_metric(bt, u, v) == pytest.approx(math.sqrt(2 * (1 - 0.5)))


def test_tree_metric_ultrametric_inequality(gen):
    for trial in range(10):
        nverts = int(gen.integers(3, 10))
        t = _tree_from_parents([int(gen.integers(0, i)) for i in range(1, nverts)])
        leaves = t.leaves()
        for u, v, w in itertools.permutations(leaves, 3):
            assert tree_metric(t, u, w) <= max(tree_metric(t, u, v), tree_metric(t, v, w)) + 1e-12


def test_tree_metric_ultrametric_inequality_large():
    gen2 = __import__("spinlab").rng.stream(99, "big-tree")
    t = _tree_from_parents([int(gen2.integers(0, i)) for i in range(1, 64)])
    leaves = t.leaves()[:24]
    dists = {(u, v): tree_metric(t, u, v) for u in leaves for v in leaves}
    for u in leaves:
        for v in leaves:
            for w in leaves:
                assert dists[(u, w)] <= max(dists[(u, v)], dists[(v, w)]) + 1e-12


def test_embed_orthogonal_chain():
    t = chain_tree([0.0, 0.3, 0.7, 1.0])
    emb = embed_orthogonal(t, 12, seed=1)
    ok, _ = validate_embedding(t, emb, tol=1e-9)
    assert ok
    for v in t.vertices():
        assert norm_n_sq(emb.vectors[v]) == pytest.approx(float(t.heights[v]), abs=1e-12)


def test_embed_orthogonal_binary_and_degenerate():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    emb = embed_orthogonal(bt, 16, seed=2)
    ok, _ = validate_embedding(bt, emb, tol=1e-9)
    assert ok
    leaves = bt.leaves()
    for u in leaves:
        for v in leaves:
            want = float(bt.heights[bt.lca(u, v)])
            assert overlap(emb.vectors[u], emb.vectors[v]) == pytest.approx(want, abs=1e-9)
    single = DatedRootedTree({"r": None}, {"r": 0.7})
    emb = embed_orthogonal(single, 4, seed=0)
    assert norm_n_sq(emb.vectors["r"]) == pytest.approx(0.7)
    ok, _ = validate_embedding(single, emb)
    assert ok


def test_embed_orthogonal_resource_guard():
    with pytest.raises(ResourceError):
        embed_orthogonal(star_tree(5), 4, seed=0)


def test_validate_detects_perturbation():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    emb = embed_orthogonal(bt, 16, seed=3)
    leaf = bt.leaves()[0]
    other = bt.leaves()[1]
    direction = emb.vectors[other] / np.linalg.norm(emb.vectors[other])
    emb.vectors[leaf] = emb.vectors[leaf] + 0.1 * math.sqrt(16) * direction
    ok, (worst, label) = validate_embedding(bt, emb)
    assert not ok and worst > 1e-6


def test_validate_fails_a_nan_coordinate():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    emb = embed_orthogonal(bt, 16, seed=3)
    ok, (worst, label) = validate_embedding(bt, emb, tol=1e-9)
    assert ok and 0.0 <= worst <= 1e-9
    leaf = bt.leaves()[2]
    emb.vectors[leaf] = emb.vectors[leaf].copy()
    emb.vectors[leaf][5] = np.nan
    ok, (worst, label) = validate_embedding(bt, emb, tol=1e-9)
    assert not ok and math.isnan(worst)
    assert label == f"increment norm of {leaf}"  # the first check that reads the leaf


def test_increment_gram_diagonal():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    emb = embed_orthogonal(bt, 16, seed=4)
    incs = []
    for v in bt.vertices():
        p = bt.parents[v]
        base = emb.vectors[p] if p is not None else np.zeros(16)
        incs.append(emb.vectors[v] - base)
    gram = np.array([[a @ b for b in incs] for a in incs])
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10 * 16


def test_branching_depth_examples():
    assert branching_depth(chain_tree([0.0, 0.5, 1.0])) == 0
    assert branching_depth(star_tree(4)) == 1
    assert branching_depth(full_binary_tree(3)) == 3


def test_branching_depth_brute_force_small():
    count = 0
    for nverts in range(2, 8):
        for parent_list in itertools.product(*[range(i) for i in range(1, nverts)]):
            t = _tree_from_parents(list(parent_list))
            assert branching_depth(t) == _brute_branching(list(parent_list))
            count += 1
    assert count > 100


def oracle_subtree(t: DatedRootedTree, v) -> DatedRootedTree:
    """The subtree at v, rebuilt and re-validated by a fixpoint closure."""
    keep = {v}
    changed = True
    while changed:
        changed = False
        for u, p in t.parents.items():
            if p in keep and u not in keep:
                keep.add(u)
                changed = True
    parents = {u: (t.parents[u] if u != v else None) for u in keep}
    return DatedRootedTree(parents, {u: t.heights[u] for u in keep})


def oracle_branching_depth_vertices(t: DatedRootedTree) -> set:
    """V_D by definition: every v whose rebuilt subtree has the full depth."""
    total = branching_depth(t)
    return {v for v in t.vertices() if branching_depth(oracle_subtree(t, v)) == total}


def oracle_restrict(t: DatedRootedTree, interval) -> list:
    """Restriction by subdividing the crossing edges and growing each
    component from its root by a fixpoint loop."""
    lo, hi = interval
    parents = dict(t.parents)
    heights = dict(t.heights)
    counter = [0]

    def subdivide(v, height):
        mid = ("cut", counter[0])
        counter[0] += 1
        parents[mid] = parents[v]
        parents[v] = mid
        heights[mid] = height
        return mid

    for v in list(parents):
        if parents[v] is None:
            continue
        node = v
        for cut in (hi, lo):
            hp, hv = heights[parents[node]], heights[node]
            if hp < cut - 1e-12 and hv > cut + 1e-12:
                node = subdivide(node, cut)

    keep = {v for v in parents if lo - 1e-12 <= heights[v] <= hi + 1e-12}
    forest = []
    for root in [v for v in keep if parents[v] not in keep]:
        members = {root}
        changed = True
        while changed:
            changed = False
            for v in keep:
                if parents[v] in members and v not in members:
                    members.add(v)
                    changed = True
        sub_par = {v: (parents[v] if v != root else None) for v in members}
        forest.append(DatedRootedTree(sub_par, {v: heights[v] for v in members}))
    return forest


def _canonical_forest(forest):
    # components and their vertices in a fixed order; heights by exact repr
    return sorted(
        repr((sorted(map(repr, t.parents.items())), sorted(map(repr, t.heights.items()))))
        for t in forest
    )


def _random_dated_tree(gen):
    """Up to 12 vertices, leaves at 1, each inner vertex strictly between
    its parent and 1 at a random fraction of the gap."""
    nverts = int(gen.integers(2, 13))
    parents = {0: None}
    for i in range(1, nverts):
        parents[i] = int(gen.integers(0, i))
    inner = set(parents.values())
    heights = {0: 0.0}
    for v in range(1, nverts):
        hp = heights[parents[v]]
        heights[v] = hp + (1.0 - hp) * float(gen.uniform(0.1, 0.9)) if v in inner else 1.0
    return DatedRootedTree(parents, heights)


def _random_window(gen, t):
    """Ends drawn uniformly, or (one time in three) at a vertex height, so
    the tolerance comparisons at a cut are exercised too."""
    hs = sorted(set(t.heights.values()))
    ends = [
        hs[int(gen.integers(0, len(hs)))] if gen.random() < 1 / 3 else float(gen.uniform(0, 1))
        for _ in range(2)
    ]
    return min(ends), max(ends)


def _small_trees():
    for nverts in range(2, 8):
        for parent_list in itertools.product(*[range(i) for i in range(1, nverts)]):
            yield _tree_from_parents(list(parent_list))


def test_branching_depth_vertices_match_the_per_vertex_subtree_oracle():
    gen = rng.stream(24, "vd-oracle")
    trees = list(_small_trees()) + [_random_dated_tree(gen) for _ in range(400)]
    assert len(trees) == 873 + 400
    for t in trees:
        assert branching_depth_vertices(t) == oracle_branching_depth_vertices(t)


def test_restrict_matches_the_fixpoint_oracle():
    gen = rng.stream(24, "restrict-oracle")
    trees = list(_small_trees()) + [_random_dated_tree(gen) for _ in range(400)]
    split = 0
    for t in trees:
        window = _random_window(gen, t)
        forest = restrict(t, window)
        assert _canonical_forest(forest) == _canonical_forest(oracle_restrict(t, window))
        split += len(forest) > 1
    assert split > 100  # many windows cut the tree into several components


def test_vd_path_property():
    for parent_list in [(0, 0, 1, 1, 2), (0, 1, 2, 0, 4, 4), (0, 0, 0, 1, 2, 3)]:
        t = _tree_from_parents(list(parent_list))
        vd = branching_depth_vertices(t)
        assert t.root in vd
        assert all(v == t.root or t.parents[v] in vd for v in vd)


def test_restrict():
    ct = chain_tree([0.0, 1.0])
    forest = restrict(ct, (0.0, 1.0))
    assert len(forest) == 1 and len(forest[0].vertices()) == 2
    forest = restrict(ct, (0.3, 0.7))
    assert len(forest) == 1
    sub = forest[0]
    a, b = sub.range
    assert float(a) == 0.3 and float(b) == 0.7
    # branch point below the window -> two components
    t = DatedRootedTree(
        {"r0": None, "r": "r0", "a": "r", "b": "r"}, {"r0": 0.0, "r": 0.5, "a": 1.0, "b": 1.0}
    )
    forest = restrict(t, (0.6, 1.0))
    assert len(forest) == 2
    with pytest.raises(ArgumentError):
        restrict(ct, (-0.5, 0.7))
    # a window strictly inside one edge cuts it at both ends
    forest = restrict(ct, (1 / 3, 2 / 3))
    hs = sorted(forest[0].heights.values())
    assert len(forest) == 1 and hs == [pytest.approx(1 / 3), pytest.approx(2 / 3)]


def test_tree_json_roundtrip():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    vertices = [
        {"id": str(v), "parent": None if p is None else str(p), "height": float(bt.heights[v])}
        for v, p in bt.parents.items()
    ]
    back = tree_from_json(json.dumps({"vertices": vertices}))
    assert sorted(map(str, back.vertices())) == sorted(map(str, bt.vertices()))
    assert branching_depth(back) == branching_depth(bt)
    vertices.append({**vertices[-1], "parent": str((1,))})
    with pytest.raises(ArgumentError, match=r"repeated: \['\(2, 2\)'\]"):
        tree_from_json(json.dumps({"vertices": vertices}))


def test_embed_energy_greedy_star():
    h = sample_hamiltonian(pure(2), 96, seed=3)
    t = star_tree(3)
    emb, energies, profile = embed_energy_greedy(h, t, delta=0.125, seed=1)
    ok, (worst, _) = validate_embedding(t, emb, tol=1e-6)
    assert ok
    leaves = t.leaves()
    for i, u in enumerate(leaves):
        for v in leaves[i + 1 :]:
            assert abs(overlap(emb.vectors[u], emb.vectors[v])) <= 1e-6
    g = h.tensors[2]
    bench = float(np.linalg.eigvalsh((g + g.T) / 2).max()) / math.sqrt(96)
    for u in leaves:
        assert abs(energies[u] / 96 - bench) / bench <= 0.20
    assert profile["l0"] == pytest.approx(math.sqrt(2.0), abs=1e-6)  # int_0^1 sqrt(2)


def test_embed_energy_greedy_binary_exact_overlaps():
    h = sample_hamiltonian(pure(2), 96, seed=9)
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    emb, _, _ = embed_energy_greedy(h, bt, delta=0.125, seed=4)
    leaves = bt.leaves()
    for u in leaves:
        for v in leaves:
            want = float(bt.heights[bt.lca(u, v)])
            assert overlap(emb.vectors[u], emb.vectors[v]) == pytest.approx(want, abs=1e-9)


def test_embed_energy_greedy_single_leaf_schedule():
    h = sample_hamiltonian(pure(2), 48, seed=9)
    ct = chain_tree([0.0, 0.25, 0.5, 0.75, 1.0])
    emb, energies, _ = embed_energy_greedy(h, ct, delta=0.25, seed=4)
    for v in ct.vertices():
        assert norm_n_sq(emb.vectors[v]) == pytest.approx(float(ct.heights[v]), abs=1e-12)


@pytest.mark.parametrize(
    "n, p, delta, h_seed", [(24, 4, 0.25, 3), (40, 2, 0.1, 1), (48, 2, 0.125, 5), (DEFAULT_DENSE_HESSIAN_CAP + 8, 2, 0.125, 5)]
)
def test_embedding_one_edge_is_subag_ascent(n, p, delta, h_seed):
    """The embedding of the one-edge tree r(0) -> l(1) is Subag ascent: one
    Hessian walk, bit for bit.  At n <= 512 the eigensolve is dense, so the
    step seeds do not matter; above the cap both walks run in the same frame
    of two eigenpairs, and each step's 2 x 2 solve is dense.  At delta = 0.1
    the last remainder is not exactly delta, and both walks take delta."""
    h = sample_hamiltonian(pure(p), n, seed=h_seed)
    emb, energies, _ = embed_energy_greedy(h, chain_tree([0.0, 1.0]), delta=delta, seed=0)
    traj = subag_ascent(h, delta, "top_eig", seed=0)
    assert np.array_equal(emb.vectors[1], traj.final)
    assert energies[1] == traj.final_energy


def test_embed_energy_greedy_resource_guard():
    h = sample_hamiltonian(pure(2), 12, seed=1)
    with pytest.raises(ResourceError):
        embed_energy_greedy(h, star_tree(4), delta=0.125, seed=0)


@pytest.mark.parametrize("delta", (0.0, -0.1, math.nan, math.inf))
def test_embed_energy_greedy_refuses_a_non_positive_or_non_finite_delta(delta):
    h = sample_hamiltonian(pure(2), 24, seed=1)
    with pytest.raises(ArgumentError, match="delta"):
        embed_energy_greedy(h, star_tree(3), delta=delta, seed=0)


@pytest.mark.parametrize("heights", ([0.0, 2.0], [-0.5, 1.0]))
def test_embed_energy_greedy_refuses_a_range_outside_the_unit_interval(heights):
    # refused before the direction budget, which n = 12 would also exhaust
    h = sample_hamiltonian(pure(2), 12, seed=1)
    with pytest.raises(ArgumentError, match=r"inside \[0, 1\]"):
        embed_energy_greedy(h, full_binary_tree(1, heights), delta=0.125, seed=0)
