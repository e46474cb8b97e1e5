import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spinlab.errors import ArgumentError, ResourceError
from spinlab.hamiltonian import sample_hamiltonian
from spinlab.mixture import pure
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


def _tree_from_parents(parent_list):
    parents = {0: None}
    for i, p in enumerate(parent_list, start=1):
        parents[i] = p

    def depth(v):
        d = 0
        while parents[v] is not None:
            v = parents[v]
            d += 1
        return d

    children = {v: [] for v in parents}
    for v, p in parents.items():
        if p is not None:
            children[p].append(v)
    maxd = max(depth(v) for v in parents) or 1
    heights = {}
    for v in parents:
        if not children[v]:
            heights[v] = 1.0
        elif parents[v] is None:
            heights[v] = 0.0
        else:
            heights[v] = depth(v) / (maxd + 1)
    return DatedRootedTree(parents, heights)


def test_tree_invariants():
    with pytest.raises(ArgumentError):
        DatedRootedTree({"a": None, "b": "a"}, {"a": 0.5, "b": 0.2})
    with pytest.raises(ArgumentError):
        DatedRootedTree({"a": None, "b": None}, {"a": 0.0, "b": 0.0})


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


def _brute_branching(parent_list):
    parents = {0: None}
    for i, p in enumerate(parent_list, start=1):
        parents[i] = p
    children = {v: [] for v in parents}
    for v, p in parents.items():
        if p is not None:
            children[p].append(v)
    memo = {}

    def hit(c, d):
        stack = [c]
        while stack:
            w = stack.pop()
            if rooted(w, d):
                return True
            stack.extend(children[w])
        return False

    def rooted(v, d):
        if d == 0:
            return True
        if (v, d) not in memo:
            memo[(v, d)] = any(
                hit(c1, d - 1) and hit(c2, d - 1)
                for c1, c2 in itertools.combinations(children[v], 2)
            )
        return memo[(v, d)]

    best = 0
    for v in parents:
        d = 0
        while rooted(v, d + 1):
            d += 1
        best = max(best, d)
    return best


def test_branching_depth_brute_force_small():
    count = 0
    for nverts in range(2, 8):
        for parent_list in itertools.product(*[range(i) for i in range(1, nverts)]):
            t = _tree_from_parents(list(parent_list))
            assert branching_depth(t) == _brute_branching(list(parent_list))
            count += 1
    assert count > 100


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


def test_restrict_exact_fraction_heights():
    ct = chain_tree([Fraction(0), Fraction(1)])
    forest = restrict(ct, (Fraction(1, 3), Fraction(2, 3)))
    sub = forest[0]
    hs = sorted(float(h) for h in sub.heights.values())
    assert hs[0] == pytest.approx(1 / 3) and hs[-1] == pytest.approx(2 / 3)


def test_reduced():
    t = chain_tree([0.0, 0.4, 1.0])
    r = t.reduced()
    assert len(r.vertices()) == 2  # middle degree-2 vertex removed


def test_tree_json_roundtrip():
    bt = full_binary_tree(2, [0.0, 0.5, 1.0])
    vertices = [
        {"id": str(v), "parent": None if p is None else str(p), "height": float(bt.heights[v])}
        for v, p in bt.parents.items()
    ]
    back = tree_from_json(json.dumps({"vertices": vertices}))
    assert sorted(map(str, back.vertices())) == sorted(map(str, bt.vertices()))
    assert branching_depth(back) == branching_depth(bt)


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


def test_embed_energy_greedy_resource_guard():
    h = sample_hamiltonian(pure(2), 12, seed=1)
    with pytest.raises(ResourceError):
        embed_energy_greedy(h, star_tree(4), delta=0.125, seed=0)
