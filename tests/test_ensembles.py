import json
import math
import re

import numpy as np
import pytest

from spinlab import rng
from spinlab.ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    chi_align,
    constrained_membership,
    grand_energy,
    kappa,
    lca_depth,
    leaf_weights,
    load_manifest,
    m_matrix,
    m_of_q,
    pair_mixer,
    sample_ensemble,
    save_manifest,
    target_overlap_matrix,
    underline_target_matrix,
    underline_view,
)
from spinlab.errors import ArgumentError, ResourceError
from spinlab.hamiltonian import energy, sample_hamiltonian, save_snapshot
from spinlab.mixture import Mixture, pure
from spinlab.points import sphere_point


def test_lca_depth_examples():
    assert lca_depth((1, 1), (1, 2)) == 1
    assert lca_depth((1, 2), (1, 2)) == 2
    assert lca_depth((2, 1, 1), (3, 1, 1)) == 0
    with pytest.raises(ArgumentError):
        lca_depth((1, 2), (1,))


def test_ladder_invariants():
    with pytest.raises(ArgumentError):
        CorrelationLadder((0.1, 1.0))
    with pytest.raises(ArgumentError):
        CorrelationLadder((0.0, 0.5, 0.4, 1.0))
    with pytest.raises(ArgumentError):
        OverlapLadder((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ArgumentError):
        OverlapLadder((0.0, 0.9))


def _weight_gram(shape, ladder):
    nodes = shape.nodes()
    idx = {nd: i for i, nd in enumerate(nodes)}
    leaves = shape.leaves()
    w = np.zeros((len(leaves), len(nodes)))
    for i, u in enumerate(leaves):
        for nd, wt in leaf_weights(shape, ladder, u).items():
            w[i, idx[nd]] = wt
    return w @ w.T, leaves


def test_weight_gram_exact():
    shape = TreeShape((2, 2))
    ladder = CorrelationLadder((0.0, 0.3, 1.0))
    gram, leaves = _weight_gram(shape, ladder)
    target = np.array([[ladder.ps[lca_depth(u, v)] for v in leaves] for u in leaves])
    assert np.max(np.abs(gram - target)) <= 1e-12


def test_ensemble_iid_and_shared():
    m = pure(2)
    # p = (0, 1): leaves i.i.d.; weight Gram = identity
    shape = TreeShape((3,))
    gram, _ = _weight_gram(shape, CorrelationLadder((0.0, 1.0)))
    assert np.allclose(gram, np.eye(3))
    # p_d = 1 for all d >= 1 with a single first arm: all leaves identical
    shape = TreeShape((1, 3))
    ens = sample_ensemble(m, 6, shape, CorrelationLadder((0.0, 1.0, 1.0)), seed=5)
    hams = [ens.leaf_hamiltonian(u) for u in shape.leaves()]
    for other in hams[1:]:
        assert np.array_equal(hams[0].tensors[2], other.tensors[2])


def test_ensemble_budget():
    with pytest.raises(ResourceError):
        sample_ensemble(pure(4), 200, TreeShape((3, 3)), CorrelationLadder((0.0, 0.5, 1.0)), seed=0)


def test_pair_correlated():
    m = pure(2)
    h1, h2 = pair_mixer(m, 8, 4, "pair")(1.0)
    assert np.array_equal(h1.tensors[2], h2.tensors[2])
    h1, h2 = pair_mixer(m, 64, 4, "pair")(0.0)
    c = np.corrcoef(h1.coefficients, h2.coefficients)[0, 1]
    assert abs(c) <= 4 / math.sqrt(64 * 64)
    h1, h2 = pair_mixer(m, 64, 4, "pair")(0.5)
    c = np.corrcoef(h1.coefficients, h2.coefficients)[0, 1]
    assert abs(c - 0.5) <= 4 / math.sqrt(64 * 64)
    with pytest.raises(ArgumentError):
        pair_mixer(m, 8, 0, "pair")(1.5)


def test_pair_mixer_equals_the_per_copy_oracle():
    m = Mixture({2: 0.8, 4: 0.4}, h=0.2)
    for labels, label, p, names, n in (
        ((4, "pair"), "pair{i}(p={p})", 0.3, ("pair1(p=0.3)", "pair2(p=0.3)"), 5),
        ((6, "chi", 2), "chi{i}(p={p})", 1.0, ("chi1(p=1.0)", "chi2(p=1.0)"), 5),
        ((5, "conc", 0), "conc{i}", 0.5, ("conc1", "conc2"), 5),
        # p4 at n = 17 has 83 521 entries: one full weighted_sum block and a short one
        ((4, "pair"), "pair{i}(p={p})", 0.3, ("pair1(p=0.3)", "pair2(p=0.3)"), 17),
        ((4, "pair"), "pair{i}(p={p})", 0.0, ("pair1(p=0.0)", "pair2(p=0.0)"), 17),
    ):
        # the three copies this helper replaced: sample each base, then mix
        base = [sample_hamiltonian(m, n, rng.derive_seed(*labels, i)).tensors for i in range(3)]
        a, b = math.sqrt(p), math.sqrt(1.0 - p)
        pair = pair_mixer(m, n, *labels, label=label)(p)
        for i, h in zip((1, 2), pair):
            assert (h.mixture, h.n, h.seed, h.label) == (m, n, None, names[i - 1])
            for q in m.ps:
                assert np.array_equal(h.tensors[q], a * base[0][q] + b * base[i][q])
    assert [h.label for h in pair_mixer(m, 4, 4, "pair")(0.25)] == ["pair1(p=0.25)", "pair2(p=0.25)"]


def test_target_overlap_matrix():
    shape = TreeShape((2,))
    q = target_overlap_matrix(shape, OverlapLadder((0.3, 1.0)))
    assert np.allclose(q, [[1.0, 0.3], [0.3, 1.0]])
    assert target_overlap_matrix(TreeShape((1, 1)), OverlapLadder((0.0, 0.5, 1.0))).shape == (1, 1)
    q = target_overlap_matrix(TreeShape((2, 2)), OverlapLadder((0.0, 0.4, 1.0)))
    assert q[0, 1] == 0.4 and q[0, 2] == 0.0 and q[2, 3] == 0.4


def test_m_matrix_examples_and_bruteforce(gen):
    shape = TreeShape((2,))
    pladder = CorrelationLadder((0.0, 1.0))
    assert np.allclose(m_matrix(shape, pladder, 1), np.eye(2))
    # d = D gives the identity
    shape = TreeShape((2, 3))
    pladder = CorrelationLadder((0.0, 0.6, 1.0))
    assert np.allclose(m_matrix(shape, pladder, 2), np.eye(6))
    for _ in range(10):
        depth = int(gen.integers(1, 4))
        ks = tuple(int(gen.integers(1, 4)) for _ in range(depth))
        ps = (0.0, *np.sort(gen.uniform(0, 1, depth - 1)), 1.0)
        shape, pladder = TreeShape(ks), CorrelationLadder(ps)
        d = int(gen.integers(1, depth + 1))
        got = m_matrix(shape, pladder, d)
        leaves = shape.leaves()
        brute = np.zeros((len(leaves), len(leaves)))
        for i, u in enumerate(leaves):
            for j, v in enumerate(leaves):
                w = lca_depth(u, v)
                brute[i, j] = pladder.ps[w] if w >= d else 0.0
        assert np.array_equal(got, brute)
        # the target and underline-target matrices index the same lca table
        qladder = OverlapLadder((*np.sort(gen.uniform(0, 0.95, depth)), 1.0))
        brute_q = np.array([[qladder.qs[lca_depth(u, v)] for v in leaves] for u in leaves])
        assert np.array_equal(target_overlap_matrix(shape, qladder), brute_q)
        cut = int(gen.integers(1, depth + 1))  # p_cut = 1 cuts the underline view at depth cut
        ul_pladder = CorrelationLadder((*ps[:cut], *(1.0,) * (depth + 1 - cut)))
        chi1 = float(gen.uniform(0.3, 1.0))
        sub_leaves = TreeShape(ks[:cut]).leaves()
        brute_ul = np.array(
            [[min(qladder.qs[lca_depth(u, v)], chi1) for v in sub_leaves] for u in sub_leaves]
        )
        assert np.array_equal(underline_target_matrix(shape, ul_pladder, qladder, chi1), brute_ul)


def test_kappa_examples_and_sum_identity(gen):
    # D = 1: kappa = 1 on [q0, 1)
    shape = TreeShape((4,))
    pl = CorrelationLadder((0.0, 1.0))
    ql = OverlapLadder((0.2, 1.0))
    assert kappa(shape, pl, ql, 0.5) == 1.0
    # D = 2, k = (1, k2): kappa = (k2 - 1) p1 + 1 on [q0, q1)
    shape = TreeShape((1, 5))
    pl = CorrelationLadder((0.0, 0.3, 1.0))
    ql = OverlapLadder((0.0, 0.5, 1.0))
    assert kappa(shape, pl, ql, 0.2) == pytest.approx(4 * 0.3 + 1.0)
    for _ in range(30):
        depth = int(gen.integers(1, 4))
        ks = tuple(int(gen.integers(1, 4)) for _ in range(depth))
        ps = (0.0, *np.sort(gen.uniform(0, 1, depth - 1)), 1.0)
        qs = np.sort(gen.uniform(0, 0.95, depth))
        while len(set(qs)) < depth:
            qs = np.sort(gen.uniform(0, 0.95, depth))
        shape, pl, ql = TreeShape(ks), CorrelationLadder(ps), OverlapLadder((*qs, 1.0))
        q = float(gen.uniform(ql.qs[0], 1.0 - 1e-12))
        assert kappa(shape, pl, ql, q) == pytest.approx(
            m_of_q(shape, pl, ql, q).sum() / shape.n_leaves, abs=1e-12
        )
    with pytest.raises(ArgumentError):
        kappa(shape, pl, ql, 1.0)


def test_kappa_piecewise_monotone():
    shape = TreeShape((2, 3))
    pl = CorrelationLadder((0.0, 0.5, 1.0))
    ql = OverlapLadder((0.1, 0.6, 1.0))
    k_lo = kappa(shape, pl, ql, 0.2)
    k_hi = kappa(shape, pl, ql, 0.8)
    assert k_lo >= k_hi
    assert kappa(shape, pl, ql, ql.qs[-2]) == 1.0  # kappa(q_{D-1}) = p_D = 1


def test_loewner_and_psd(gen):
    for _ in range(10):
        depth = int(gen.integers(1, 3))
        ks = tuple(int(gen.integers(1, 4)) for _ in range(depth))
        shape = TreeShape(ks)
        if shape.n_leaves > 16:
            continue
        ps = (0.0, *np.sort(gen.uniform(0, 1, depth - 1)), 1.0)
        qs = np.sort(gen.uniform(0, 0.9, depth))
        while len(set(qs)) < depth:
            qs = np.sort(gen.uniform(0, 0.9, depth))
        pl, ql = CorrelationLadder(ps), OverlapLadder((*qs, 1.0))
        q = float(gen.uniform(ql.qs[0], 0.99))
        mat = m_of_q(shape, pl, ql, q)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10
        assert np.linalg.eigvalsh(mat).max() <= kappa(shape, pl, ql, q) + 1e-10
        assert np.linalg.eigvalsh(target_overlap_matrix(shape, ql)).min() >= -1e-10


def test_chi_align():
    ql = OverlapLadder((0.0, 0.4, 1.0))
    assert chi_align(lambda p: p, ql).ps == pytest.approx((0.0, 0.4, 1.0), abs=1e-10)
    ql2 = OverlapLadder((0.2, 0.6, 1.0))
    assert chi_align(lambda p: 0.2, ql2).ps == (0.0, 1.0, 1.0)
    ql3 = OverlapLadder((0.0, 0.49, 1.0))
    assert chi_align(lambda p: p * p, ql3).ps[1] == pytest.approx(0.7, abs=1e-10)
    with pytest.raises(ArgumentError):
        chi_align(lambda p: 1.0 - p, ql3)


def test_grand_energy():
    m = pure(2)
    shape = TreeShape((2, 2))
    pl = CorrelationLadder((0.0, 0.3, 1.0))
    ens = sample_ensemble(m, 8, shape, pl, seed=11)
    zeros = [np.zeros(8)] * 4
    assert grand_energy(ens, zeros) == 0.0
    # K = 1 equals the single leaf energy
    ens1 = sample_ensemble(m, 8, TreeShape((1,)), CorrelationLadder((0.0, 1.0)), seed=3)
    x = rng.stream(40).standard_normal(8) * 0.4
    assert grand_energy(ens1, [x]) == pytest.approx(ens1.leaf_energy((1,), x))
    # identical leaves: K * energy
    ens_same = sample_ensemble(m, 8, TreeShape((1, 3)), CorrelationLadder((0.0, 1.0, 1.0)), seed=3)
    val = grand_energy(ens_same, [x] * 3)
    assert val == pytest.approx(3 * ens_same.leaf_energy((1, 1), x))
    with pytest.raises(ArgumentError):
        grand_energy(ens, zeros[:2])


def test_leaf_energy_matches_materialized():
    m = Mixture({2: 0.8, 4: 0.4}, h=0.3)
    shape = TreeShape((2, 2))
    pl = CorrelationLadder((0.0, 0.4, 1.0))
    ens = sample_ensemble(m, 6, shape, pl, seed=2)
    x = rng.stream(41).standard_normal(6) * 0.5
    for u in shape.leaves():
        assert ens.leaf_energy(u, x) == pytest.approx(energy(ens.leaf_hamiltonian(u), x), abs=1e-10)


def test_constrained_membership():
    n = 32
    gen = rng.stream(42)
    s1 = sphere_point(gen.standard_normal(n))
    s2 = sphere_point(gen.standard_normal(n))
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = constrained_membership([s1, s2], q, np.zeros(n), eta=2.0, domain="sphere")
    assert rep.ok  # eta = 2 dominates any overlap deviation
    rep = constrained_membership([0.5 * s1, s2], q, np.zeros(n), eta=2.0, domain="sphere")
    assert not rep.ok and "sphere norm" in rep.worst_constraint
    corners = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    rep = constrained_membership([corners], np.array([[1.0]]), np.zeros(n), eta=0.5, domain="cube")
    assert rep.ok
    with pytest.raises(ArgumentError):
        constrained_membership([s1], np.array([[1.0]]), np.zeros(n), 0.1, domain="torus")


def test_underline_view_and_target():
    shape = TreeShape((2, 3, 2))
    pl = CorrelationLadder((0.0, 0.4, 1.0, 1.0))
    ql = OverlapLadder((0.0, 0.3, 0.7, 1.0))
    sub_shape, sub_p, sub_q = underline_view(shape, pl, ql)
    assert sub_shape.ks == (2, 3)
    assert sub_p.ps == (0.0, 0.4, 1.0)
    assert sub_q.qs == (0.0, 0.3, 1.0)
    q_ul = underline_target_matrix(shape, pl, ql, chi1=0.6)
    assert q_ul.shape == (6, 6)
    assert q_ul[0, 0] == 0.6  # diagonal q_{D_ul} ^ chi(1)
    assert q_ul[0, 1] == 0.3


def _oracle_nodes(m, n, shape, seed):
    """Every node's Hamiltonian as sampled one node at a time, root included."""
    field_free = Mixture(dict(m.gammas), h=0.0)
    return {
        node: sample_hamiltonian(field_free, n, rng.derive_seed(seed, "node", node))
        for node in shape.nodes()
    }


def test_ensemble_nodes_equal_the_per_node_oracle():
    m = Mixture({2: 0.8, 4: 0.4}, h=0.3)
    shape = TreeShape((2, 3))
    pl = CorrelationLadder((0.0, 0.4, 1.0))
    ens = sample_ensemble(m, 5, shape, pl, seed=9)
    oracle = _oracle_nodes(m, 5, shape, 9)
    assert list(ens.node_hams) == shape.nodes()[1:]  # the root is not sampled
    for node, h in ens.node_hams.items():
        want = oracle[node]
        assert (h.mixture, h.n, h.seed) == (want.mixture, want.n, want.seed)
        for p in m.ps:
            assert np.array_equal(h.tensors[p], want.tensors[p])
    # the leaves are the same weighted sums of the same node tensors
    x = rng.stream(44).standard_normal(5) * 0.4
    for u in shape.leaves():
        weights = leaf_weights(shape, pl, u)
        assert weights[()] == 0.0
        leaf = ens.leaf_hamiltonian(u)
        want_e = m.h * float(np.sum(x))
        for p in m.ps:
            want_t = np.zeros((5,) * p)
            for node, w in weights.items():
                if w > 0.0:
                    want_t += w * oracle[node].tensors[p]
            assert np.array_equal(leaf.tensors[p], want_t)
        for node, w in weights.items():
            if w > 0.0:
                want_e += w * energy(oracle[node], x)
        assert ens.leaf_energy(u, x) == want_e


def _oracle_leaf_tensors(ens, u, depth):
    """leaf_hamiltonian's tensors as it summed them before accumulating in
    place: a zero tensor per p, plus a w * tensor temporary per node."""
    tensors = {p: np.zeros((ens.n,) * p) for p in ens.mixture.ps}
    for node, w in leaf_weights(ens.shape, ens.ladder, u).items():
        if w == 0.0 or len(node) > depth:
            continue
        for p in ens.mixture.ps:
            tensors[p] += w * ens.node_hams[node].tensors[p]
    return tensors


def test_leaf_hamiltonian_equals_the_summed_oracle():
    m = Mixture({2: 0.8, 4: 0.4}, h=0.3)
    shape = TreeShape((2, 2, 2))
    # n = 17: p4 has 83 521 entries, one full weighted_sum block and a short one
    for n in (6, 17):
        ens = sample_ensemble(m, n, shape, CorrelationLadder((0.0, 0.3, 0.7, 1.0)), seed=21)
        for u in shape.leaves():
            for depth in (0, 1, 2, 3, None):
                got = ens.leaf_hamiltonian(u, depth)
                want = _oracle_leaf_tensors(ens, u, shape.depth if depth is None else depth)
                for p in m.ps:
                    assert got.tensors[p].shape == want[p].shape
                    assert np.array_equal(got.tensors[p], want[p])


@pytest.mark.parametrize(
    "call",
    [
        lambda ens, u: leaf_weights(ens.shape, ens.ladder, u),
        lambda ens, u: ens.leaf_hamiltonian(u),
        lambda ens, u: ens.leaf_energy(u, np.zeros(ens.n)),
    ],
)
@pytest.mark.parametrize("u", [(3, 1), (1, 0), (1,), (1, 1, 1), (), (1, 1.5)])
def test_a_point_that_is_not_a_leaf_raises_argument_error(call, u):
    ens = sample_ensemble(pure(2), 3, TreeShape((2, 2)), CorrelationLadder((0.0, 0.5, 1.0)), seed=1)
    with pytest.raises(ArgumentError, match="not a leaf"):
        call(ens, u)


@pytest.mark.parametrize("depth", [-1, 3, 1.0])
def test_a_depth_outside_the_tree_raises_argument_error(depth):
    shape, ladder = TreeShape((2, 2)), CorrelationLadder((0.0, 0.5, 1.0))
    ens = sample_ensemble(pure(2), 3, shape, ladder, seed=1)
    with pytest.raises(ArgumentError, match="depth"):
        ens.leaf_hamiltonian((1, 2), depth)
    with pytest.raises(ArgumentError, match="depth"):
        leaf_weights(shape, ladder, (1, 2), depth)


def test_ensemble_budget_counts_only_sampled_nodes():
    shape = TreeShape((2,))  # two sampled nodes; the root would make three
    ladder = CorrelationLadder((0.0, 1.0))
    assert len(sample_ensemble(pure(2), 4, shape, ladder, seed=0, max_entries=32).node_hams) == 2
    with pytest.raises(ResourceError):
        sample_ensemble(pure(2), 4, shape, ladder, seed=0, max_entries=31)


def test_manifest_roundtrip(tmp_path):
    m = Mixture({2: 0.9}, h=0.1)
    shape = TreeShape((2, 2))
    pl = CorrelationLadder((0.0, 0.3, 1.0))
    ens = sample_ensemble(m, 5, shape, pl, seed=77)
    save_manifest(ens, tmp_path)
    back = load_manifest(tmp_path)
    assert back.shape.ks == shape.ks
    assert back.ladder.ps == pl.ps
    assert back.seed == 77
    x = rng.stream(43).standard_normal(5) * 0.4
    for u in shape.leaves():
        assert back.leaf_energy(u, x) == ens.leaf_energy(u, x)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "node_1.bin", "node_1_1.bin", "node_1_2.bin", "node_2.bin", "node_2_1.bin", "node_2_2.bin"
    ]
    assert back.node_hams.keys() == ens.node_hams.keys()


def _saved(tmp_path, n=4, seed=77):
    m = Mixture({2: 0.9, 4: 0.3}, h=0.1)
    ens = sample_ensemble(m, n, TreeShape((2, 1)), CorrelationLadder((0.0, 0.3, 1.0)), seed=seed)
    save_manifest(ens, tmp_path)
    return ens, json.loads((tmp_path / "manifest.json").read_text())


def _write(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))


def test_manifest_with_a_root_entry_still_loads(tmp_path):
    ens, manifest = _saved(tmp_path)
    root = _oracle_nodes(ens.mixture, ens.n, ens.shape, ens.seed)[()]
    save_snapshot(root, tmp_path / "node_root.bin")  # what earlier versions wrote
    manifest["nodes"].insert(0, {"path": [], "snapshot": "node_root.bin"})
    _write(tmp_path, manifest)
    back = load_manifest(tmp_path)
    assert () not in back.node_hams
    assert back.node_hams.keys() == ens.node_hams.keys()
    x = rng.stream(45).standard_normal(ens.n) * 0.4
    for u in ens.leaves():
        assert back.leaf_energy(u, x) == ens.leaf_energy(u, x)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda m: m.pop("n"), "malformed"),
        (lambda m: m.pop("nodes"), "malformed"),
        (lambda m: m.update(n="4"), "must be integers"),
        (lambda m: m.update(n=0), "must be integers"),
        (lambda m: m.update(ks=3), "malformed"),
        (lambda m: m.update(mixture={"gammas": {"two": 1.0}, "h": 0.1}), "malformed"),
        (lambda m: m["nodes"].append({"path": [9], "snapshot": "node_1.bin"}), "outside the tree shape"),
        (lambda m: m["nodes"].append({"path": [1, 1, 1], "snapshot": "node_1.bin"}), "outside"),
        (lambda m: m["nodes"].pop(), "lacks the nodes"),
        (lambda m: m["nodes"].append(dict(m["nodes"][0])), "more than once"),
        (lambda m: m["nodes"][0].pop("snapshot"), "malformed"),
        (lambda m: m["nodes"][0].update(path=[[1]]), "malformed"),
    ],
)
def test_malformed_manifest_raises_argument_error(tmp_path, edit, match):
    _ens, manifest = _saved(tmp_path)
    edit(manifest)
    _write(tmp_path, manifest)
    with pytest.raises(ArgumentError, match=match):
        load_manifest(tmp_path)


@pytest.mark.parametrize("n, gammas", [(5, {2: 0.9, 4: 0.3}), (4, {2: 0.9}), (4, {2: 0.9, 4: 0.31})])
def test_manifest_rejects_a_snapshot_that_disagrees(tmp_path, n, gammas):
    _ens, manifest = _saved(tmp_path)
    other = sample_hamiltonian(Mixture(gammas), n, seed=1)
    save_snapshot(other, tmp_path / manifest["nodes"][0]["snapshot"])
    with pytest.raises(ArgumentError, match="the manifest gives"):
        load_manifest(tmp_path)


def test_manifest_that_is_not_json(tmp_path):
    _saved(tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ArgumentError, match="malformed"):
        load_manifest(tmp_path)


@pytest.fixture
def four_cpu_pool(fake_cpus):
    return fake_cpus(4)


def test_manifest_snapshots_move_on_the_pool(tmp_path, four_cpu_pool):
    ens, manifest = _saved(tmp_path)  # four nodes: sampled, then saved
    assert four_cpu_pool == [4, 4]
    serial = tmp_path / "serial"
    serial.mkdir()
    for entry in manifest["nodes"]:
        save_snapshot(ens.node_hams[tuple(entry["path"])], serial / entry["snapshot"])
        assert (serial / entry["snapshot"]).read_bytes() == (tmp_path / entry["snapshot"]).read_bytes()
    back = load_manifest(tmp_path)
    assert four_cpu_pool == [4, 4, 4]
    assert list(back.node_hams) == list(ens.node_hams)
    for node, h in ens.node_hams.items():
        for p in h.mixture.ps:
            assert np.array_equal(back.node_hams[node].tensors[p], h.tensors[p])


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _bad_magic(path):
    path.write_bytes(b"NOTGLASS" + path.read_bytes()[8:])


def test_manifest_errors_name_the_node_and_its_snapshot_file(tmp_path):
    _ens, manifest = _saved(tmp_path)
    name = manifest["nodes"][1]["snapshot"]
    _truncate(tmp_path / name)
    with pytest.raises(ArgumentError, match=rf"^node \[2\] \({re.escape(name)}\): snapshot truncated"):
        load_manifest(tmp_path)


@pytest.mark.parametrize(
    "first, second, match",
    [(_truncate, None, "truncated"), (_truncate, _bad_magic, "truncated"), (_bad_magic, _truncate, "magic")],
)
def test_manifest_reports_the_first_bad_node_in_node_order(tmp_path, four_cpu_pool, first, second, match):
    _ens, manifest = _saved(tmp_path)
    assert [e["path"] for e in manifest["nodes"]] == [[1], [2], [1, 1], [2, 1]]
    first(tmp_path / manifest["nodes"][1]["snapshot"])
    if second is not None:
        second(tmp_path / manifest["nodes"][3]["snapshot"])
    with pytest.raises(ArgumentError, match=match):
        load_manifest(tmp_path)
    assert four_cpu_pool[-1] == 4  # the snapshots were read on the pool
