import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab import rng
from spinlab.errors import ArgumentError, DomainError, ResourceError
from spinlab.hamiltonian import (
    DEFAULT_DENSE_HESSIAN_CAP,
    Hamiltonian,
    _contract,
    _scale,
    derivatives,
    energy,
    gradient,
    hessian,
    hessian_apply,
    load_snapshot,
    projected_top_eigvec,
    restricted_top_eigvec,
    sample_hamiltonian,
    sample_hamiltonians,
    sample_tensors,
    save_snapshot,
)
from spinlab.mixture import Mixture, pure
from spinlab.points import orthonormal_rows, sphere_point

from conftest import finite_difference_gradient


def test_sampling_deterministic():
    a = sample_hamiltonian(pure(2), 4, seed=7)
    b = sample_hamiltonian(pure(2), 4, seed=7)
    assert a.tensors[2].size == 16
    assert np.array_equal(a.tensors[2], b.tensors[2])
    c = sample_hamiltonian(pure(2), 4, seed=8)
    assert not np.array_equal(a.tensors[2], c.tensors[2])


def test_sampling_mean_lln():
    h = sample_hamiltonian(pure(4), 8, seed=1)
    entries = h.tensors[4].ravel()
    assert entries.size == 4096
    assert abs(entries.mean()) <= 4 / math.sqrt(4096)


def oracle_sample_tensor(seed, p, n):
    """The serial sampler before `sample_tensors`: one fill per tensor."""
    return rng.stream(seed, "tensor", p).standard_normal(n**p).reshape((n,) * p)


@pytest.fixture(params=[1, 2])
def pool_size(request, fake_cpus):
    """Pretend the process may use this many CPUs, and record each pool."""
    return request.param, fake_cpus(request.param)


def test_sample_tensors_equal_the_serial_oracle(pool_size):
    size, pools = pool_size
    jobs = [(7, 2, 5), (7, 4, 5), (2**63 + 1, 2, 1), (3, 6, 3), (7, 2, 5)]
    got = sample_tensors(jobs)
    assert pools == ([] if size == 1 else [2])
    for (seed, p, n), t in zip(jobs, got):
        want = oracle_sample_tensor(seed, p, n)
        assert t.shape == want.shape and t.dtype == want.dtype
        assert np.array_equal(t.view(np.uint64), want.view(np.uint64))
    # in place, into rows of a larger array
    rows = np.zeros((2, 3**4))
    out = sample_tensors([(4, 4, 3), (5, 4, 3)], out=list(rows))
    assert out[0].base is rows
    for r, seed in enumerate((4, 5)):
        assert np.array_equal(rows[r], oracle_sample_tensor(seed, 4, 3).ravel())
    # one job fills inline
    pools.clear()
    (t,) = sample_tensors([(9, 4, 4)])
    assert pools == [] and np.array_equal(t, oracle_sample_tensor(9, 4, 4))


def test_sample_hamiltonians_equal_one_by_one(pool_size):
    m = Mixture({2: 0.6, 4: 1.1}, h=0.25)
    seeds = [3, 11, 3]
    for h, seed in zip(sample_hamiltonians(m, 4, seeds), seeds):
        one = sample_hamiltonian(m, 4, seed)
        assert (h.mixture, h.n, h.seed) == (one.mixture, one.n, seed)
        for p in m.ps:
            assert np.array_equal(h.tensors[p], oracle_sample_tensor(seed, p, 4))
            assert np.array_equal(h.tensors[p], one.tensors[p])


def test_streams_are_built_on_the_calling_thread(pool_size, monkeypatch):
    size, pools = pool_size
    original = rng.stream
    threads = []

    def stream(*labels):
        threads.append(threading.current_thread())
        return original(*labels)

    monkeypatch.setattr(rng, "stream", stream)
    sample_tensors([(seed, p, 6) for seed in range(3) for p in (2, 4)])
    sample_hamiltonians(Mixture({2: 1.0, 4: 1.0}), 4, [1, 2])
    assert len(threads) == 10
    assert all(t is threading.main_thread() for t in threads)
    assert pools == ([] if size == 1 else [2, 2])


def test_budget_guard():
    with pytest.raises(ResourceError, match="p=6"):
        sample_hamiltonian(pure(6), 512, seed=0)


def test_energy_examples():
    h = sample_hamiltonian(pure(2), 8, seed=0)
    assert energy(h, np.zeros(8)) == 0.0

    field_only = sample_hamiltonian(Mixture({2: 0.0}, h=1.0), 4, seed=0)
    assert energy(field_only, np.ones(4)) == pytest.approx(4.0)

    hand = Hamiltonian(pure(2), 2, {2: np.array([[1.0, 2.0], [3.0, 4.0]])})
    x = np.array([math.sqrt(2.0), 0.0])
    assert energy(hand, x) == pytest.approx(math.sqrt(2.0))


def test_radius_domain_error():
    h = sample_hamiltonian(pure(2), 8, seed=0)
    with pytest.raises(DomainError):
        energy(h, 1.5 * np.ones(8))  # |x|_N = 1.5 > sqrt(2)


def test_gradient_field_constant():
    h = sample_hamiltonian(Mixture({2: 0.0}, h=0.7), 6, seed=0)
    assert np.allclose(gradient(h, np.zeros(6)), 0.7)


def test_gradient_finite_differences_p2():
    h = sample_hamiltonian(pure(2), 6, seed=3)
    x = rng.stream(9).standard_normal(6) * 0.3
    fd = finite_difference_gradient(lambda y: energy(h, y), x, step=1e-5)
    g = gradient(h, x)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) <= 1e-5


def test_gradient_zero_at_origin_p4():
    h = sample_hamiltonian(pure(4), 6, seed=5)
    assert np.allclose(gradient(h, np.zeros(6)), 0.0)


@pytest.mark.parametrize("gammas", [{6: 1.0}, {2: 0.5, 4: 0.8, 6: 0.3}])
def test_gradient_and_hessian_fd_all_supported_p(gammas):
    m = Mixture(gammas, h=0.1)
    h = sample_hamiltonian(m, 4, seed=21)
    x = rng.stream(22).standard_normal(4) * 0.4
    fd = finite_difference_gradient(lambda y: energy(h, y), x, step=1e-5)
    g = gradient(h, x)
    assert np.max(np.abs(g - fd)) / max(np.max(np.abs(g)), 1.0) <= 1e-5
    w = rng.stream(23).standard_normal(4)
    fdh = (gradient(h, x + 1e-5 * w) - gradient(h, x - 1e-5 * w)) / 2e-5
    hv = hessian_apply(h, x, w)
    assert np.max(np.abs(hv - fdh)) / max(np.max(np.abs(hv)), 1.0) <= 1e-4


def test_hessian_p2_constant_closed_form():
    h = sample_hamiltonian(pure(2, gamma=0.5), 6, seed=4)
    g = h.tensors[2]
    want = 0.5 * 6 ** (-0.5) * (g + g.T)
    x = rng.stream(11).standard_normal(6) * 0.2
    assert np.allclose(hessian(h, np.zeros(6)), want)
    assert np.allclose(hessian(h, x), want)


def test_hessian_finite_differences_p4():
    h = sample_hamiltonian(pure(4), 6, seed=5)
    x = rng.stream(12).standard_normal(6) * 0.3
    w = rng.stream(13).standard_normal(6)
    fd = (gradient(h, x + 1e-5 * w) - gradient(h, x - 1e-5 * w)) / 2e-5
    hv = hessian_apply(h, x, w)
    assert np.max(np.abs(hv - fd)) / np.max(np.abs(hv)) <= 1e-4


def test_hessian_apply_matches_dense():
    h = sample_hamiltonian(Mixture({2: 0.8, 4: 0.5}), 8, seed=6)
    x = rng.stream(14).standard_normal(8) * 0.3
    w = rng.stream(15).standard_normal(8)
    dense = hessian(h, x)
    assert np.allclose(dense @ w, hessian_apply(h, x, w), atol=1e-12)
    assert np.allclose(dense, dense.T)


# -- oracles: one raw-tensor pass per gradient slot and per Hessian slot pair ----


def oracle_energy(h, x):
    val = h.mixture.h * float(np.sum(x))
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g != 0.0:
            val += g * float(_contract(h.tensors[p], [x] * p))
    return val


def oracle_gradient(h, x):
    """Per-slot gradient: p passes over each raw tensor."""
    grad = np.full(h.n, h.mixture.h)
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g == 0.0:
            continue
        for s in range(p):
            grad += g * _contract(h.tensors[p], [x] * p, keep=(s,))
    return grad


def oracle_hessian_pair_blocks(h, x):
    """Yield (scale, block) over slot pairs s < t, block being the raw tensor
    contracted with x on all other slots, axes ordered (s, t)."""
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g == 0.0:
            continue
        for s in range(p):
            for t in range(s + 1, p):
                yield g, _contract(h.tensors[p], [x] * p, keep=(s, t))


def oracle_hessian(h, x):
    out = np.zeros((h.n, h.n))
    for g, block in oracle_hessian_pair_blocks(h, x):
        out += g * (block + block.T)
    return out


PLAN_CASES = [
    (pure(2), (1, 3, 16)),
    (pure(4), (2, 7, 12)),
    (pure(6), (3, 5)),
    (Mixture({2: 0.6, 4: 0.8}, h=0.3), (5, 11)),
    (Mixture({2: 0.5, 4: 0.4, 6: 0.3}, h=0.7), (4,)),
    (Mixture({2: 0.0, 4: 1.0}, h=0.2), (6,)),
]


def _plan_points(n, seed):
    gen = rng.stream(seed, "plan-points", n)
    for radius in (0.0, 0.5, 1.0, 1.41):
        yield radius * sphere_point(gen.standard_normal(n))


@pytest.mark.parametrize("m, ns", PLAN_CASES)
def test_derivatives_match_per_slot_oracle(m, ns):
    for n in ns:
        h = sample_hamiltonian(m, n, seed=40 + n)
        for x in _plan_points(n, 41):
            e, g, hess = derivatives(h, x, 2)
            assert e == oracle_energy(h, x)
            assert np.array_equal(g, oracle_gradient(h, x))
            want = oracle_hessian(h, x)
            assert np.max(np.abs(hess - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("m, ns", PLAN_CASES)
def test_derivatives_orders_equal_the_wrappers(m, ns):
    n = ns[-1]
    h = sample_hamiltonian(m, n, seed=50)
    for x in _plan_points(n, 51):
        (e0,) = derivatives(h, x, 0)
        e1, g1 = derivatives(h, x, 1)
        e2, g2, h2 = derivatives(h, x, 2)
        assert e0 == e1 == e2 == energy(h, x)
        assert np.array_equal(g1, gradient(h, x)) and np.array_equal(g2, g1)
        assert np.array_equal(h2, hessian(h, x))


def test_derivatives_rejects_bad_order_and_radius():
    h = sample_hamiltonian(pure(2), 4, seed=0)
    with pytest.raises(ArgumentError):
        derivatives(h, np.zeros(4), 3)
    with pytest.raises(DomainError):
        derivatives(h, 1.5 * np.ones(4), 1)


def test_derivatives_peak_memory_below_quarter_tensor():
    # the plan reads the raw tensor in place: no transposed copy of it
    h = sample_hamiltonian(pure(4), 24, seed=1)
    x = sphere_point(rng.stream(52).standard_normal(24))
    derivatives(h, x, 2)  # first-call allocations are not the plan's
    tracemalloc.start()
    try:
        derivatives(h, x, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.tensors[4].nbytes / 4


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    keep=st.sets(st.integers(0, 4), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=[3, 2, 4, 2], keep={0, 3}, seed=0)  # interior axes trapped between kept ones
@example(shape=[2, 3, 2, 3, 2], keep={1, 3}, seed=1)
def test_contract_matches_einsum(shape, keep, seed):
    keep = tuple(sorted(a for a in keep if a < len(shape)))
    gen = np.random.default_rng(seed)
    tensor = gen.standard_normal(shape)
    assign = [gen.standard_normal(k) for k in shape]
    letters = "abcde"[: len(shape)]
    free = [a for a in range(len(shape)) if a not in keep]
    spec = ",".join([letters] + [letters[a] for a in free]) + "->" + "".join(letters[a] for a in keep)
    want = np.einsum(spec, tensor, *[assign[a] for a in free])
    bound = np.einsum(spec, np.abs(tensor), *[np.abs(assign[a]) for a in free])
    got = _contract(tensor, assign, keep)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * bound + 1e-300)


def test_homogeneity_pure_p():
    h = sample_hamiltonian(pure(4), 8, seed=2)
    x = rng.stream(16).standard_normal(8) * 0.4
    assert energy(h, 0.5 * x) == pytest.approx(0.5**4 * energy(h, x), rel=1e-12)


def test_determinism_on_probe_set():
    m = Mixture({2: 0.7, 4: 0.3}, h=0.2)
    h1 = sample_hamiltonian(m, 12, seed=99)
    h2 = sample_hamiltonian(m, 12, seed=99)
    for k in range(3):
        x = rng.stream(17, k).standard_normal(12) * 0.5
        assert energy(h1, x) == energy(h2, x)


def test_restricted_top_eigvec_hand_set():
    # symmetric part diag(3, 1, 0.5, ...): tensor = diag/2 so G + G^T = diag
    n = 6
    diag = np.array([3.0, 1.0, 0.5, 0.2, 0.1, 0.05])
    h = Hamiltonian(pure(2), n, {2: np.diag(diag) / 2})
    basis = np.eye(n)[:2]
    x = np.zeros(n)
    vec, lam = restricted_top_eigvec(h, x, basis)
    scale = n ** (-0.5)
    assert lam == pytest.approx(scale * 3.0)
    assert abs(abs(vec[0]) - 1.0) <= 1e-9


def test_restricted_single_vector():
    h = sample_hamiltonian(pure(2), 8, seed=3)
    b = sphere_point(rng.stream(18).standard_normal(8)) / math.sqrt(8)  # unit l2
    x = np.zeros(8)
    vec, lam = restricted_top_eigvec(h, x, [b])
    assert np.allclose(np.abs(vec), np.abs(b), atol=1e-9)
    want = b @ hessian(h, x) @ b
    assert lam == pytest.approx(want)


def test_restricted_rotation_invariance():
    h = sample_hamiltonian(pure(2), 8, seed=3)
    x = np.zeros(8)
    q, _ = np.linalg.qr(rng.stream(19).standard_normal((8, 3)))
    basis = q.T
    theta = 0.3
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0],
            [math.sin(theta), math.cos(theta), 0],
            [0, 0, 1],
        ]
    )
    _, lam1 = restricted_top_eigvec(h, x, basis)
    _, lam2 = restricted_top_eigvec(h, x, rot @ basis)
    assert lam1 == pytest.approx(lam2, abs=1e-10)


def test_non_orthonormal_basis_rejected():
    h = sample_hamiltonian(pure(2), 6, seed=3)
    bad = np.ones((2, 6))
    with pytest.raises(ArgumentError):
        restricted_top_eigvec(h, np.zeros(6), bad)


# -- Lanczos path: projected_top_eigvec above the dense-Hessian cap ------------

LANCZOS_N = DEFAULT_DENSE_HESSIAN_CAP + 8


@pytest.fixture(scope="module")
def lanczos_case():
    """p2 with a field at n = 520, a point inside the ball and three
    directions; one Hamiltonian for every Lanczos test below."""
    n = LANCZOS_N
    h = sample_hamiltonian(Mixture({2: 1.0}, h=0.3), n, seed=21)
    gen = rng.stream(22, "lanczos-test")
    x = 0.7 * sphere_point(gen.standard_normal(n))
    dirs = [gen.standard_normal(n) for _ in range(3)]
    return h, x, dirs


@pytest.mark.parametrize("n_orth", [0, 1, 3])
def test_lanczos_matches_dense_eigh_oracle(lanczos_case, n_orth):
    h, x, dirs = lanczos_case
    orth = [x] + dirs[: n_orth - 1] if n_orth else []
    ortho = orthonormal_rows(orth, h.n)
    pmat = np.eye(h.n) - ortho.T @ ortho
    dense = pmat @ derivatives(h, x, 2)[2] @ pmat
    want_vals, want_vecs = np.linalg.eigh(0.5 * (dense + dense.T))
    for k in (1, 3):
        vecs, vals = projected_top_eigvec(h, x, orth=orth, k=k, seed=5)
        assert vecs.shape == (k, h.n) and vals.shape == (k,)
        top = want_vals[::-1][:k]
        assert np.max(np.abs(vals - top)) <= 1e-10 * np.max(np.abs(top))
        for got, want in zip(vecs, want_vecs[:, ::-1].T):
            assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) <= 1e-8
            if ortho.size:
                assert np.max(np.abs(ortho @ got)) <= 1e-10


def test_lanczos_cold_start_when_start_is_unusable(lanczos_case):
    """A start inside span(orth), and any start with k > 1, give the
    seeded cold solve bit for bit; a usable start still finds the same pair."""
    h, x, dirs = lanczos_case
    orth = [x, dirs[0]]
    cold1 = projected_top_eigvec(h, x, orth=orth, k=1, seed=5)
    in_span = projected_top_eigvec(h, x, orth=orth, k=1, seed=5, start=2.0 * x - dirs[0])
    zero = projected_top_eigvec(h, x, orth=orth, k=1, seed=5, start=np.zeros(h.n))
    for got in (in_span, zero):
        assert all(np.array_equal(a, b) for a, b in zip(got, cold1))
    cold3 = projected_top_eigvec(h, x, orth=orth, k=3, seed=5)
    warm3 = projected_top_eigvec(h, x, orth=orth, k=3, seed=5, start=dirs[1])
    assert all(np.array_equal(a, b) for a, b in zip(warm3, cold3))
    warm1 = projected_top_eigvec(h, x, orth=orth, k=1, seed=5, start=dirs[1])
    assert abs(warm1[1][0] - cold1[1][0]) <= 1e-12 * abs(cold1[1][0])
    assert abs(abs(warm1[0][0] @ cold1[0][0]) - 1.0) <= 1e-10
    with pytest.raises(ArgumentError):
        projected_top_eigvec(h, x, orth=orth, k=1, start=np.ones(3))


def test_dense_path_ignores_start():
    h = sample_hamiltonian(Mixture({2: 0.8, 4: 0.5}, h=0.2), 10, seed=4)
    x = 0.5 * sphere_point(rng.stream(23).standard_normal(10))
    start = rng.stream(24).standard_normal(10)
    for k in (1, 3):
        cold = projected_top_eigvec(h, x, orth=[x], k=k, seed=2)
        warm = projected_top_eigvec(h, x, orth=[x], k=k, seed=2, start=start)
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))


# -- oracle: the slot-pair Hessian-vector loop ---------------------------------


def oracle_hessian_apply(h, x, w):
    out = np.zeros(h.n)
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g == 0.0 or p < 2:
            continue
        for s in range(p):
            for t in range(p):
                if s == t:
                    continue
                assign = [x] * p
                assign[t] = w
                out += g * _contract(h.tensors[p], assign, keep=(s,))
    return out


FORM_CASES = [
    (pure(2), (1, 3, 7, 12)),
    (pure(4), (1, 3, 7, 12)),
    (Mixture({2: 0.6, 4: 0.8}, h=0.3), (1, 3, 7, 12)),
    (Mixture({2: 0.5, 4: 0.4, 6: 0.3}, h=0.7), (1, 3, 7)),
    (Mixture({2: 0.0}, h=0.9), (1, 3, 7, 12)),
]


@pytest.mark.parametrize("m, ns", FORM_CASES)
def test_form_bit_identical_to_slot_loop_oracles(m, ns):
    for n in ns:
        h = sample_hamiltonian(m, n, seed=60 + n)
        gen = rng.stream(61, "form-vectors", n)
        for x in _plan_points(n, 62):
            w = gen.standard_normal(n)
            assert np.array_equal(hessian_apply(h, x, w), oracle_hessian_apply(h, x, w))


# -- orders 0, 1 and 2 above one slab: R (D, L) from one read of each tensor ---

SLAB_CASES = [
    (pure(4), 24),
    (pure(4), 30),
    (pure(6), 8),
    (Mixture({2: 0.6, 4: 0.8}, h=0.3), 48),
    (Mixture({2: 0.5, 4: 0.4, 6: 0.3}, h=0.7), 9),
    (pure(4), 17),  # odd n: a slab ends on a BLAS tail row at the third point
]


@pytest.mark.parametrize("slab", [None, 2**9])  # 2**9: 16-row slabs, a short last one at n = 30
@pytest.mark.parametrize("m, n", SLAB_CASES)
def test_one_read_order_two_against_the_orders_and_the_oracle(monkeypatch, m, n, slab):
    if slab is not None:
        monkeypatch.setattr("spinlab.hamiltonian._SLAB", slab)
    h = sample_hamiltonian(m, n, seed=70 + n)
    assert max(t.size for t in h.tensors.values()) > 2**16  # above one default slab
    for x in _plan_points(n, 71):
        (e0,) = derivatives(h, x, 0)
        e1, g1 = derivatives(h, x, 1)
        e2, g2, hess = derivatives(h, x, 2)
        assert e0 == e1 == e2
        assert np.array_equal(g1, g2)  # both take slot p-1 as x @ D
        want_g = oracle_gradient(h, x)
        assert np.max(np.abs(g1 - want_g)) <= 1e-15 * np.max(np.abs(want_g))
        want = oracle_hessian(h, x)
        assert np.max(np.abs(hess - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(hess, hess.T)


def test_p2_hessian_apply_in_row_blocks_matches_the_slot_loop():
    n = 200  # above one 128-row block
    h = sample_hamiltonian(Mixture({2: 0.8}, h=0.2), n, seed=72)
    gen = rng.stream(73, "form-vectors", n)
    for x in _plan_points(n, 74):
        w = gen.standard_normal(n)
        want = oracle_hessian_apply(h, x, w)
        assert np.max(np.abs(hessian_apply(h, x, w) - want)) <= 1e-14 * np.max(np.abs(want))


def test_hessian_apply_and_restricted_reject_bad_shapes():
    h = sample_hamiltonian(pure(2), 6, seed=3)
    x = np.zeros(6)
    for w in (np.ones(7), np.ones((6, 1)), 1.0):
        with pytest.raises(ArgumentError, match="w has shape"):
            hessian_apply(h, x, w)
    for basis in (np.eye(7)[:2], np.ones((2, 3, 6)), np.zeros((0, 6))):
        with pytest.raises(ArgumentError, match="basis has shape"):
            restricted_top_eigvec(h, x, basis)


def test_snapshot_roundtrip(tmp_path):
    m = Mixture({2: 0.6, 4: 1.1}, h=0.25)
    h = sample_hamiltonian(m, 5, seed=321)
    path = tmp_path / "ham.bin"
    save_snapshot(h, path)
    back = load_snapshot(path)
    assert back.seed == 321
    assert back.n == 5
    assert back.mixture.gammas == m.gammas
    assert back.mixture.h == m.h
    for p in m.ps:
        assert np.array_equal(back.tensors[p], h.tensors[p])


def oracle_save_snapshot(h, path):
    """The snapshot writer before it wrote the tensors' buffers: one
    `.tobytes()` copy per payload."""
    seed = 0 if h.seed is None else int(h.seed) % 2**64
    with open(path, "wb") as f:
        f.write(b"SPGLASS1")
        f.write(struct.pack("<IQdQB", 1, h.n, h.mixture.h, seed, int(h.seed is not None)))
        f.write(struct.pack("<I", len(h.mixture.ps)))
        for p in h.mixture.ps:
            f.write(struct.pack("<Id", p, h.mixture.gammas[p]))
        for p in h.mixture.ps:
            f.write(np.ascontiguousarray(h.tensors[p], dtype="<f8").tobytes())


def test_snapshot_bytes_match_the_copying_writer(tmp_path):
    for m, n, seed, layout in (
        (Mixture({2: 0.6, 4: 1.1}, h=0.25), 5, 321, np.ascontiguousarray),
        (pure(2), 1, None, np.ascontiguousarray),
        (Mixture({2: 1.0, 4: 0.5, 6: 0.2}), 4, 2**70 + 3, np.asfortranarray),
    ):
        h = sample_hamiltonian(m, n, seed=0)
        tensors = {p: layout(t) for p, t in h.tensors.items()}
        h = Hamiltonian(h.mixture, h.n, tensors, seed=seed)
        save_snapshot(h, tmp_path / "new.bin")
        oracle_save_snapshot(h, tmp_path / "old.bin")
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()
        back = load_snapshot(tmp_path / "new.bin")
        for p in m.ps:
            assert back.tensors[p].dtype == np.float64
            assert np.array_equal(back.tensors[p], h.tensors[p])


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(ArgumentError):
        load_snapshot(path)
    path.write_bytes(b"SPGLASS1" + b"\x01" + b"\x00" * 64)  # version 1, n = 0
    with pytest.raises(ArgumentError, match="n=0"):
        load_snapshot(path)


def _snapshot_bytes(tmp_path):
    h = sample_hamiltonian(Mixture({2: 0.6, 4: 1.1}, h=0.25), 5, seed=321)
    save_snapshot(h, tmp_path / "good.bin")
    return (tmp_path / "good.bin").read_bytes()


def test_snapshot_rejects_truncation(tmp_path):
    good = _snapshot_bytes(tmp_path)
    path = tmp_path / "cut.bin"
    for cut in (20, 8 + 29 + 2, 8 + 29 + 4 + 5, len(good) - 8, len(good) - 1):
        path.write_bytes(good[:cut])
        with pytest.raises(ArgumentError, match="truncated"):
            load_snapshot(path)


def test_snapshot_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(_snapshot_bytes(tmp_path) + b"\x00")
    with pytest.raises(ArgumentError, match="trailing"):
        load_snapshot(path)


def test_snapshot_header_checked_against_budget(tmp_path):
    path = tmp_path / "huge.bin"
    for n, p in ((2**40, 2), (2, 2**31)):
        header = b"SPGLASS1" + struct.pack("<IQdQB", 1, n, 0.0, 0, 0) + struct.pack("<I", 1)
        path.write_bytes(header + struct.pack("<Id", p, 1.0))  # no payload at all
        with pytest.raises(ResourceError):
            load_snapshot(path)
