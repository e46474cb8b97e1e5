import math

import numpy as np
import pytest

from spinlab import rng
from spinlab.errors import ArgumentError, DomainError, ResourceError
from spinlab.hamiltonian import (
    Hamiltonian,
    energy,
    gradient,
    hessian,
    hessian_apply,
    load_snapshot,
    op_norm_probe,
    restricted_top_eigvec,
    sample_hamiltonian,
    save_snapshot,
)
from spinlab.mixture import Mixture, pure
from spinlab.points import sphere_point

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


def test_op_norm_probe_field_exact():
    h = sample_hamiltonian(Mixture({2: 0.0}, h=0.9), 12, seed=0)
    val = op_norm_probe(h, 1, 1.0, trials=2, seed=0)
    assert val == pytest.approx(0.9, abs=1e-9)


def test_op_norm_probe_p2_vs_dense():
    h = sample_hamiltonian(pure(2), 16, seed=8)
    g = h.tensors[2]
    want = float(np.max(np.abs(np.linalg.eigvalsh(16 ** (-0.5) * (g + g.T)))))
    got = op_norm_probe(h, 2, 1.0, trials=8, seed=1)
    assert abs(got - want) / want <= 0.02


def test_op_norm_probe_monotone_in_trials():
    h = sample_hamiltonian(pure(4), 8, seed=9)
    lo = op_norm_probe(h, 2, 1.0, trials=3, seed=5, iters=10)
    hi = op_norm_probe(h, 2, 1.0, trials=10, seed=5, iters=10)
    assert hi >= lo


def test_op_norm_probe_argument_errors():
    h = sample_hamiltonian(pure(2), 8, seed=0)
    with pytest.raises(ArgumentError):
        op_norm_probe(h, 4, 1.0, 1, 0)
    with pytest.raises(ArgumentError):
        op_norm_probe(h, 1, 0.5, 1, 0)


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


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(ArgumentError):
        load_snapshot(path)
