import math

import numpy as np
import pytest
from scipy.integrate import quad

from spinlab import rng
from spinlab.ensembles import CorrelationLadder, OverlapLadder, TreeShape, kappa_level, m_matrix
from spinlab.errors import ArgumentError, DomainError
from spinlab.mixture import Mixture, xi_eval
from spinlab.parisi import (
    PiecewiseZeta,
    b_profile,
    cascade_value,
    gaussian_quadratic_logmoment,
    interpolation_bound_sp,
    lambda_recursion,
    parisi_sp,
    theta,
)
from spinlab.parisi.interpolation import composite_profile, kappa_zeta_profile
from spinlab.parisi.spherical import QUAD_ABS_TOL

M = Mixture({2: 0.7, 4: 0.6})
SHAPE = TreeShape((2, 2))
PL = CorrelationLadder((0.0, 0.4, 1.0))
QL = OverlapLadder((0.1, 0.5, 1.0))
ZL = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 0.3, 0.7))


def test_cascade_zero_levels():
    z_small = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 1e-12, 2e-12))
    assert cascade_value(SHAPE, PL, QL, z_small, M) == pytest.approx(0.0, abs=1e-9)


def test_cascade_single_level_formula():
    shape = TreeShape((3,))
    pl = CorrelationLadder((0.0, 1.0))
    ql = OverlapLadder((0.2, 1.0))
    z = PiecewiseZeta((0.0, 0.2), (0.0, 0.4))
    got = cascade_value(shape, pl, ql, z, M)
    want = 0.5 * 3 * 0.4 * theta(M, 0.2, 1.0)  # kappa = 1 for D = 1
    assert got == pytest.approx(want, abs=1e-12)


def oracle_cascade_value_integral(shape, pladder, qladder, zeta, m):
    """(K/2) integral_{q0}^1 (q - q0) xi''(q) kappa(q) zeta(q) dq, by
    quadrature interval by interval: the cross-check of cascade_value's
    closed form."""
    q0 = qladder.qs[0]
    total = 0.0
    for d in range(shape.depth):
        kap = kappa_level(shape, pladder, d + 1)
        a, b = qladder.qs[d], qladder.qs[d + 1]
        val, _ = quad(
            lambda q: (q - q0) * xi_eval(m, q, 2) * kap * zeta(min(q, np.nextafter(1.0, 0.0))),
            a,
            b,
            epsabs=QUAD_ABS_TOL,
            limit=200,
        )
        total += val
    return 0.5 * shape.n_leaves * total


def test_cascade_closed_equals_integral():
    closed = cascade_value(SHAPE, PL, QL, ZL, M)
    integral = oracle_cascade_value_integral(SHAPE, PL, QL, ZL, M)
    assert closed == pytest.approx(integral, abs=1e-10)


def test_cascade_rejects_bad_levels():
    z_bad = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 0.7, 0.3))
    with pytest.raises(ArgumentError):
        cascade_value(SHAPE, PL, QL, z_bad, M)


def test_cascade_monte_carlo():
    levels = (0.3, 0.7)
    closed = cascade_value(SHAPE, PL, QL, ZL, M)
    total, var = 0.0, 0.0
    gen = rng.stream(7, "test-cascade-mc")
    n = 400_000
    for d in range(SHAPE.depth):
        mat = m_matrix(SHAPE, PL, d + 1)
        dtheta = theta(M, QL.qs[0], QL.qs[d + 1]) - theta(M, QL.qs[0], QL.qs[d])
        vals, vecs = np.linalg.eigh(mat)
        root = vecs * np.sqrt(np.clip(vals, 0, None)) @ vecs.T
        y = (gen.standard_normal((n, 4)) @ root.T).sum(axis=1) * math.sqrt(dtheta)
        z = levels[d]
        ymax = float(y.max())
        w = np.exp(z * (y - ymax))
        total += (math.log(w.mean()) + z * ymax) / z
        var += (w.std() / w.mean() / math.sqrt(n) / z) ** 2
    assert abs(total - closed) <= 3 * math.sqrt(var)


def test_gaussian_logmoment_reductions():
    lam = np.array([[2.0]])
    sig = np.array([[1.0]])
    got = gaussian_quadratic_logmoment(lam, sig, 1.0, np.zeros(1), np.array([1.0]))
    assert got == pytest.approx(0.5 + 0.5 * math.log(2.0), abs=1e-12)
    # v = 0, y = 0 reduces to the log-determinant ratio
    gen = rng.stream(51)
    a = gen.standard_normal((3, 3))
    lam = a @ a.T + 4 * np.eye(3)
    b = gen.standard_normal((3, 3))
    sig = b @ b.T / 3
    zeta = 0.7
    got = gaussian_quadratic_logmoment(lam, sig, zeta, np.zeros(3), np.zeros(3))
    want = 0.5 / zeta * (np.linalg.slogdet(lam)[1] - np.linalg.slogdet(lam - zeta * sig)[1])
    assert got == pytest.approx(want, abs=1e-12)


def test_gaussian_logmoment_pd_check():
    with pytest.raises(DomainError):
        gaussian_quadratic_logmoment(np.eye(2), np.eye(2), 2.0, np.zeros(2), np.zeros(2))


def test_gaussian_logmoment_monte_carlo():
    gen = rng.stream(52)
    a = gen.standard_normal((3, 3))
    lam = a @ a.T + 3 * np.eye(3)
    b = gen.standard_normal((3, 3))
    sig = b @ b.T / 3 + 0.2 * np.eye(3)
    zeta, v, y = 0.8, gen.standard_normal(3) * 0.3, gen.standard_normal(3)
    closed = gaussian_quadratic_logmoment(lam, sig, zeta, v, y)
    n = 400_000
    eta = gen.standard_normal((n, 3)) @ np.linalg.cholesky(sig).T
    linv = np.linalg.inv(lam)
    expo = 0.5 * zeta * (np.einsum("ij,jk,ik->i", y + eta, linv, y + eta) - 2 * (y + eta) @ v)
    mx = float(expo.max())
    w = np.exp(expo - mx)
    est = (math.log(w.mean()) + mx) / zeta
    se = w.std() / w.mean() / math.sqrt(n) / zeta
    assert abs(est - closed) <= 3 * se


def test_lambda_recursion_zero_levels():
    z0 = PiecewiseZeta.zero()
    res = lambda_recursion(2.5, z0, SHAPE, PL, QL, M, a=0.3, lam=0.4)
    for mat in res.sequence.matrices:
        assert np.allclose(mat, 2.5 * np.eye(4))
    assert res.sequence.logdet_increments == [0.0, 0.0]
    assert res.value <= res.bound + 1e-8


def test_lambda_recursion_scalar_matches_b_profile():
    shape1 = TreeShape((1,))
    pl1 = CorrelationLadder((0.0, 1.0))
    ql1 = OverlapLadder((0.2, 1.0))
    z1 = PiecewiseZeta((0.0, 0.2), (0.0, 0.4))
    res = lambda_recursion(3.0, z1, shape1, pl1, ql1, M, a=0.1, lam=0.2)
    assert res.sequence.matrices[0][0, 0] == pytest.approx(b_profile(3.0, z1, M, 0.2), abs=1e-12)


def test_lambda_recursion_telescoping():
    res = lambda_recursion(2.5, ZL, SHAPE, PL, QL, M, a=0.3, lam=0.4)
    seq = res.sequence
    ones = np.ones(4)
    tele = sum(
        float(ones @ (np.linalg.inv(seq.matrices[d]) - np.linalg.inv(seq.matrices[d + 1])) @ ones)
        for d in range(seq.depth)
    )
    want = float(ones @ np.linalg.inv(seq.matrices[0]) @ ones) - 4 / 2.5
    assert abs(tele - want) <= 1e-10


def test_lambda_recursion_floor():
    res = lambda_recursion(2.5, ZL, SHAPE, PL, QL, M, a=0.3, lam=0.4)
    kz = kappa_zeta_profile(SHAPE, PL, QL, [ZL(q) for q in QL.qs[:-1]])
    for d, mat in enumerate(res.sequence.matrices):
        floor = b_profile(2.5, kz, M, QL.qs[d])
        assert float(np.linalg.eigvalsh(mat).min()) >= floor - 1e-10


def test_lambda_recursion_infeasible():
    heavy = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 5.0, 9.0))
    with pytest.raises(DomainError):
        lambda_recursion(0.5, heavy, SHAPE, PL, QL, M)


def test_interpolation_bound():
    # eta -> 0, C = 0 reduces to K * parisi_sp of the composite
    comp = composite_profile(PiecewiseZeta.zero(), ZL, 2.0, SHAPE, PL, QL)
    want = 4 * parisi_sp(3.5, comp, M)
    got = interpolation_bound_sp(
        3.5, PiecewiseZeta.zero(), ZL, 2.0, 1e-300, SHAPE, PL, QL, M, C=0.0, n=64
    )
    assert got == pytest.approx(want, rel=1e-12)
    # K = 1: single Parisi term plus the error budget
    shape1, pl1, ql1 = TreeShape((1,)), CorrelationLadder((0.0, 1.0)), OverlapLadder((0.2, 1.0))
    z1 = PiecewiseZeta((0.0, 0.2), (0.0, 0.4))
    comp1 = composite_profile(PiecewiseZeta.zero(), z1, 2.0, shape1, pl1, ql1)
    got = interpolation_bound_sp(
        2.5, PiecewiseZeta.zero(), z1, 2.0, 0.05, shape1, pl1, ql1, M, C=1.0, n=100
    )
    err = 1.0 * (2.0 * 0.05 + 2.5 * 0.05 + math.log(1 / 0.05) / 2.0 + 0.1)
    assert got == pytest.approx(parisi_sp(2.5, comp1, M) + err, rel=1e-12)
    with pytest.raises(DomainError):
        interpolation_bound_sp(0.1, PiecewiseZeta.zero(), ZL, 2.0, 0.05, SHAPE, PL, QL, M, 1.0, 64)


@pytest.mark.parametrize("eta", (0.0, -0.1, math.nan, math.inf))
def test_interpolation_bound_refuses_a_non_positive_or_non_finite_eta(eta):
    # log(1/eta) divided by zero at 0 and left the real line below it
    with pytest.raises(DomainError, match="eta"):
        interpolation_bound_sp(3.5, PiecewiseZeta.zero(), ZL, 2.0, eta, SHAPE, PL, QL, M, 1.0, 64)


def test_interpolation_bound_refuses_a_nan_beta_or_b():
    for b, beta in ((3.5, math.nan), (math.nan, 2.0)):
        with pytest.raises(DomainError, match="beta"):
            interpolation_bound_sp(b, PiecewiseZeta.zero(), ZL, beta, 0.05, SHAPE, PL, QL, M, 1.0, 64)


def test_composite_profile_pointwise():
    comp = composite_profile(PiecewiseZeta.zero(), ZL, 2.0, SHAPE, PL, QL)
    levels = [ZL(q) for q in QL.qs[:-1]]
    for q in np.linspace(0.0, 0.999, 50):
        if q < QL.qs[0]:
            want = 0.0
        else:
            d = next(dd for dd in range(1, QL.depth + 1) if q < QL.qs[dd])
            want = 2.0 * kappa_level(SHAPE, PL, d) * levels[d - 1]
        assert comp(q) == pytest.approx(want, abs=1e-12)
