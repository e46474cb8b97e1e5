import math

import numpy as np
import pytest

from spinlab.errors import ArgumentError, DomainError
from spinlab.mixture import Mixture, pure, xi_eval
from spinlab.parisi import PiecewiseZeta, alg_sp, b_profile, opt_sp_numeric, parisi_sp, theta
from spinlab.parisi.zeta import compose_under_over


def test_piecewise_zeta_basics():
    z = PiecewiseZeta((0.0, 0.5), (0.2, 0.7))
    assert z(0.0) == 0.2 and z(0.49) == 0.2 and z(0.5) == 0.7
    assert z.left_limit(0.5) == 0.2
    assert z.is_monotone
    assert not PiecewiseZeta((0.0, 0.5), (0.7, 0.2)).is_monotone
    with pytest.raises(ArgumentError):
        PiecewiseZeta((0.1,), (1.0,))
    with pytest.raises(ArgumentError):
        PiecewiseZeta((0.0, 0.5), (1.0, -0.1))
    # equal adjacent segments merge
    zm = PiecewiseZeta((0.0, 0.3, 0.6), (1.0, 1.0, 2.0))
    assert zm.breaks == (0.0, 0.6)


def test_b_profile():
    m = pure(2)
    z0 = PiecewiseZeta.zero()
    assert b_profile(3.0, z0, m, 0.0) == 3.0
    zc = PiecewiseZeta.constant(0.4)
    assert b_profile(3.0, zc, m, 1.0) == 3.0
    # xi'' = 2: B - 2 c (1 - t)
    assert b_profile(3.0, zc, m, 0.25) == pytest.approx(3.0 - 2 * 0.4 * 0.75)


def test_parisi_sp_constant_zeta():
    m = Mixture({2: 0.8}, h=0.5)
    got = parisi_sp(2.0, PiecewiseZeta.zero(), m)
    want = 0.5 * (0.25 / 2.0 + xi_eval(m, 1.0, 1) / 2.0 + 2.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_parisi_sp_amgm_point():
    assert parisi_sp(math.sqrt(2.0), PiecewiseZeta.zero(), pure(2)) == pytest.approx(
        math.sqrt(2.0), abs=1e-9
    )


def test_parisi_sp_infeasible():
    with pytest.raises(DomainError):
        parisi_sp(0.1, PiecewiseZeta.constant(1.0), pure(2))


def test_parisi_sp_best_zeta_x4():
    m4 = pure(4)
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 2001)])
    vals = [0.0] + [1 / math.sqrt(12.0) / b**2 for b in edges[2:]]
    z = PiecewiseZeta(tuple(edges[:-1]), tuple(vals))
    assert parisi_sp(math.sqrt(12.0), z, m4) == pytest.approx(math.sqrt(3.0), abs=1e-3)


def test_alg_sp_closed_forms():
    value, tag, q_hat = alg_sp(pure(4))
    assert value == pytest.approx(2 * math.sqrt(3.0 / 4.0), abs=1e-12)
    assert tag == "rsb" and q_hat == pytest.approx(0.0, abs=1e-9)
    value, tag, _ = alg_sp(pure(2))
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert tag == "replica-symmetric"


def test_alg_sp_with_field_variational_crosscheck():
    m = pure(4, h=1.0)
    value, tag, q_hat = alg_sp(m)
    # q_hat solves 1 + 4 q^3 = 12 q^3
    assert q_hat == pytest.approx(0.5, abs=1e-9)
    assert tag == "rsb"
    assert value == pytest.approx(opt_sp_numeric(m, grid=200), abs=1e-3)


def test_opt_sp_numeric():
    assert opt_sp_numeric(pure(2)) == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert opt_sp_numeric(pure(4, h=3.0)) == pytest.approx(math.sqrt(13.0), abs=1e-3)
    with pytest.raises(ArgumentError):
        opt_sp_numeric(pure(2), grid=8)


def test_alg_le_opt_random(gen):
    for _ in range(10):
        gammas = {2: float(gen.uniform(0, 1.2)), 4: float(gen.uniform(0, 1.2))}
        h = float(gen.uniform(0, 1.5)) if gen.random() < 0.5 else 0.0
        m = Mixture(gammas, h=h)
        assert alg_sp(m)[0] <= opt_sp_numeric(m) + 1e-3


def test_theta():
    m = pure(2)
    assert theta(m, 0.3, 0.3) == 0.0
    assert theta(m, 0.0, 0.5) == pytest.approx(0.25)  # xi = x^2: theta = q^2
    m2 = Mixture({2: 0.5, 4: 1.0})
    q0 = 0.2
    for q in (0.3, 0.6, 0.9):
        fd = (theta(m2, q0, q + 1e-6) - theta(m2, q0, q - 1e-6)) / 2e-6
        assert fd == pytest.approx((q - q0) * xi_eval(m2, q, 2), abs=1e-8)
    with pytest.raises(ArgumentError):
        theta(m, 0.5, 0.3)


def test_compose_under_over():
    under = PiecewiseZeta((0.0, 0.1), (0.5, 0.8))
    comp = compose_under_over(under, 0.3, (0.3, 0.6), (2.0, 3.0))
    assert comp(0.05) == 0.5 and comp(0.2) == 0.8
    assert comp(0.3) == 2.0 and comp(0.7) == 3.0
