import math

import numpy as np
import pytest

from spinlab.ensembles import CorrelationLadder
from spinlab.errors import ArgumentError, ConstraintError
from spinlab.parisi import PiecewiseZeta, increasify_is, increasify_sp
from spinlab.parisi.increasify import delta_perturb


def test_delta_perturb():
    target = PiecewiseZeta((0.0, 0.3, 0.6), (2.0, 1.2, 0.5))
    pert = delta_perturb(target, 0.2, 0.1)
    assert pert(0.05) == 2.0
    assert pert(0.15) == 1.2  # window [0.1, 0.3) takes the value at 0.3
    assert pert(0.35) == 1.2
    assert pert(0.7) == 0.5


def test_increasify_sp_constant_target():
    res = increasify_sp(PiecewiseZeta.constant(0.8), 0.2, 0.1, beta=4.0)
    assert res.shape.ks == (1,)
    assert res.levels == (0.2,)
    assert res.reconstructed(0) == pytest.approx(0.8, rel=1e-15)


def test_increasify_sp_single_jump_counts():
    target = PiecewiseZeta((0.0, 0.5), (2.0, 0.5))  # downward jump at 0.5
    delta = 0.15
    res = increasify_sp(target, delta, 0.0, beta=8.0)
    assert res.qladder.qs == (0.0, 0.5, 1.0)
    want_k2 = math.floor(2.0 / (delta * 0.5)) + 1
    assert res.shape.ks == (1, want_k2)
    assert res.levels[0] < res.levels[1] < 1.0
    for d, q in enumerate(res.qladder.qs[:-1]):
        assert res.reconstructed(d) == pytest.approx(
            delta_perturb(target, delta, 0.0)(q), rel=1e-12
        )


def test_increasify_sp_decreasing_best_zeta_style():
    # strictly decreasing discretization of a slope profile
    breaks = (0.0, 0.25, 0.5, 0.75)
    values = (3.0, 1.8, 1.0, 0.55)
    target = PiecewiseZeta(breaks, values)
    res = increasify_sp(target, 0.1, 0.05, beta=30.0)
    pert = delta_perturb(target, (1 - 0.05) * 0.1, 0.05)
    for d, q in enumerate(res.qladder.qs[:-1]):
        assert res.reconstructed(d) == pytest.approx(pert(q), rel=1e-12)
    assert all(a < b for a, b in zip(res.levels, res.levels[1:]))


@pytest.mark.parametrize(
    "construct",
    (
        lambda: increasify_sp(PiecewiseZeta((0.0, 0.3, 0.6), (3.0, 1.8, 1.0)), 0.1, 0.05, beta=30.0),
        lambda: increasify_sp(PiecewiseZeta((0.0, 0.5), (2.0, 0.5)), 0.15, 0.0, beta=8.0),
        lambda: increasify_is(PiecewiseZeta((0.0, 0.3, 0.6), (3.0, 1.8, 1.0)), beta=8.0, delta=0.25, q0=0.05),
    ),
)
def test_increasify_takes_p_equal_to_q_exactly(construct):
    """p_0 = 0 and p_d = q_d for d >= 1, bit for bit, on q-ladders such as
    (0.05, 0.3, 0.6, 1) and (0, 0.5, 1): no inversion of a correlation
    function moves a level in its last digits."""
    res = construct()
    assert res.qladder.depth >= 2
    assert res.pladder.ps == (0.0, *res.qladder.qs[1:])


def test_increasify_sp_beta_too_small():
    with pytest.raises(ConstraintError):
        increasify_sp(PiecewiseZeta.constant(5.0), 0.2, 0.0, beta=2.0)


@pytest.mark.parametrize("beta", (0.0, -1.0, math.inf, math.nan))
@pytest.mark.parametrize("construction", ("sp", "is"))
def test_increasify_refuses_a_beta_not_positive_and_finite_before_any_work(monkeypatch, construction, beta):
    def matching(qladder):
        raise AssertionError("the p-ladder is built only after beta is checked")

    monkeypatch.setattr(CorrelationLadder, "matching", matching)
    target = PiecewiseZeta((0.0, 0.5), (2.0, 0.5))
    with pytest.raises(ArgumentError, match="beta"):
        if construction == "sp":
            increasify_sp(target, 0.15, 0.0, beta=beta)
        else:
            increasify_is(target, beta=beta, delta=0.25, q0=0.0)


def test_increasify_is_constant():
    res = increasify_is(PiecewiseZeta.constant(2.0), beta=4.0, delta=0.5, q0=0.0)
    assert res.shape.ks == (16, 16)  # k* = ceil(4 / 0.25)
    assert all(a < b for a, b in zip(res.levels, res.levels[1:]))
    for d in range(len(res.levels)):
        assert res.reconstructed(d) == pytest.approx(2.0, rel=1e-12)


def test_increasify_is_arm_count():
    res = increasify_is(PiecewiseZeta.constant(1.0), beta=4.0, delta=0.5, q0=0.0)
    assert set(res.shape.ks) == {16}
    assert res.shape.n_leaves == 16 ** res.shape.depth


def test_increasify_is_random_bounded(gen):
    for _ in range(5):
        nb = int(gen.integers(1, 4))
        breaks = np.concatenate([[0.0], np.sort(gen.uniform(0.1, 0.9, nb - 1))])
        values = gen.uniform(0.3, 3.0, nb)
        target = PiecewiseZeta(tuple(breaks), tuple(values))
        beta = 8.0
        res = increasify_is(target, beta=beta, delta=0.25, q0=0.1)
        assert all(a < b for a, b in zip(res.levels, res.levels[1:]))
        for d, q in enumerate(res.qladder.qs[:-1]):
            clamped = min(max(target(q), 0.25), beta)
            assert res.reconstructed(d) == pytest.approx(clamped, rel=1e-12)
