import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlab.errors import ArgumentError, DomainError
from spinlab.mixture import Mixture, pure, xi_eval
from spinlab.parisi import PiecewiseZeta, alg_sp, b_profile, opt_sp_numeric, parisi_sp, theta
from spinlab.parisi.increasify import delta_perturb


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


def test_splice():
    under = PiecewiseZeta((0.0, 0.1), (0.5, 0.8))
    comp = under.splice(0.3, 1.0, PiecewiseZeta((0.0, 0.6), (2.0, 3.0)))
    assert comp(0.05) == 0.5 and comp(0.2) == 0.8
    assert comp(0.3) == 2.0 and comp(0.7) == 3.0
    inner = under.splice(0.05, 0.2, PiecewiseZeta.constant(0.8))
    assert (inner.breaks, inner.values) == ((0.0, 0.05), (0.5, 0.8))
    empty = under.splice(0.3, 0.3, PiecewiseZeta.constant(9.0))
    assert (empty.breaks, empty.values) == (under.breaks, under.values)
    for lo, hi in ((0.5, 0.2), (-0.1, 0.5), (0.2, 1.5), (1.0, 1.0)):
        with pytest.raises(ArgumentError):
            under.splice(lo, hi, PiecewiseZeta.zero())


# -- the segment walks that PiecewiseZeta.splice replaced, kept as oracles ----------


def oracle_delta_perturb(target: PiecewiseZeta, delta: float, x: float) -> PiecewiseZeta:
    """Replace the target on [x, x + delta) by its value at x + delta."""
    if delta <= 0.0:
        return target
    hi = x + delta
    if hi >= 1.0:
        raise ArgumentError(f"perturbation window [{x}, {hi}) leaves [0, 1)")
    breaks, values = [], []
    for a, b, v in target.segments():
        if b <= x or a >= hi:
            breaks.append(a)
            values.append(v)
        else:
            if a < x:
                breaks.append(a)
                values.append(v)
            if not breaks or breaks[-1] < x:
                breaks.append(x)
                values.append(target(hi))
            if b > hi:
                breaks.append(hi)
                values.append(v)
    out_b, out_v = [breaks[0]], [values[0]]
    for b, v in zip(breaks[1:], values[1:]):
        if b == out_b[-1]:
            out_v[-1] = v
        else:
            out_b.append(b)
            out_v.append(v)
    return PiecewiseZeta(tuple(out_b), tuple(out_v))


def oracle_compose_under_over(under: PiecewiseZeta, q0: float, over_breaks, over_values) -> PiecewiseZeta:
    """Profile equal to `under` on [0, q0) and to the given steps on [q0, 1)."""
    if q0 <= 0.0:
        return PiecewiseZeta(over_breaks, over_values)
    if over_breaks[0] > q0:
        raise ArgumentError("over-profile does not cover q0")
    breaks, values = [], []
    for a, _b, v in under.segments(0.0, q0):
        breaks.append(a)
        values.append(v)
    head = None
    started = False
    for b, v in zip(over_breaks, over_values):
        if b <= q0:
            head = v
            continue
        if not started:
            breaks.append(q0)
            values.append(head)
            started = True
        breaks.append(float(b))
        values.append(float(v))
    if not started:
        breaks.append(q0)
        values.append(head)
    return PiecewiseZeta(tuple(breaks), tuple(values))


# cut points on a coarse grid make cuts land on breaks, and a few shared
# levels make equal-valued neighbours, beside arbitrary floats
POINTS = st.one_of(st.sampled_from([k / 10 for k in range(10)]), st.floats(0.0, 1.0, exclude_max=True))
LEVELS = st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 10.0))


@st.composite
def profiles(draw):
    inner = sorted(draw(st.sets(POINTS.filter(lambda b: b > 0.0), max_size=5)))
    values = draw(st.lists(LEVELS, min_size=len(inner) + 1, max_size=len(inner) + 1))
    return [0.0, *inner], values


def _outcome(fn, *args):
    try:
        z = fn(*args)
    except Exception as exc:  # the error type is the outcome compared
        return type(exc)
    return z.breaks, z.values


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(target=profiles(), x=POINTS, delta=st.one_of(st.just(0.0), POINTS, st.floats(0.0, 2.0)))
@example(target=([0.0, 0.3, 0.6], [2.0, 1.2, 0.5]), x=0.3, delta=0.3)  # both cuts on breaks
@example(target=([0.0, 0.3, 0.6], [2.0, 1.2, 0.5]), x=0.0, delta=0.2)  # lo = 0
@example(target=([0.0, 0.3, 0.6], [2.0, 2.0, 0.5]), x=0.1, delta=0.3)  # equal-valued pieces
@example(target=([0.0, 0.5], [1.0, 0.5]), x=0.4, delta=0.0)  # delta = 0
@example(target=([0.0], [0.0]), x=0.1, delta=1e-247)  # x + delta rounds to x
@example(target=([0.0, 0.5], [1.0, 0.5]), x=0.4, delta=0.6)  # x + delta = 1
@example(target=([0.0, 0.5], [1.0, 0.5]), x=0.9, delta=0.5)  # x + delta > 1
def test_delta_perturb_matches_the_segment_walk(target, x, delta):
    target = PiecewiseZeta(*target)
    got = _outcome(delta_perturb, target, delta, x)
    assert got == _outcome(oracle_delta_perturb, target, delta, x)
    if delta > 0.0 and x + delta >= 1.0:
        assert got is ArgumentError


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(under=profiles(), q0=POINTS, over=profiles())
@example(under=([0.0, 0.1], [0.5, 0.8]), q0=0.3, over=([0.0, 0.3, 0.6], [9.0, 2.0, 3.0]))  # q0 on a break
@example(under=([0.0, 0.1], [0.5, 0.8]), q0=0.0, over=([0.0, 0.6], [2.0, 3.0]))  # lo = 0
@example(under=([0.0, 0.1], [0.5, 0.8]), q0=0.3, over=([0.0, 0.6], [0.8, 0.8]))  # equal across q0
def test_splice_to_the_top_matches_compose_under_over(under, q0, over):
    """under.splice(q0, 1, over) against the under/over walk given over's
    steps from q0 on."""
    under, piece = PiecewiseZeta(*under), PiecewiseZeta(*over)
    knots = [q0, *(b for b in piece.breaks if b > q0)]
    got = _outcome(under.splice, q0, 1.0, piece)
    assert got == _outcome(oracle_compose_under_over, under, q0, knots, [piece(k) for k in knots])
