import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from spinlab import rng
from spinlab.acceptance import _random_shape_ladders, _random_threshold_mixtures
from spinlab.ensembles import CorrelationLadder, OverlapLadder, TreeShape, chi_align
from spinlab.errors import ArgumentError, DomainError, NumericError
from spinlab.mixture import QUAD_ABS_TOL, Mixture, pure, quadrature, root_xi2_integral, xi_eval
from spinlab.parisi import PiecewiseZeta, alg_sp, b_profile, lambda_recursion, opt_sp_numeric, parisi_sp, theta
from spinlab.parisi.increasify import delta_perturb
from spinlab.parisi.interpolation import composite_profile, kappa_zeta_profile
from spinlab.runner import DEFAULTS, parse_mixture


def test_piecewise_zeta_basics():
    z = PiecewiseZeta((0.0, 0.5), (0.2, 0.7))
    assert z(0.0) == 0.2 and z(0.49) == 0.2 and z(0.5) == 0.7
    assert z.left_limit(0.5) == 0.2
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


def oracle_opt_sp_descent(m: Mixture, grid: int = 200) -> float:
    """Minimize (h^2/B(0) + sum (xi''/B + B)/G) / 2 over positive nondecreasing
    slope profiles B on a midpoint grid, by projected gradient descent with an
    isotonic projection after each step, for at most 4000 steps and until an
    accepted step improves by less than 1e-12.  Deterministic given the fixed
    initialization B = sqrt(max(xi''(1), h^2 + xi'(1)))."""
    if grid < 16:
        raise ArgumentError(f"grid={grid} must be >= 16")
    ts = (np.arange(grid) + 0.5) / grid
    xi2 = np.array([xi_eval(m, t, 2) for t in ts])
    h2 = m.h**2
    floor = 1e-8

    def objective(bvec):
        return 0.5 * (h2 / bvec[0] + np.sum(xi2 / bvec + bvec) / grid)

    def grad(bvec):
        g = 0.5 * (1.0 - xi2 / bvec**2) / grid
        g[0] -= 0.5 * h2 / bvec[0] ** 2
        return g

    b = np.full(grid, math.sqrt(max(xi_eval(m, 1.0, 2), h2 + xi_eval(m, 1.0, 1))))
    best = objective(b)
    lr = 1.0
    for _ in range(4000):
        step = b - lr * grad(b)
        step = np.maximum(isotonic_regression(step, increasing=True).x, floor)
        val = objective(step)
        if val < best - 1e-16:
            improvement = best - val
            b, best = step, val
            lr = min(lr * 1.3, 1e3)
            if improvement < 1e-12:
                break
        else:
            lr *= 0.5
            if lr < 1e-14:
                break
    return float(best)


@pytest.mark.parametrize(
    "m",
    [*_random_threshold_mixtures(), pure(2), pure(4), pure(4, h=3.0), Mixture({2: 1.0, 4: 1.0})],
)
def test_opt_sp_numeric_is_the_minimum_the_descent_oracle_approaches(m):
    """The closed form is never above the descent it replaced, and the descent
    stops at most 3e-9 short of it (2.3e-9 on pure p4)."""
    closed, descent = opt_sp_numeric(m), oracle_opt_sp_descent(m)
    assert closed <= descent <= closed + 3e-9


def test_opt_sp_numeric_exact_cases():
    assert abs(opt_sp_numeric(pure(4)) - math.sqrt(3.0)) <= 1e-15  # mean of sqrt(12) t_i
    with np.errstate(all="raise"):  # the zero model: 0, the infimum as B -> 0; with a field, h
        assert opt_sp_numeric(Mixture({2: 0.0})) == 0.0
        assert opt_sp_numeric(Mixture({2: 0.0}, h=0.7)) == pytest.approx(0.7, abs=1e-15)


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


# --- the Gauss-Legendre quadrature against scipy's adaptive `quad` -------------
# The oracles below are the quad forms of parisi_sp, root_xi2_integral and
# lambda_recursion's bound that `quadrature` replaced, at the tolerance quad
# was asked for.


def quad_parisi_sp(B, zeta, m):
    from scipy.integrate import quad

    segs = zeta.segments()
    tails = [0.0] * (len(segs) + 1)  # tails[i] = int_{segs[i].lo}^1 xi'' zeta
    for i in range(len(segs) - 1, -1, -1):
        a, b, v = segs[i]
        tails[i] = tails[i + 1] + v * (xi_eval(m, b, 1) - xi_eval(m, a, 1))
    total = m.h**2 / (B - tails[0])
    for i, (a, b, v) in enumerate(segs):
        tail_b, xi1_b = tails[i + 1], xi_eval(m, b, 1)

        def integrand(t):
            bz = B - tail_b - v * (xi1_b - xi_eval(m, t, 1))
            return xi_eval(m, t, 2) / bz + bz

        total += quad(integrand, a, b, epsabs=QUAD_ABS_TOL, limit=200)[0]
    return 0.5 * total


def quad_root_xi2(m, lo, hi):
    from scipy.integrate import quad

    return quad(lambda q: math.sqrt(xi_eval(m, q, 2)), lo, hi, epsabs=QUAD_ABS_TOL, limit=200)[0]


def quad_lambda_bound(B, zeta, shape, pladder, qladder, m, a, lam):
    from scipy.integrate import quad

    kz = kappa_zeta_profile(shape, pladder, qladder, [zeta(q) for q in qladder.qs[:-1]])
    q0, field = qladder.qs[0], m.h + (lam - B) * a
    tail = sum(
        quad(lambda q: xi_eval(m, q, 2) / b_profile(B, kz, m, q), lo, hi, epsabs=QUAD_ABS_TOL, limit=200)[0]
        for lo, hi, _v in kz.segments(q0, 1.0)
    )
    return 0.5 * shape.n_leaves * ((field**2 + xi_eval(m, q0, 1)) / b_profile(B, kz, m, q0) + tail - B * a**2)


def _threshold_mixtures():
    """Criterion 3's mixtures, the demos', this module's and the CLI's."""
    out = [pure(4), pure(4, h=3.0), pure(4, h=1.0), pure(2), Mixture({2: 1.0, 4: 1.0}),
           Mixture({2: 0.5, 6: 0.8}, h=0.7), Mixture({2: 0.7, 4: 0.6}), Mixture({2: 0.5, 4: 1.0})]
    out += [parse_mixture(s) for s in ("p2", "p4", "p2+p4")]
    gen = rng.stream(3, "acc-thresholds")
    for _ in range(20):
        gammas = {2: float(gen.uniform(0, 1.2)), 4: float(gen.uniform(0, 1.2))}
        if gen.random() < 0.5:
            gammas[6] = float(gen.uniform(0, 0.8))
        h = float(gen.uniform(0, 1.5)) if gen.random() < 0.5 else 0.0
        out.append(Mixture(gammas, h=h))
    return out


def _parisi_cases():
    """(B, zeta, m): this module's and the demos' fixtures, test_interpolation's
    composites, and the composite of `sandwich` at its CLI defaults."""
    m4 = pure(4)
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 2001)])
    best = PiecewiseZeta(tuple(edges[:-1]), (0.0, *(1 / math.sqrt(12.0) / b**2 for b in edges[2:])))
    cases = [(2.0, PiecewiseZeta.zero(), Mixture({2: 0.8}, h=0.5)), (math.sqrt(12.0), best, m4)]
    cases += [(b, PiecewiseZeta.zero(), pure(2)) for b in (1.2, math.sqrt(2.0), 1.6, 2.0)]
    m, zl = Mixture({2: 0.7, 4: 0.6}), PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 0.3, 0.7))
    shape, pl, ql = TreeShape((2, 2)), CorrelationLadder((0.0, 0.4, 1.0)), OverlapLadder((0.1, 0.5, 1.0))
    cases.append((3.5, composite_profile(PiecewiseZeta.zero(), zl, 2.0, shape, pl, ql), m))
    shape1, pl1, ql1 = TreeShape((1,)), CorrelationLadder((0.0, 1.0)), OverlapLadder((0.2, 1.0))
    z1 = PiecewiseZeta((0.0, 0.2), (0.0, 0.4))
    cases.append((2.5, composite_profile(PiecewiseZeta.zero(), z1, 2.0, shape1, pl1, ql1), m))
    cfg = DEFAULTS["sandwich"]
    ql = OverlapLadder(tuple(cfg["qladder"]))
    shape, m2 = TreeShape(tuple(cfg["ks"])), parse_mixture(cfg["mixture"])
    zeta = PiecewiseZeta.on_knots(ql.qs[:-1], np.linspace(0.2, 0.8, ql.depth))
    comp = composite_profile(PiecewiseZeta.zero(), zeta, cfg["beta"], shape, chi_align(lambda p: p, ql), ql)
    cases.append((math.sqrt(max(m2.xi(1.0, 2), 1.0)) + comp.integral_xi2(m2), comp, m2))
    return cases


def _recursion_cases():
    """(B, zeta, shape, pladder, qladder, m, a, lam): criterion 7's 20 trials,
    demo 06's and test_interpolation's recursions."""
    m, zl = Mixture({2: 0.7, 4: 0.6}), PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 0.3, 0.7))
    pl, ql = CorrelationLadder((0.0, 0.4, 1.0)), OverlapLadder((0.1, 0.5, 1.0))
    cases = [(2.5, zl, TreeShape((2, 3)), pl, ql, m, 0.3, 0.4), (2.5, zl, TreeShape((2, 2)), pl, ql, m, 0.3, 0.4),
             (3.0, PiecewiseZeta((0.0, 0.2), (0.0, 0.4)), TreeShape((1,)), CorrelationLadder((0.0, 1.0)),
              OverlapLadder((0.2, 1.0)), m, 0.1, 0.2)]
    for trial in range(20):
        g2 = rng.stream(7, "acc-lambda", trial)
        shape, pl, ql = _random_shape_ladders(g2)
        raw = np.sort(g2.uniform(0.02, 0.9, ql.depth))
        levels = tuple(raw / max(raw[-1] + 0.05, 1.0))
        zeta = PiecewiseZeta.on_knots(ql.qs[:-1], levels)
        mm = Mixture({2: float(g2.uniform(0.2, 1.0)), 4: float(g2.uniform(0.0, 0.8))})
        kz = kappa_zeta_profile(shape, pl, ql, [zeta(q) for q in ql.qs[:-1]])
        big_b = kz.integral_xi2(mm, ql.qs[0], 1.0) + float(g2.uniform(0.5, 2.0))
        cases.append((big_b, zeta, shape, pl, ql, mm, float(g2.uniform(-1, 1)), float(g2.uniform(0, 1))))
    return cases


def test_quadrature_matches_quad():
    for B, zeta, m in _parisi_cases():
        assert abs(parisi_sp(B, zeta, m) - quad_parisi_sp(B, zeta, m)) <= QUAD_ABS_TOL, (B, zeta, m)
    for m in _threshold_mixtures():
        q_hat = alg_sp(m)[2]
        for lo, hi in ((q_hat, 1.0), (0.0, 1.0), (0.0, 0.25), (0.25, 0.75)):
            assert abs(root_xi2_integral(m, lo, hi) - quad_root_xi2(m, lo, hi)) <= QUAD_ABS_TOL, (m, lo, hi)
    for case in _recursion_cases():
        res = lambda_recursion(*case[:6], a=case[6], lam=case[7])
        assert abs(res.bound - quad_lambda_bound(*case)) <= QUAD_ABS_TOL, case


def test_quadrature_rule():
    # a degree-39 polynomial is exact on one panel; a kink on a panel edge is
    # exact once the panels split there; a pole the rule cannot settle raises.
    # Near B = int xi'' zeta = 2 (pure p2, zeta = 1) the integrand peaks at
    # t = 0: panels halve there, and B_zeta = slack + 2t keeps its digits
    for eps in (1e-4, 1e-9, 1e-12):
        slack = (2.0 + eps) - 2.0
        want = 0.5 * (math.log1p(2 / slack) + 1 + slack)
        assert parisi_sp(2.0 + eps, PiecewiseZeta.constant(1.0), pure(2)) == pytest.approx(want, abs=QUAD_ABS_TOL)
    assert quadrature(lambda t: 40 * t**39, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert quadrature(lambda t: np.abs(t - 0.25), 0.0, 1.0) == pytest.approx(0.3125, abs=1e-15)
    assert quadrature(np.sqrt, 0.5, 0.5) == 0.0
    with pytest.raises(NumericError, match="did not settle"), np.errstate(divide="ignore"):
        quadrature(lambda t: 1.0 / np.abs(t - 0.3), 0.0, 1.0)
