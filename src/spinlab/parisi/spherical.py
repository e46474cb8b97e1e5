"""Spherical Parisi functional, exact segment by segment of zeta, the
closed-form algorithmic threshold ALG and its minimizing zeta
(`_slope_profile`), and `opt_sp_numeric`, the midpoint discretization of
ALG over nondecreasing slope profiles, computed in closed form as the mean
root of one isotonic fit (it computes ALG, not OPT; the ROADMAP's OPT item
gives it an honest key later)."""

import math

import numpy as np
from scipy.optimize import isotonic_regression

from ..errors import ArgumentError, DomainError
from ..mixture import Mixture, root_xi2_integral, xi_eval
from .zeta import PiecewiseZeta


def b_profile(B: float, zeta: PiecewiseZeta, m: Mixture, t: float) -> float:
    """B_zeta(t) = B - integral_t^1 xi''(q) zeta(q) dq, exactly."""
    if not (0.0 <= t <= 1.0):
        raise ArgumentError(f"t={t} outside [0, 1]")
    if t >= 1.0:
        return B
    return B - zeta.integral_xi2(m, t, 1.0)


def parisi_sp(B: float, zeta: PiecewiseZeta, m: Mixture) -> float:
    """P(B, zeta) = (h^2 / B_zeta(0) + integral_0^1 (xi''/B_zeta + B_zeta)) / 2.

    Requires B > integral xi'' zeta (so B_zeta > 0 on [0, 1]).  Both
    integrals are exact: xi''/B_zeta by `xi2_over_b_integral`, and B_zeta by
    Fubini, integral_0^1 B_zeta = B - integral_0^1 t xi''(t) zeta(t) dt.
    """
    slack = b_profile(B, zeta, m, 0.0)
    if slack <= 0.0:
        raise DomainError(f"(B, zeta) infeasible: B - int xi'' zeta = {slack:.3g} <= 0")
    return 0.5 * (m.h**2 / slack + xi2_over_b_integral(B, zeta, m, 0.0) + B - zeta.integral_t_xi2(m))


def xi2_over_b_integral(B: float, zeta: PiecewiseZeta, m: Mixture, lo: float) -> float:
    """integral_lo^1 xi''/B_zeta, exactly, for B_zeta > 0 on [lo, 1].

    On a segment [a, b] where zeta = v, B_zeta(t) = B_zeta(a) + v (xi'(t) -
    xi'(a)), so the segment adds log1p(v dxi'/B_zeta(a)) / v, or dxi'/B_zeta(a)
    at v = 0, with dxi' = xi'(b) - xi'(a).  B_zeta(a) is accumulated upward
    from B_zeta(lo), so it keeps its digits where it is small."""
    base = b_profile(B, zeta, m, lo)
    total = 0.0
    for a, b, v in zeta.segments(lo, 1.0):
        dxi = xi_eval(m, b, 1) - xi_eval(m, a, 1)
        total += math.log1p(v * dxi / base) / v if v else dxi / base
        base += v * dxi
    return total


def alg_sp(m: Mixture):
    """Algorithmic threshold: (value, regime tag, q_hat).

    Replica-symmetric branch when h^2 + xi'(1) >= xi''(1); otherwise q_hat
    solves h^2 + xi'(q) = q xi''(q) (bisection; the difference is strictly
    increasing in this branch, run to a bracket of 1e-12 or 200 halvings)
    and the value is
    q_hat sqrt(xi''(q_hat)) + integral_{q_hat}^1 sqrt(xi''(q)) dq.
    """
    h2 = m.h**2
    if h2 + xi_eval(m, 1.0, 1) >= xi_eval(m, 1.0, 2):
        return math.sqrt(h2 + xi_eval(m, 1.0, 1)), "replica-symmetric", 1.0

    def f(q):
        return q * xi_eval(m, q, 2) - xi_eval(m, q, 1) - h2

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    q_hat = 0.5 * (lo + hi) if f(0.0) < 0.0 else 0.0
    value = q_hat * math.sqrt(xi_eval(m, q_hat, 2)) + root_xi2_integral(m, q_hat, 1.0)
    return value, "rsb", q_hat


def _slope_profile(m: Mixture, q: float) -> float:
    """ALG's minimizing zeta on the sphere, xi'''(q) / (2 xi''(q)^{3/2}), and 0
    where xi''(q) <= 1e-12; the Ising search of `alg_is_levels` starts from it."""
    denom = xi_eval(m, q, 2)
    if denom <= 1e-12:
        return 0.0
    return xi_eval(m, q, 3) / (2.0 * denom**1.5)


def opt_sp_numeric(m: Mixture, grid: int = 200) -> float:
    """The midpoint discretization of ALG, in closed form: the minimum of
    (h^2/b_0 + sum_i (a_i/b_i + b_i)/G) / 2 over nondecreasing b > 0, with
    a_i = xi''(t_i) at t_i = (i + 1/2)/G.

    Fold the field into the first point, a_0 += G h^2, and the objective is
    sum_i (a_i/b_i + b_i) / (2G).  A block of points that shares one b is
    least at b = sqrt(mean a) and adds |block| sqrt(mean a) / G there.  That
    b increases with mean a, so pool-adjacent-violators pools two adjacent
    blocks exactly when the squared-loss isotonic fit of a pools them: the
    optimal b is the root of that fit, and the minimum is mean(sqrt(fit)).
    The roots are summed by math.fsum, so pure p2 gives sqrt(2) to the last
    bit and pure p4 gives sqrt(3); the zero model with h gives h, and 0 at
    h = 0, the infimum as b -> 0."""
    if grid < 16:
        raise ArgumentError(f"grid={grid} must be >= 16")
    a = xi_eval(m, (np.arange(grid) + 0.5) / grid, 2)
    a[0] += grid * m.h**2
    return math.fsum(np.sqrt(isotonic_regression(a).x)) / grid


def theta(m: Mixture, q0: float, q: float) -> float:
    """theta(q) = (q - q0) xi'(q) - xi(q) + xi(q0); theta' = (q - q0) xi''."""
    if not (0.0 <= q0 <= q <= 1.0):
        raise ArgumentError(f"need 0 <= q0 <= q <= 1, got q0={q0}, q={q}")
    return (q - q0) * xi_eval(m, q, 1) - xi_eval(m, q, 0) + xi_eval(m, q0, 0)
