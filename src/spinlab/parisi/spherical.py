"""Spherical Parisi functional, the closed-form algorithmic threshold, and a
numeric variational minimizer over nondecreasing slope profiles."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import isotonic_regression

from ..errors import ArgumentError, DomainError
from ..mixture import Mixture, xi_eval
from .zeta import PiecewiseZeta

QUAD_ABS_TOL = 1e-10


def b_profile(B: float, zeta: PiecewiseZeta, m: Mixture, t: float) -> float:
    """B_zeta(t) = B - integral_t^1 xi''(q) zeta(q) dq, exactly."""
    if not (0.0 <= t <= 1.0):
        raise ArgumentError(f"t={t} outside [0, 1]")
    if t >= 1.0:
        return B
    return B - zeta.integral_xi2(m, t, 1.0)


def parisi_sp(B: float, zeta: PiecewiseZeta, m: Mixture) -> float:
    """P(B, zeta) = (h^2 / B_zeta(0) + integral_0^1 (xi''/B_zeta + B_zeta)) / 2.

    Requires B > integral xi'' zeta (so B_zeta > 0 on [0, 1]); the integral is
    evaluated by adaptive quadrature segment by segment, with the suffix
    integrals of xi'' zeta precomputed so each integrand call is O(1).
    """
    segs = zeta.segments()
    tails = [0.0] * (len(segs) + 1)  # tails[i] = int_{segs[i].lo}^1 xi'' zeta
    for i in range(len(segs) - 1, -1, -1):
        a, b, v = segs[i]
        tails[i] = tails[i + 1] + v * (xi_eval(m, b, 1) - xi_eval(m, a, 1))
    slack = B - tails[0]
    if slack <= 0.0:
        raise DomainError(f"(B, zeta) infeasible: B - int xi'' zeta = {slack:.3g} <= 0")
    total = m.h**2 / slack
    for i, (a, b, v) in enumerate(segs):
        tail_b = tails[i + 1]
        xi1_b = xi_eval(m, b, 1)

        def integrand(t):
            bz = B - tail_b - v * (xi1_b - xi_eval(m, t, 1))
            return xi_eval(m, t, 2) / bz + bz

        val, _err = quad(integrand, a, b, epsabs=QUAD_ABS_TOL, limit=200)
        total += val
    return 0.5 * total


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


def root_xi2_integral(m: Mixture, lo: float, hi: float) -> float:
    """integral_lo^hi sqrt(xi''(q)) dq, by adaptive quadrature."""
    val, _err = quad(lambda q: math.sqrt(xi_eval(m, q, 2)), lo, hi, epsabs=QUAD_ABS_TOL, limit=200)
    return val


def opt_sp_numeric(m: Mixture, grid: int = 200) -> float:
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


def theta(m: Mixture, q0: float, q: float) -> float:
    """theta(q) = (q - q0) xi'(q) - xi(q) + xi(q0); theta' = (q - q0) xi''."""
    if not (0.0 <= q0 <= q <= 1.0):
        raise ArgumentError(f"need 0 <= q0 <= q <= 1, got q0={q0}, q={q}")
    return (q - q0) * xi_eval(m, q, 1) - xi_eval(m, q, 0) + xi_eval(m, q0, 0)
