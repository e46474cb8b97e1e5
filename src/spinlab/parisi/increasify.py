"""Tree constructions converting decreasing step targets into increasing
levels against the kappa multiplier: beta kappa(q) zeta(q) reproduces the
target exactly at the q-knots."""

import math
from dataclasses import dataclass

from ..ensembles import CorrelationLadder, OverlapLadder, TreeShape, chi_align, kappa_level
from ..errors import ArgumentError, ConstraintError
from .zeta import PiecewiseZeta


@dataclass
class IncreasifyResult:
    shape: TreeShape
    pladder: CorrelationLadder
    qladder: OverlapLadder
    levels: tuple  # strictly increasing zeta levels at the q-knots
    beta: float

    def __iter__(self):
        return iter((self.shape, self.pladder, self.qladder, self.levels, self.beta))

    def reconstructed(self, d: int) -> float:
        """beta kappa(q_d) zeta_d, which must equal the target at knot d."""
        return self.beta * kappa_level(self.shape, self.pladder, d + 1) * self.levels[d]


def delta_perturb(target: PiecewiseZeta, delta: float, x: float) -> PiecewiseZeta:
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
    # collapse duplicated breakpoints produced by segment splitting
    out_b, out_v = [breaks[0]], [values[0]]
    for b, v in zip(breaks[1:], values[1:]):
        if b == out_b[-1]:
            out_v[-1] = v
        else:
            out_b.append(b)
            out_v.append(v)
    return PiecewiseZeta(tuple(out_b), tuple(out_v))


def _jumps_in(target: PiecewiseZeta, lo: float, hi: float) -> list:
    return [
        b
        for b, prev, cur in zip(target.breaks[1:], target.values, target.values[1:])
        if prev != cur and lo < b < hi
    ]


def increasify_sp(
    target: PiecewiseZeta,
    delta_frac: float,
    q0: float,
    chi,
    beta: float,
) -> IncreasifyResult:
    """Spherical construction: q-knots at the target's jumps past the
    perturbation window, k_{d+1} = floor(target(q_d^-) / (Delta target(q_d)))
    + 1, levels target_perturbed(q_d) / (beta kappa(q_d))."""
    if not (0.0 < delta_frac < 1.0):
        raise ArgumentError(f"Delta={delta_frac} must lie in (0, 1)")
    if not (0.0 <= q0 < 1.0):
        raise ArgumentError(f"q0={q0} must lie in [0, 1)")
    if any(v <= 0.0 for v in target.values):
        raise ArgumentError("target must be positive-valued")
    window = (1.0 - q0) * delta_frac
    perturbed = delta_perturb(target, window, q0)

    jumps = _jumps_in(target, q0 + window, 1.0)
    qladder = OverlapLadder((q0, *jumps, 1.0))
    pladder = chi_align(chi, qladder)
    depth = qladder.depth

    ks = [1]
    for d in range(1, depth):
        qd = qladder.qs[d]
        ks.append(int(math.floor(target.left_limit(qd) / (delta_frac * target(qd)))) + 1)
    shape = TreeShape(tuple(ks))

    levels = tuple(
        perturbed(qladder.qs[d]) / (beta * kappa_level(shape, pladder, d + 1))
        for d in range(depth)
    )
    result = IncreasifyResult(shape, pladder, qladder, levels, beta)
    _verify_levels(result, perturbed)
    return result


def increasify_is(
    target: PiecewiseZeta,
    beta: float,
    delta: float,
    q0: float,
    chi,
) -> IncreasifyResult:
    """Ising construction: clamp the target to [delta, beta] on a uniform
    delta-grid from q0, uniform arm count k* = ceil(beta / delta^2)."""
    if delta <= 0.0 or beta <= 0.0:
        raise ArgumentError("need delta > 0 and beta > 0")
    if not (0.0 <= q0 < 1.0):
        raise ArgumentError(f"q0={q0} must lie in [0, 1)")
    qs = [q0]
    while qs[-1] < 1.0:
        qs.append(min(qs[-1] + delta, 1.0))
    qladder = OverlapLadder(tuple(qs))
    depth = qladder.depth
    k_star = int(math.ceil(beta / delta**2))
    shape = TreeShape((k_star,) * depth)
    pladder = chi_align(chi, qladder)

    clamped = tuple(min(max(target(qladder.qs[d]), delta), beta) for d in range(depth))
    levels = tuple(
        clamped[d] / (beta * kappa_level(shape, pladder, d + 1)) for d in range(depth)
    )
    result = IncreasifyResult(shape, pladder, qladder, levels, beta)
    _verify_levels(result, PiecewiseZeta.on_knots(qladder.qs[:-1], clamped))
    return result


def _verify_levels(result: IncreasifyResult, target_profile: PiecewiseZeta):
    """Post-conditions: exact knot reconstruction and strictly increasing
    levels in (0, 1)."""
    levels = result.levels
    for d, q in enumerate(result.qladder.qs[:-1]):
        want = target_profile(q)
        got = result.reconstructed(d)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
            raise ConstraintError(
                f"knot reconstruction failed at q={q}: beta kappa zeta = {got!r} != {want!r}"
            )
    if levels[0] <= 0.0:
        raise ConstraintError("first level is not positive")
    for d in range(1, len(levels)):
        if levels[d] <= levels[d - 1]:
            raise ConstraintError(
                f"levels not strictly increasing at knot {d}: "
                f"{levels[d - 1]!r} -> {levels[d]!r}; use a larger beta or finer Delta"
            )
    if levels[-1] >= 1.0:
        raise ConstraintError(
            f"top level {levels[-1]!r} must stay below 1; use a larger beta"
        )
