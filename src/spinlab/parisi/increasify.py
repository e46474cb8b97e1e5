"""Tree constructions converting decreasing step targets into increasing
levels against the kappa multiplier at p = q (`CorrelationLadder.matching`):
beta kappa(q) zeta(q) reproduces the target exactly at the q-knots.  The
Delta-perturbed target of `increasify_sp` is a `PiecewiseZeta.splice`."""

import math
from dataclasses import dataclass

from ..ensembles import CorrelationLadder, OverlapLadder, TreeShape, kappa_level
from ..errors import ArgumentError, ConstraintError
from .interpolation import kappa_zeta_profile
from .zeta import PiecewiseZeta


@dataclass
class IncreasifyResult:
    shape: TreeShape
    pladder: CorrelationLadder
    qladder: OverlapLadder
    levels: tuple  # strictly increasing zeta levels at the q-knots
    beta: float

    def reconstructed(self, d: int) -> float:
        """beta kappa(q_d) zeta_d, which must equal the target at knot d: the
        kappa zeta profile of the levels beta zeta, `composite_profile`'s."""
        levels = [self.beta * z for z in self.levels]
        return kappa_zeta_profile(self.shape, self.pladder, self.qladder, levels)(self.qladder.qs[d])


def _check_beta(beta: float):
    """Both constructions divide by beta, and the Ising one clamps to it."""
    if not 0.0 < beta < math.inf:
        raise ArgumentError(f"beta={beta} must be positive and finite")


def delta_perturb(target: PiecewiseZeta, delta: float, x: float) -> PiecewiseZeta:
    """Replace the target on [x, x + delta) by its value at x + delta; a
    window reaching 1 raises ArgumentError."""
    if delta <= 0.0:
        return target
    hi = x + delta
    if hi >= 1.0:
        raise ArgumentError(f"perturbation window [{x}, {hi}) leaves [0, 1)")
    return target.splice(x, hi, PiecewiseZeta.constant(target(hi)))


def increasify_sp(
    target: PiecewiseZeta,
    delta_frac: float,
    q0: float,
    beta: float,
) -> IncreasifyResult:
    """Spherical construction: q-knots at the target's jumps past the
    perturbation window, k_{d+1} = floor(target(q_d^-) / (Delta target(q_d)))
    + 1, levels target_perturbed(q_d) / (beta kappa(q_d))."""
    _check_beta(beta)
    if not (0.0 < delta_frac < 1.0):
        raise ArgumentError(f"Delta={delta_frac} must lie in (0, 1)")
    if not (0.0 <= q0 < 1.0):
        raise ArgumentError(f"q0={q0} must lie in [0, 1)")
    if any(v <= 0.0 for v in target.values):
        raise ArgumentError("target must be positive-valued")
    window = (1.0 - q0) * delta_frac
    perturbed = delta_perturb(target, window, q0)

    jumps = [b for b in target.breaks if q0 + window < b < 1.0]
    qladder = OverlapLadder((q0, *jumps, 1.0))
    pladder = CorrelationLadder.matching(qladder)
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
) -> IncreasifyResult:
    """Ising construction: clamp the target to [delta, beta] on a uniform
    delta-grid from q0, uniform arm count k* = ceil(beta / delta^2)."""
    _check_beta(beta)
    if delta <= 0.0:
        raise ArgumentError(f"delta={delta} must be positive")
    if not (0.0 <= q0 < 1.0):
        raise ArgumentError(f"q0={q0} must lie in [0, 1)")
    qs = [q0]
    while qs[-1] < 1.0:
        qs.append(min(qs[-1] + delta, 1.0))
    qladder = OverlapLadder(tuple(qs))
    depth = qladder.depth
    k_star = int(math.ceil(beta / delta**2))
    shape = TreeShape((k_star,) * depth)
    pladder = CorrelationLadder.matching(qladder)

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
