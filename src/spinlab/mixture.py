"""Mixture functions xi(x) = sum_p gamma_p^2 x^p over even p, with derivatives,
and the one quadrature of their integrals (composite Gauss-Legendre), which
the spherical functionals and the embedding's threshold profile share."""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericError

MAX_XI_ORDER = 4
QUAD_ABS_TOL = 1e-10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = 200


@dataclass(frozen=True)
class Mixture:
    """Even-p coefficient table gamma_p plus external field strength h.

    gammas maps even p >= 2 to finite gamma_p >= 0 (finite support) with a
    finite xi''(1); xi(x) = sum_p gamma_p^2 x^p.  All-zero gammas give a
    field-only model.
    """

    gammas: dict = field(default_factory=dict)
    h: float = 0.0

    def __post_init__(self):
        if not self.gammas:
            raise ArgumentError("mixture needs at least one gamma_p")
        clean = {}
        for p, g in sorted(self.gammas.items()):
            p = int(p)
            if p < 2 or p % 2 != 0:
                raise ArgumentError(f"mixture exponent p={p} must be even and >= 2")
            if not 0 <= g < math.inf:
                raise ArgumentError(f"gamma_{p}={g} must be finite and nonnegative")
            clean[p] = float(g)
        # a finite gamma can still overflow xi; the thresholds use xi'' at 1
        if not math.isfinite(sum(g * g * p * (p - 1) for p, g in clean.items())):
            raise ArgumentError(f"xi''(1) of gammas {clean} overflows")
        # all-zero gammas are allowed so field-only models can be expressed
        if not 0 <= self.h < math.inf:
            raise ArgumentError(f"external field h={self.h} must be finite and nonnegative")
        object.__setattr__(self, "gammas", clean)
        object.__setattr__(self, "h", float(self.h))

    @property
    def ps(self) -> tuple:
        return tuple(self.gammas)

    def xi(self, x: float, order: int = 0) -> float:
        return xi_eval(self, x, order)

    def __hash__(self):
        return hash((tuple(sorted(self.gammas.items())), self.h))


def pure(p: int, gamma: float = 1.0, h: float = 0.0) -> Mixture:
    """Single-term mixture xi(x) = gamma^2 x^p."""
    return Mixture({p: gamma}, h=h)


def xi_eval(m: Mixture, x: float, order: int = 0) -> float:
    """d^order xi / dx^order at x, a float or an array of points, by exact
    term-wise differentiation.

    Supports order 0..4; requires x in [-1, 2].
    """
    if not isinstance(order, (int,)) or order < 0 or order > MAX_XI_ORDER:
        raise ArgumentError(f"derivative order {order} unsupported (0..{MAX_XI_ORDER})")
    lo, hi = (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)
    if not (-1.0 <= lo and hi <= 2.0):
        raise ArgumentError(f"x={x} outside evaluation interval [-1, 2]")
    total = 0.0
    for p, g in m.gammas.items():
        if p < order:
            continue
        coeff = g * g * math.prod(range(p - order + 1, p + 1))
        total += coeff * x ** (p - order)
    return total


def _gauss_legendre(f, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    return half * float(f(lo + half + half * _GL_X) @ _GL_W)


def quadrature(f, a: float, b: float) -> float:
    """integral_a^b f for f smooth on [a, b]; f takes an array of points.

    Composite 20-point Gauss-Legendre.  Each panel carries its sum and its
    two halves' sums; the panel where they disagree most is halved, until
    the disagreements add up to at most QUAD_ABS_TOL (or 1e-14 of the
    integral, the rounding floor), and the halves' sums are returned.  So
    panels double where the integrand needs them, as near B_zeta -> 0.
    NumericError if that takes more than 200 panels, or a sum is not finite."""

    def panel(lo, hi, whole):  # heap entry: the largest disagreement pops first
        mid = 0.5 * (lo + hi)
        left, right = _gauss_legendre(f, lo, mid), _gauss_legendre(f, mid, hi)
        return -abs(left + right - whole), lo, hi, left, right

    panels = [panel(a, b, _gauss_legendre(f, a, b))]
    while True:
        total = sum(left + right for *_, left, right in panels)
        if math.isfinite(total) and -sum(p[0] for p in panels) <= max(QUAD_ABS_TOL, 1e-14 * abs(total)):
            return total
        if len(panels) == _MAX_PANELS or not math.isfinite(total):
            raise NumericError(f"quadrature on [{a}, {b}] did not settle on {len(panels)} panels")
        _, lo, hi, left, right = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        heapq.heappush(panels, panel(lo, mid, left))
        heapq.heappush(panels, panel(mid, hi, right))


def root_xi2_integral(m: Mixture, lo: float, hi: float) -> float:
    """integral_lo^hi sqrt(xi''(q)) dq, by `quadrature`."""
    return quadrature(lambda q: np.sqrt(xi_eval(m, q, 2)), lo, hi)
