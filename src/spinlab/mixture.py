"""Mixture functions xi(x) = sum_p gamma_p^2 x^p over even p, with derivatives,
and integral sqrt(xi''), which has no closed form for a general mixture, by an
adaptive composite Gauss-Legendre quadrature."""

import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericError, is_real

MAX_XI_ORDER = 4
QUAD_ABS_TOL = 1e-10
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = 200


@dataclass(frozen=True)
class Mixture:
    """Even-p coefficient table gamma_p plus external field strength h.

    gammas maps even p >= 2 (an int, or its plain decimal string: "4", not
    "04") to a real gamma_p, finite and >= 0, not a bool, with a finite
    xi''(1); xi(x) = sum_p gamma_p^2 x^p, its terms sorted by p.  h is a
    real number, finite and >= 0.  All-zero gammas give a field-only model.
    """

    gammas: dict = field(default_factory=dict)
    h: float = 0.0

    def __post_init__(self):
        if not isinstance(self.gammas, dict) or not self.gammas:
            raise ArgumentError(f"mixture gammas {self.gammas!r} must be a nonempty dict p -> gamma_p")
        clean = {}
        for key, g in self.gammas.items():
            p = _exponent(key)
            if p in clean:
                raise ArgumentError(f"mixture exponent p={p} is given twice")
            if p < 2 or p % 2 != 0:
                raise ArgumentError(f"mixture exponent p={p} must be even and >= 2")
            if not is_real(g) or not 0 <= g < math.inf:
                raise ArgumentError(f"gamma_{p}={g!r} must be a finite nonnegative number")
            clean[p] = float(g)
        clean = dict(sorted(clean.items()))
        # a finite gamma can still overflow xi; the thresholds use xi'' at 1
        if not math.isfinite(sum(g * g * p * (p - 1) for p, g in clean.items())):
            raise ArgumentError(f"xi''(1) of gammas {clean} overflows")
        # all-zero gammas are allowed so field-only models can be expressed
        if not is_real(self.h) or not 0 <= self.h < math.inf:
            raise ArgumentError(f"external field h={self.h!r} must be a finite nonnegative number")
        object.__setattr__(self, "gammas", clean)
        object.__setattr__(self, "h", float(self.h))

    @property
    def ps(self) -> tuple:
        return tuple(self.gammas)

    def xi(self, x: float, order: int = 0) -> float:
        return xi_eval(self, x, order)

    def __hash__(self):
        return hash((tuple(sorted(self.gammas.items())), self.h))


def _exponent(key) -> int:
    """p from a gammas key: an integer, or the plain decimal string of one."""
    if isinstance(key, numbers.Integral) and not isinstance(key, bool):
        return int(key)
    if isinstance(key, str) and key.isascii() and key.isdigit() and key == str(int(key)):
        return int(key)
    raise ArgumentError(f"malformed mixture exponent {key!r}: want an integer p or its decimal string")


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
    panels double where the integrand needs them.  NumericError if that
    takes more than 200 panels, or a sum is not finite."""

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
