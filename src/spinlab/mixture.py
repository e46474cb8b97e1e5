"""Mixture functions xi(x) = sum_p gamma_p^2 x^p over even p, with derivatives."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

MAX_XI_ORDER = 4


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
