"""Right-continuous piecewise-constant order parameters on [0, 1).

`PiecewiseZeta.splice` is the one way to replace a profile on an interval;
the constructor's merge of equal neighbours keeps every result canonical."""

import math

import numpy as np

from ..errors import ArgumentError
from ..mixture import Mixture, xi_eval


class PiecewiseZeta:
    """zeta(t) = values[i] on [breaks[i], breaks[i+1]), last interval ending at 1.

    breaks must start at 0 and increase inside [0, 1); values are finite
    and >= 0.
    Monotone (nondecreasing) profiles are the classical Parisi order
    parameters; general profiles index the extended functional.
    """

    def __init__(self, breaks, values):
        breaks = tuple(float(b) for b in breaks)
        values = tuple(float(v) for v in values)
        if len(breaks) != len(values):
            raise ArgumentError("breaks and values must align")
        if not all(map(math.isfinite, breaks + values)):
            raise ArgumentError(f"breaks {breaks} and values {values} must be finite")
        if not breaks or breaks[0] != 0.0:
            raise ArgumentError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(breaks, breaks[1:])) or breaks[-1] >= 1.0:
            raise ArgumentError(f"breakpoints {breaks} must increase inside [0, 1)")
        if any(v < 0 for v in values):
            raise ArgumentError("zeta values must be nonnegative")
        # merge equal adjacent segments so the represented function, not its
        # partition, determines downstream numerics
        mb, mv = [breaks[0]], [values[0]]
        for b, v in zip(breaks[1:], values[1:]):
            if v != mv[-1]:
                mb.append(b)
                mv.append(v)
        self.breaks = tuple(mb)
        self.values = tuple(mv)

    @classmethod
    def constant(cls, c: float) -> "PiecewiseZeta":
        return cls((0.0,), (c,))

    @classmethod
    def zero(cls) -> "PiecewiseZeta":
        return cls((0.0,), (0.0,))

    @classmethod
    def on_knots(cls, knots, values) -> "PiecewiseZeta":
        """values[d] on [knots[d], knots[d+1]) (the last up to 1), 0 below knots[0]."""
        if knots[0] > 0.0:
            return cls((0.0, *knots), (0.0, *values))
        return cls(knots, values)

    def splice(self, lo: float, hi: float, piece: "PiecewiseZeta") -> "PiecewiseZeta":
        """This profile on [0, lo) and [hi, 1), piece on [lo, hi); an empty
        window (lo == hi) returns this profile."""
        if not (0.0 <= lo < 1.0 and lo <= hi <= 1.0):
            raise ArgumentError(f"splice window [{lo}, {hi}) must lie in [0, 1)")
        owner = {b: self for b in self.breaks if not lo <= b < hi}
        owner.update({b: piece for b in piece.breaks if lo < b < hi})
        owner[lo] = piece
        if hi < 1.0:
            owner[hi] = self
        cuts = sorted(owner)
        return PiecewiseZeta(cuts, [owner[c](c) for c in cuts])

    def __call__(self, t: float) -> float:
        if not (0.0 <= t < 1.0):
            raise ArgumentError(f"t={t} outside [0, 1)")
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        return self.values[idx]

    def left_limit(self, t: float) -> float:
        """zeta(t^-); equals the value at t except exactly at a breakpoint."""
        if not (0.0 < t <= 1.0):
            raise ArgumentError(f"t={t} outside (0, 1]")
        idx = np.searchsorted(self.breaks, t, side="left") - 1
        return self.values[max(idx, 0)]

    def segments(self, lo: float = 0.0, hi: float = 1.0):
        """(a, b, value) pieces covering [lo, hi]."""
        pts = [b for b in self.breaks if lo < b < hi]
        edges = [lo] + pts + [hi]
        return [
            (a, b, self(a) if a < 1.0 else self.values[-1])
            for a, b in zip(edges, edges[1:])
            if b > a
        ]

    def integral_xi2(self, m: Mixture, lo: float = 0.0, hi: float = 1.0) -> float:
        """Exact integral of xi''(t) zeta(t) over [lo, hi]."""
        total = 0.0
        for a, b, v in self.segments(lo, hi):
            if v != 0.0:
                total += v * (xi_eval(m, b, 1) - xi_eval(m, a, 1))
        return total

    def integral_t_xi2(self, m: Mixture) -> float:
        """Exact integral of t xi''(t) zeta(t) over [0, 1], antiderivative
        t xi'(t) - xi(t)."""
        total = 0.0
        for a, b, v in self.segments():
            if v != 0.0:
                total += v * (
                    (b * xi_eval(m, b, 1) - xi_eval(m, b, 0))
                    - (a * xi_eval(m, a, 1) - xi_eval(m, a, 0))
                )
        return total

    def __repr__(self):
        pieces = ", ".join(f"[{b:g},): {v:g}" for b, v in zip(self.breaks, self.values))
        return f"PiecewiseZeta({pieces})"
