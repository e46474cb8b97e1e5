"""Right-continuous piecewise-constant order parameters on [0, 1)."""

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

    @property
    def is_monotone(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

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

    def scale(self, c: float) -> "PiecewiseZeta":
        return PiecewiseZeta(self.breaks, tuple(c * v for v in self.values))

    def integral_xi2(self, m: Mixture, lo: float = 0.0, hi: float = 1.0) -> float:
        """Exact integral of xi''(t) zeta(t) over [lo, hi]."""
        total = 0.0
        for a, b, v in self.segments(lo, hi):
            if v != 0.0:
                total += v * (xi_eval(m, b, 1) - xi_eval(m, a, 1))
        return total

    def integral_t_xi2(self, m: Mixture, lo: float = 0.0, hi: float = 1.0) -> float:
        """Exact integral of t xi''(t) zeta(t), antiderivative t xi'(t) - xi(t)."""
        total = 0.0
        for a, b, v in self.segments(lo, hi):
            if v != 0.0:
                total += v * (
                    (b * xi_eval(m, b, 1) - xi_eval(m, b, 0))
                    - (a * xi_eval(m, a, 1) - xi_eval(m, a, 0))
                )
        return total

    def __repr__(self):
        pieces = ", ".join(f"[{b:g},): {v:g}" for b, v in zip(self.breaks, self.values))
        return f"PiecewiseZeta({pieces})"


def compose_under_over(under: PiecewiseZeta, q0: float, over_breaks, over_values) -> PiecewiseZeta:
    """Profile equal to `under` on [0, q0) and to the given steps on [q0, 1).

    The over-steps must cover q0 (first break <= q0).
    """
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
