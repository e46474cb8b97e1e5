"""The windowed terminal-step oracle: 30-digit mpmath references for
`pde._terminal_quad_step`, and the table of them that the tests compare to.

The references are pure functions of fixed inputs, so they are committed as
exact float64 hex in data/terminal_step_oracle.json, one [index, value] row
per case.  Regenerate the table (after changing a grid, a parameter list or
the oracle itself) with

    PYTHONPATH=src python tests/terminal_step_oracle.py
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from spinlab import rng

TABLE = Path(__file__).parent / "data" / "terminal_step_oracle.json"

# (L, dx, center): each spans three 512-point blocks, so every block after
# the first drops the nodes out of its reach; two grids sit off the kink
TERMINAL_GRIDS = ((0.52, 0.001, 0.0), (1.3, 0.0025, 0.0), (1.04, 0.002, 2.5), (2.6, 0.005, -0.7))


def mp_terminal_step(x, s: float, c: float, a: float, beta: float) -> float:
    """The finite-beta terminal step at x to 30 digits: (1/c) log E exp(c
    f(x + sZ)), or E f(x + sZ) at c = 0, for f(y) = log(2 cosh(beta y)) / beta
    - ay, by mpmath Gauss-Legendre quadrature over x +- (14 + c (1 + |a|) s) s
    split at y = 0."""
    with mpmath.workdps(30):
        x, s, c, a, beta = (mpmath.mpf(v) for v in (x, s, c, a, beta))
        span = (14 + c * (1 + abs(a)) * s) * s
        points = sorted({x - span, x + span} | ({mpmath.mpf(0)} if abs(x) < span else set()))

        def f(y):
            return mpmath.log(2 * mpmath.cosh(beta * y)) / beta - a * y

        def kernel(y):
            return mpmath.exp(-(((y - x) / s) ** 2) / 2) / (s * mpmath.sqrt(2 * mpmath.pi))

        if c == 0:
            return float(mpmath.quad(lambda y: kernel(y) * f(y), points, method="gauss-legendre"))
        mean = mpmath.quad(lambda y: kernel(y) * mpmath.exp(c * f(y)), points, method="gauss-legendre")
        return float(mpmath.log(mean) / c)


def grid_points(grid):
    length, dx, center = grid
    half = int(math.ceil(length / dx))
    return center + dx * np.arange(-half, half + 1)


def cases(grid):
    """(beta, a, c, s, i) for the grid's 72 cases, i the grid index each
    case draws from the grid's own seeded stream."""
    gen, size = rng.stream(67), len(grid_points(grid))
    for beta in (1.0, 4.0, 32.0):
        for a in (0.0, 0.5, -0.4):
            for c in (0.0, 0.3, 1.0, 4.0):
                for s in (0.2, 0.7):
                    yield beta, a, c, s, int(gen.integers(size))


def load_table() -> list:
    """Per grid of TERMINAL_GRIDS, its cases' [index, reference] rows."""
    return [[[i, float.fromhex(v)] for i, v in rows] for rows in json.loads(TABLE.read_text())]


def main():
    table = []
    for grid in TERMINAL_GRIDS:
        xs = grid_points(grid)
        table.append([[i, mp_terminal_step(xs[i], s, c, a, beta).hex()] for beta, a, c, s, i in cases(grid)])
    grids = (",\n".join(f"    {json.dumps(row)}" for row in rows) for rows in table)
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("[\n" + ",\n".join(f"  [\n{g}\n  ]" for g in grids) + "\n]\n")


if __name__ == "__main__":
    main()
