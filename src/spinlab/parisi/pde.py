"""One-dimensional Parisi PDE via the backward Cole-Hopf recursion, the Ising
functional and its variational minimization.

On each interval where zeta = c is constant the PDE solution satisfies
Phi(t, x) = (1/c) log E exp(c Phi(t+, x + Z sqrt(xi'(t+) - xi'(t)))),
with the plain heat step at c = 0.  The beta = infinity terminal |x| - ax is
integrated in closed form (erf); smooth slices use Gauss-Hermite quadrature
on the spatial grid with linear tail extrapolation at the asymptotic slopes.
The finite-beta terminal step integrates each 512-point block of the grid
over the quadrature nodes within reach of that block only, the same
truncation the domain edges use.

A solve may reuse the slices of an earlier solution `warm` on the same grid,
a, beta and mixture.  Each backward step has the key (t_hi, t_lo, c) of the
merged zeta steps, counted from t = 1 down.  A leading step is reused while
its key equals warm's step at the same position and every step before it
was reused too: its input slice and its inputs are then identical, so the
reused slice is bit-identical to a recomputed one.  The terminal step does
not depend on the node count; a Gauss-Hermite step is reused only when warm
used the same gh_nodes.  Changing zeta on one interval thus leaves every
step above that interval to warm.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr, ndtr, roots_hermite

from ..errors import ArgumentError, NumericError, ResourceError
from ..hamiltonian import DEFAULT_MAX_TENSOR_ENTRIES
from ..mixture import Mixture, xi_eval
from .zeta import PiecewiseZeta

_SELF_CHECK_TOL = 1e-6


def _log2cosh(u):
    u = np.abs(u)
    return u + np.log1p(np.exp(-2.0 * u))


def _terminal(x, a: float, beta: float):
    if math.isinf(beta):
        return np.abs(x) - a * x
    return _log2cosh(beta * x) / beta - a * x


@dataclass
class PDESolution:
    """Phi on the time knots of zeta (plus t=0 and t=1) over a spatial grid.

    Convex and (1+|a|)-Lipschitz in x at every slice; tails extended
    linearly at the terminal slopes (-1-a, 1-a).
    """

    times: tuple
    grid: np.ndarray
    values: dict = field(repr=False)  # time -> array over grid
    a: float = 0.0
    beta: float = math.inf
    mixture: Mixture | None = None
    meta: dict = field(default_factory=dict)

    @property
    def slopes(self):
        return (-1.0 - self.a, 1.0 - self.a)

    def slice_at(self, t: float) -> np.ndarray:
        for tk in self.times:
            if abs(tk - t) <= 1e-12:
                return self.values[tk]
        raise ArgumentError(f"t={t} is not a stored time knot {self.times}")

    def eval(self, t: float, x) -> float | np.ndarray:
        vals = self.slice_at(t)
        return _pl_eval(np.asarray(x, dtype=float), self.grid, vals, self.slopes)


def _pl_eval(x, grid, vals, slopes):
    out = np.interp(x, grid, vals)
    lo, hi = grid[0], grid[-1]
    left = x < lo
    right = x > hi
    if np.any(left):
        out = np.where(left, vals[0] + slopes[0] * (x - lo), out)
    if np.any(right):
        out = np.where(right, vals[-1] + slopes[1] * (x - hi), out)
    return out if out.ndim else float(out)


def _default_grid(m: Mixture, center: float = 0.0):
    # dx keeps the piecewise-linear wiggle sampled by Gauss-Hermite below the
    # 1e-6 node-doubling self-check for slices of curvature up to ~2
    length = abs(center) + 6.0 * math.sqrt(max(xi_eval(m, 1.0, 1), 1e-12)) + 2.0
    return (length, 0.002)


def _terminal_kink_step(grid, s: float, c: float, a: float):
    """Exact backward step from the beta = infinity terminal |y| - ay over a
    Gaussian increment of std s; c is the zeta level (c = 0 gives the folded
    normal mean)."""
    x = grid
    if c == 0.0:
        z = x / s
        return s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * z * z) + x * (1.0 - 2.0 * ndtr(-z)) - a * x
    lam_p = c * (1.0 - a)
    lam_m = -c * (1.0 + a)
    log_pos = lam_p * x + 0.5 * lam_p**2 * s**2 + log_ndtr((x + lam_p * s**2) / s)
    log_neg = lam_m * x + 0.5 * lam_m**2 * s**2 + log_ndtr(-(x + lam_m * s**2) / s)
    return np.logaddexp(log_pos, log_neg) / c


def _terminal_quad_step(grid, s: float, c: float, a: float, beta: float):
    """Backward step from the finite-beta terminal by composite Gauss-Legendre
    panels in y, refined near the terminal's curvature region |y| <= 12/beta,
    so the 1/beta scale never limits the spatial grid or the Hermite nodes."""
    tilt = c * (1.0 + abs(a)) * s  # exponential tilt rate of the integrand
    reach = (12.0 + tilt) * s
    lo, hi = grid[0] - reach, grid[-1] + reach
    fine_half = min(12.0 / beta, hi - lo)
    edges = [lo]
    # coarse panels resolve the Gaussian kernel; fine panels the terminal kink
    coarse = max(s / 3.0, 2.0 * fine_half / 64.0, (hi - lo) / 4000.0)
    fine = max(fine_half / 24.0, (hi - lo) / 100_000.0)
    y = lo
    while y < hi:
        width = fine if abs(y) <= fine_half or abs(y + coarse) <= fine_half else coarse
        y = min(y + width, hi)
        edges.append(y)
    edges = np.asarray(edges)
    gl_z, gl_w = np.polynomial.legendre.leggauss(8)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * np.diff(edges)
    ys = (mids[:, None] + halfw[:, None] * gl_z[None, :]).ravel()
    ws = (halfw[:, None] * gl_w[None, :]).ravel()
    fy = _terminal(ys, a, beta)
    if c == 0.0:
        wfy = ws * fy
    else:
        # the log-sum-exp terms are c f(y) + log w + log kernel
        wfy = c * fy + np.log(ws)

    out = np.empty_like(grid)
    chunk = 512
    log_norm = math.log(math.sqrt(2.0 * math.pi) * s)
    for start in range(0, len(grid), chunk):
        x = grid[start : start + chunk]
        # nodes past reach of the block are dropped, as at the domain edges
        i0 = np.searchsorted(ys, x[0] - reach)
        i1 = np.searchsorted(ys, x[-1] + reach, side="right")
        lk = ys[None, i0:i1] - x[:, None]
        lk /= s
        lk *= lk
        lk *= -0.5
        lk -= log_norm
        if c == 0.0:
            np.exp(lk, out=lk)
            out[start : start + chunk] = lk @ wfy[i0:i1]
        else:
            lk += wfy[i0:i1]
            amax = lk.max(axis=1)
            lk -= amax[:, None]
            np.exp(lk, out=lk)
            out[start : start + chunk] = (np.log(np.sum(lk, axis=1)) + amax) / c
    return out


_gh_roots_cache: dict = {}


def _gh_roots(nodes: int):
    if nodes not in _gh_roots_cache:
        z, w = roots_hermite(nodes)
        with np.errstate(divide="ignore"):
            logw = np.log(w) - 0.5 * math.log(math.pi)
        _gh_roots_cache[nodes] = (z, w, logw)
    return _gh_roots_cache[nodes]


# Element cap of one row block of the shifted-slice matrix.  It bounds the
# stencil temporaries on fine grids with many nodes, and keeps each below
# 64 KiB on the coarse alg_is_numeric grid: larger per-step temporaries make
# glibc trim and re-fault the heap on every step (~500 page faults a step at
# 2**16, which cost more system time than the stencil's arithmetic).
_GH_BLOCK_ELEMS = 1 << 13


def _gh_step(grid, vals, slopes, s: float, c: float, nodes: int):
    """Gauss-Hermite Cole-Hopf step on the piecewise-linear slice.

    Row j of fmat is the slice at grid + sqrt(2) s z_j, read off a
    three-point quadratic stencil around the nearest grid point, with linear
    tails beyond the grid.  The grid is uniform, so each shift is an index
    offset plus a fraction t in [-0.5, 0.5); the quadratic stencil keeps
    node doubling stable to O(dx^3).  All nodes are evaluated at once, in
    row blocks of at most _GH_BLOCK_ELEMS elements, with the same
    floating-point operations per entry as a one-node-at-a-time loop, so the
    result is bit-identical to that loop (kept as the test oracle in
    tests/test_pde.py).
    """
    z, w, logw = _gh_roots(nodes)
    n = len(grid)
    dx = grid[1] - grid[0]
    shift = math.sqrt(2.0) * s * z / dx
    nearest = np.floor(shift + 0.5).astype(np.int64)
    t = shift - nearest
    # stencil terms around each interior point k = 1 .. n-2, at index k-1
    v0 = vals[1:-1]
    d1 = vals[2:] - vals[:-2]
    d2 = vals[2:] - 2.0 * v0 + vals[:-2]
    idx = np.arange(n)
    fmat = np.empty((nodes, n))
    rows = max(1, _GH_BLOCK_ELEMS // n)
    for r0 in range(0, nodes, rows):
        tb = t[r0 : r0 + rows, None]
        base = nearest[r0 : r0 + rows, None] + idx
        k = np.clip(base - 1, 0, n - 3)
        out = fmat[r0 : r0 + rows]
        out[:] = v0[k] + 0.5 * tb * d1[k] + 0.5 * tb * tb * d2[k]
        # linear beyond the second-to-last interior stencil
        tfull = np.broadcast_to(tb, base.shape)
        lo_mask = base < 1
        if lo_mask.any():
            p = base[lo_mask] + tfull[lo_mask]
            off = p * dx
            out[lo_mask] = np.where(
                p >= 0,
                vals[0] + (vals[1] - vals[0]) / dx * off,
                vals[0] + slopes[0] * off,
            )
        hi_mask = base > n - 2
        if hi_mask.any():
            p = base[hi_mask] + tfull[hi_mask]
            off = p * dx - (n - 1) * dx
            out[hi_mask] = np.where(
                p <= n - 1,
                vals[-1] + (vals[-1] - vals[-2]) / dx * off,
                vals[-1] + slopes[1] * off,
            )
    if c == 0.0:
        return (w / math.sqrt(math.pi)) @ fmat
    # log-sum-exp over the nodes, in place: fmat is the step's largest array
    fmat *= c
    fmat += logw[:, None]
    amax = fmat.max(axis=0)
    fmat -= amax
    np.exp(fmat, out=fmat)
    return (np.log(np.sum(fmat, axis=0)) + amax) / c


def solve_parisi_pde(
    m: Mixture,
    zeta: PiecewiseZeta,
    a: float = 0.0,
    beta: float = math.inf,
    grid=None,
    center: float = 0.0,
    gh_nodes: int = 64,
    self_check: bool = True,
    warm: PDESolution | None = None,
) -> PDESolution:
    """Backward Cole-Hopf recursion for the Parisi PDE with terminal
    log(2cosh(beta x))/beta - ax (|x| - ax at beta = infinity).

    grid is (L, dx): spatial domain [center-L, center+L], finite L > 0 and
    spacing 0 < dx <= 0.01 L; a grid whose 2 gh_nodes x points self-check
    matrix exceeds the tensor budget raises ResourceError before anything is
    allocated.  The node-doubling self-check raises NumericError when the
    quadrature is under-resolved (Phi(0, center) moves by more than 1e-6).
    warm is an earlier solution on the same grid, a, beta and mixture whose
    matching leading backward steps are reused (module docstring).
    """
    if not (-1.0 <= a <= 1.0):
        raise ArgumentError(f"a={a} outside [-1, 1]")
    if not beta > 0:
        raise ArgumentError(f"beta={beta} must be positive (or inf)")
    if grid is None:
        grid = _default_grid(m, center)
    try:
        length, dx = (float(v) for v in grid)
    except (TypeError, ValueError):
        raise ArgumentError(f"grid={grid!r} must be two numbers (L, dx)") from None
    if not (0.0 < length < math.inf and 0.0 < dx < math.inf):
        raise ArgumentError(f"grid=({length}, {dx}) needs finite L > 0 and dx > 0")
    if dx > 0.01 * length + 1e-15:
        raise ArgumentError(f"dx={dx} too coarse for L={length}: need dx <= 0.01 L")
    half = int(math.ceil(length / dx))
    entries = 2 * gh_nodes * (2 * half + 1)
    if entries > DEFAULT_MAX_TENSOR_ENTRIES:
        raise ResourceError(
            f"grid=({length}, {dx}) with {gh_nodes} nodes needs {entries} quadrature entries,"
            f" over the budget of {DEFAULT_MAX_TENSOR_ENTRIES}"
        )
    xs = center + dx * np.arange(-half, half + 1)
    if warm is not None and not (
        warm.a == a and warm.beta == beta and warm.mixture == m and np.array_equal(warm.grid, xs)
    ):
        raise ArgumentError("warm solution was solved on another grid, a, beta or mixture")

    sol = _solve_on_grid(m, zeta, a, beta, xs, gh_nodes, warm)
    if self_check and sol.meta["gh_steps"] + sol.meta["gh_reused"] > 0:
        # the first backward step is node-count independent; reuse it
        ref = _solve_on_grid(m, zeta, a, beta, xs, 2 * gh_nodes, warm=sol)
        delta = abs(sol.eval(0.0, center) - ref.eval(0.0, center))
        sol.meta["self_check_delta"] = delta
        if delta > _SELF_CHECK_TOL:
            raise NumericError(
                f"quadrature self-check failed: doubling nodes moved Phi(0, {center}) by {delta:.3g}"
            )
    return sol


def _solve_on_grid(m, zeta, a, beta, xs, gh_nodes, warm=None) -> PDESolution:
    slopes = (-1.0 - a, 1.0 - a)
    knots = sorted(set(zeta.breaks) | {0.0})
    times = knots + [1.0]
    vals = {1.0: _terminal(xs, a, beta) if warm is None else warm.values[1.0]}
    current = vals[1.0]
    warm_steps = () if warm is None else warm.meta["steps"]
    same_nodes = warm is not None and warm.meta["gh_nodes"] == gh_nodes
    steps = []
    gh_steps = gh_reused = 0
    reuse = True  # every step so far was reused
    for k, (t_hi, t_lo) in enumerate(zip(times[::-1], times[::-1][1:])):
        c = zeta(t_lo)
        steps.append((t_hi, t_lo, c))
        reuse = reuse and k < len(warm_steps) and warm_steps[k] == steps[k] and (k == 0 or same_nodes)
        s2 = xi_eval(m, t_hi, 1) - xi_eval(m, t_lo, 1)
        if reuse:
            current = warm.values[t_lo]
            gh_reused += k > 0 and s2 > 0.0
        elif s2 <= 0.0:
            current = current.copy()
        elif k > 0:
            current = _gh_step(xs, current, slopes, math.sqrt(s2), c, gh_nodes)
            gh_steps += 1
        elif math.isinf(beta):
            current = _terminal_kink_step(xs, math.sqrt(s2), c, a)
        else:
            current = _terminal_quad_step(xs, math.sqrt(s2), c, a, beta)
        vals[t_lo] = current
    return PDESolution(
        times=tuple(times),
        grid=xs,
        values=vals,
        a=a,
        beta=beta,
        mixture=m,
        meta={"gh_nodes": gh_nodes, "gh_steps": gh_steps, "gh_reused": gh_reused, "steps": steps},
    )


def _parisi_value(sol: PDESolution, zeta: PiecewiseZeta, m: Mixture) -> float:
    """The Ising functional P(zeta) read off sol, the beta = infinity, a = 0
    solution of zeta's PDE on a grid around h."""
    return float(sol.eval(0.0, m.h)) - 0.5 * zeta.integral_t_xi2(m)


def parisi_is(zeta: PiecewiseZeta, m: Mixture, grid=None, **solver_kw) -> float:
    """P(zeta) = Phi_zeta(0, h) - (1/2) integral_0^1 t xi''(t) zeta(t) dt."""
    sol = solve_parisi_pde(m, zeta, a=0.0, beta=math.inf, grid=grid, center=m.h, **solver_kw)
    return _parisi_value(sol, zeta, m)


def shift_identity_check(m: Mixture, zeta: PiecewiseZeta, a: float, x: float, grid=None, **kw) -> float:
    """|Phi_zeta(0, y) - a y - Phi_{a,zeta}(0, x) - (a^2/2) int xi'' zeta| with
    y = x - a int xi'' zeta, from two solver runs."""
    j = zeta.integral_xi2(m, 0.0, 1.0)
    y = x - a * j
    left = solve_parisi_pde(m, zeta, a=0.0, beta=math.inf, grid=grid, center=y, **kw)
    right = solve_parisi_pde(m, zeta, a=a, beta=math.inf, grid=grid, center=x, **kw)
    lhs = float(left.eval(0.0, y)) - a * y
    rhs = float(right.eval(0.0, x)) + 0.5 * a * a * j
    return abs(lhs - rhs)


def alg_is_numeric(m: Mixture, knots: int = 16, **kw) -> float:
    """Coordinate-descent minimization of the Ising functional over
    nonnegative (not necessarily monotone) step profiles on a uniform q-grid:
    the value at the finest level of `alg_is_levels`."""
    return alg_is_levels(m, knots, **kw)[-1][1]


def alg_is_levels(
    m: Mixture,
    knots: int = 16,
    grid=None,
    sweeps_min: int = 3,
    sweeps_max: int = 12,
    sweep_tol: float = 1e-6,
    value_cap: float = 32.0,
    **solver_kw,
) -> list:
    """[(levels, value), ...] for levels = 8, 16, ... up to `knots`, from one
    refinement pass.

    Restarts from zero, constant, and a slope-profile initialization at 8
    levels; each doubling warm-starts from the previous level's profile, so
    the values are nonincreasing and the value at each level equals
    `alg_is_numeric` with that many knots.
    """
    if knots < 8:
        raise ArgumentError(f"knots={knots} must be >= 8")
    if grid is None:
        length = abs(m.h) + 6.0 * math.sqrt(max(xi_eval(m, 1.0, 1), 1e-12)) + 2.0
        grid = (length, min(0.04, 0.01 * length))

    last = None  # the previous trial's solution: its leading steps are reused

    def objective(breaks, values):
        nonlocal last
        zeta = PiecewiseZeta(breaks, values)
        last = solve_parisi_pde(m, zeta, a=0.0, beta=math.inf, grid=grid, center=m.h,
                                self_check=False, warm=last, **solver_kw)
        return _parisi_value(last, zeta, m)

    def sweep_down(breaks, values):
        values = list(values)
        best = objective(breaks, tuple(values))
        for sweep in range(sweeps_max):
            improved = 0.0
            for i in range(len(values)):
                def f(v):
                    trial = values.copy()
                    trial[i] = v
                    return objective(breaks, tuple(trial))

                res = minimize_scalar(f, bounds=(0.0, value_cap), method="bounded",
                                      options={"xatol": 1e-3})
                lo = max(0.0, 0.7 * values[i] - 0.05)
                hi = min(value_cap, 1.4 * values[i] + 0.05)
                local = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                        options={"xatol": 1e-4})
                if local.fun < res.fun:
                    res = local
                if res.fun < best:
                    improved += best - res.fun
                    best = res.fun
                    values[i] = float(res.x)
            if improved < sweep_tol and sweep + 1 >= sweeps_min:
                break
        return values, best

    levels = 8
    breaks = tuple(i / levels for i in range(levels))
    starts = [
        [0.0] * levels,
        [1.0] * levels,
        [min(_slope_profile(m, (b + 0.5 / levels)), value_cap) for b in breaks],
    ]
    starts = [s for i, s in enumerate(starts) if s not in starts[:i]]
    best_vals, best = None, math.inf
    for start in starts:
        vals, obj = sweep_down(breaks, start)
        if obj < best:
            best_vals, best = vals, obj
    out = [(levels, float(best))]
    while levels < knots:
        levels *= 2
        breaks = tuple(i / levels for i in range(levels))
        best_vals = [best_vals[i // 2] for i in range(levels)]
        best_vals, best = sweep_down(breaks, best_vals)
        out.append((levels, float(best)))
    return out


def _slope_profile(m: Mixture, q: float) -> float:
    """xi'''(q) / (2 xi''(q)^{3/2}), the spherical-style slope initialization."""
    denom = xi_eval(m, q, 2)
    if denom <= 1e-12:
        return 0.0
    return xi_eval(m, q, 3) / (2.0 * denom**1.5)
