"""One-dimensional Parisi PDE via the backward Cole-Hopf recursion, the Ising
functional and its variational minimization.

On each interval where zeta = c is constant the PDE solution satisfies
Phi(t, x) = (1/c) log E exp(c Phi(t+, x + Z sqrt(xi'(t+) - xi'(t)))),
with the plain heat step at c = 0.  One backward loop, _backward, runs it
over steps (t_lo, c, s^2) from t = 1 down on any breaks, for every solve
and for the ALG objective.  The beta = infinity terminal |x| - ax is
integrated in closed form (erf).  The finite-beta terminal is that kink plus
the bump log1p(e^(-2 beta |x|)) / beta: its step is the kink's closed form
plus the bump's share, integrated by Gauss-Legendre panels on
|x| <= 20 / beta (_terminal_quad_step).  Smooth slices take one
Gauss-Hermite step, _gh_step, with linear tails at the asymptotic slopes.
A node's shifted slice is read off a quadratic stencil whose terms are
computed once per step in one vector (_stencil_terms), by one of two
operators with the same bits: _gh_shifted, a per-node loop over plain
slices of that vector that can compute a column range, or _StencilPlan, the
same map as a sparse matrix built once per step width.  Callers that hold
plans get its CSR product: the ALG objective, whose widths repeat over
hundreds of evaluations, on whose grid (n = 535) it is 3-4x faster.
One-off solves use _gh_shifted, 2x faster on the fine grid (n = 10 651)
and with no 45-85 ms plan to build per width.
Every quadrature of the recursion is truncated by one reach rule, _reach:
a step of std s at level c integrates over |y - x| <= (12 + |c| L s) s,
where L = 1 + |a| = max|slopes| bounds the Lipschitz constant of every
slice.  Past the reach the tilted Gaussian weight is below e^-72 of the
tilted peak (_gh_step), far under the rounding of the sum.  A Gauss-Hermite
step computes shifted slices only for the nodes with sqrt(2) s |z_j| within
reach, a symmetric index range of the sorted nodes (at c = 0, 46 of 128
and 136 of 256 nodes drop); the finite-beta terminal step integrates each
512-point block of the grid over the Gauss-Legendre nodes within reach of
that block.  The node-doubling self-check reads one value, Phi(0, center),
so its reference solve computes each step only on the grid columns that
value depends on (_cone).

ALG for Ising models minimizes the functional over nonnegative step profiles
with projected L-BFGS-B.  Its gradient is exact for the discretized
objective on any breaks: given plans, the backward loop also keeps a tape,
per step the tilted Gauss-Hermite weights pi (the softmax of c f_j + log w_j
over the nodes) and d out / dc = (E_pi f - out) / c, which tends to
Var_pi(f) / 2 as c -> 0 (the first variation of Jagannath-Tobasco); the
terminal kink step has a closed-form c-derivative from the tilted
truncated-normal means.  The reverse pass starts from the grid point at h
and applies each plan's CSC transpose, so a gradient costs about two solves.
"""
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_array
from scipy.special import log_ndtr, ndtr, roots_hermite

from ..errors import ArgumentError, NumericError
from ..hamiltonian import check_entries
from ..mixture import Mixture, xi_eval
from .spherical import _slope_profile
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
        x = np.asarray(x, dtype=float)
        vals, lo, hi = self.slice_at(t), self.grid[0], self.grid[-1]
        out = np.interp(x, self.grid, vals)
        if np.any(x < lo):
            out = np.where(x < lo, vals[0] + self.slopes[0] * (x - lo), out)
        if np.any(x > hi):
            out = np.where(x > hi, vals[-1] + self.slopes[1] * (x - hi), out)
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


# Standard deviations of a step's Gaussian increment that every quadrature
# covers beyond the tilt (module docstring).
_REACH_SDS = 12.0
# Half-width, in units of 1/beta, of the finite-beta terminal's bump that
# _terminal_quad_step integrates.
_BUMP_SDS = 20.0


def _reach(s: float, c: float, lip: float) -> float:
    """(12 + |c| lip s) s: how far from x a step of std s at level c needs
    its integrand, when lip bounds the slopes of the slice it integrates."""
    return (_REACH_SDS + abs(c) * lip * s) * s


def _terminal_quad_step(grid, s: float, c: float, a: float, beta: float):
    """Backward step from the finite-beta terminal, split as the kink
    |y| - ay plus the bump g(y) = log1p(e^(-2 beta |y|)) / beta: the
    closed-form step K(x) of the kink (_terminal_kink_step), plus (1/c) log1p
    of the bump's share E_pi[e^(c g(y)) - 1], where pi is the law of
    y = x + sZ tilted by e^(c (|y| - ay) - c K(x)).  At c = 0 the plain mean
    E g(y) is added instead.

    The share is integrated by 8-point Gauss-Legendre panels on
    |y| <= _BUMP_SDS / beta, past which g is below e^-40 / beta.  The panels
    have an edge at g's kink y = 0 and a width of at most min(1/beta, s/3), so
    they resolve both the bump and the Gaussian kernel.  Each 512-point block
    of the grid sums the nodes within _reach of it.
    """
    out = _terminal_kink_step(grid, s, c, a)
    half = _BUMP_SDS / beta
    panels = math.ceil(half / min(1.0 / beta, s / 3.0))
    width = half / panels
    gl_z, gl_w = np.polynomial.legendre.leggauss(8)
    pos = (width * (np.arange(panels)[:, None] + 0.5 + 0.5 * gl_z)).ravel()
    ys = np.concatenate([-pos[::-1], pos])
    # the Gauss-Legendre weights are symmetric, so reversing a panel keeps them
    ws = np.tile(0.5 * width * gl_w, 2 * panels)
    bump = np.log1p(np.exp(-2.0 * beta * np.abs(ys))) / beta
    if c == 0.0:
        wb = ws * bump
    else:
        # log of the share's terms, up to the Gaussian kernel and -c K(x)
        wb = np.log(ws * np.expm1(c * bump)) + c * (np.abs(ys) - a * ys)

    reach = _reach(s, c, 1.0 + abs(a))
    chunk = 512
    log_norm = math.log(math.sqrt(2.0 * math.pi) * s)
    for start in range(0, len(grid), chunk):
        x = grid[start : start + chunk]
        i0 = np.searchsorted(ys, x[0] - reach)
        i1 = np.searchsorted(ys, x[-1] + reach, side="right")
        if i0 == i1:
            continue
        lk = ys[None, i0:i1] - x[:, None]
        lk /= s
        lk *= lk
        lk *= -0.5
        lk -= log_norm
        block = out[start : start + chunk]  # the kink step K(x), in place
        if c == 0.0:
            np.exp(lk, out=lk)
            block += lk @ wb[i0:i1]
        else:
            lk += wb[i0:i1]
            lk -= (c * block)[:, None]
            np.exp(lk, out=lk)
            block += np.log1p(np.sum(lk, axis=1)) / c
    return out


_gh_roots_cache: dict = {}


def _gh_roots(nodes: int):
    if nodes not in _gh_roots_cache:
        z, w = roots_hermite(nodes)
        with np.errstate(divide="ignore"):
            logw = np.log(w) - 0.5 * math.log(math.pi)
        _gh_roots_cache[nodes] = (z, w, logw)
    return _gh_roots_cache[nodes]


def _gh_kept(s: float, c: float, lip: float, nodes: int) -> slice:
    """The Gauss-Hermite nodes a step of std s at level c sums over, those
    with sqrt(2) s |z_j| <= _reach(s, c, lip): a symmetric index range of the
    sorted (exactly symmetric) nodes."""
    z = _gh_roots(nodes)[0]
    dropped = int(np.count_nonzero(math.sqrt(2.0) * s * z < -_reach(s, c, lip)))
    return slice(dropped, nodes - dropped)


def _gh_shifts(dx: float, s: float, nodes: int):
    """Each node's shift sqrt(2) s z_j / dx as a nearest index offset plus a
    fraction t in [-0.5, 0.5)."""
    z = _gh_roots(nodes)[0]
    shift = math.sqrt(2.0) * s * z / dx
    nearest = np.floor(shift + 0.5).astype(np.int64)
    return nearest, shift - nearest


def _stencil_terms(grid, vals, slopes):
    """The stencil terms a slice's shifted copies are read off, as one vector
    u = (v0, d1, d2, vals[0], lo_slope, slopes[0], vals[-1], hi_slope,
    slopes[1]) of length 3n: at the interior points v0 = vals[1:-1], d1 =
    vals[2:] - vals[:-2] and d2 = vals[2:] - 2 v0 + vals[:-2], then each
    end's value, end-cell slope and asymptotic slope.  _gh_shifted reads
    slices of it, and _StencilPlan's op multiplies it."""
    n = len(grid)
    dx = grid[1] - grid[0]
    u = np.empty(3 * n)
    v0, d1, d2 = u[: 3 * (n - 2)].reshape(3, n - 2)
    v0[:] = vals[1:-1]
    np.subtract(vals[2:], vals[:-2], out=d1)
    d2[:] = vals[2:] - 2.0 * v0 + vals[:-2]
    u[3 * (n - 2) :] = (vals[0], (vals[1] - vals[0]) / dx, slopes[0], vals[-1], (vals[-1] - vals[-2]) / dx, slopes[1])
    return u


def _gh_shifted(grid, vals, slopes, nearest, t, cols=None):
    """fmat: row j is the slice at grid + (nearest_j + t_j) dx, read off a
    three-point quadratic stencil around the nearest grid point, with linear
    tails beyond the grid, on the grid columns cols = (c0, c1) (all of them
    by default).

    The quadratic stencil keeps node doubling stable to O(dx^3).  Each row
    reads the stencil terms u of _stencil_terms: on the columns lo_j <= i <
    hi_j whose stencil lies within the grid, it sums plain slices of v0, d1
    and d2 that start at interior point nearest_j + lo_j - 1; on the columns
    before and after, it writes the linear tails from u's end values and
    slopes.  Every entry takes the same floating-point operations as in a
    one-node-at-a-time loop, so the result is bit-identical to that loop
    (kept as the test oracle in tests/test_pde.py), whichever columns are
    computed.
    """
    n = len(grid)
    c0, c1 = (0, n) if cols is None else cols
    dx = grid[1] - grid[0]
    u = _stencil_terms(grid, vals, slopes)
    v0, d1, d2 = u[: 3 * (n - 2)].reshape(3, n - 2)
    v_lo, lo_slope, slope_lo, v_hi, hi_slope, slope_hi = u[3 * (n - 2) :]
    # row j reads the stencil on columns lo_j <= i < hi_j, the tails elsewhere
    lo = np.clip(1 - nearest, c0, c1).tolist()
    hi = np.clip(n - 1 - nearest, c0, c1).tolist()
    fmat = np.empty((len(nearest), c1 - c0))
    for row, near, tj, a, b in zip(fmat, nearest.tolist(), t.tolist(), lo, hi):
        if a < b:
            # v0 + (0.5 t) d1 + ((0.5 t) t) d2, summed in the loop's order
            k = slice(near + a - 1, near + b - 1)
            h1 = 0.5 * tj
            inner = row[a - c0 : b - c0]
            np.multiply(d1[k], h1, out=inner)
            inner += v0[k]
            inner += d2[k] * (h1 * tj)
        if a > c0:
            p = np.arange(near + c0, near + a) + tj
            off = p * dx
            row[: a - c0] = np.where(p >= 0, v_lo + lo_slope * off, v_lo + slope_lo * off)
        if b < c1:
            p = np.arange(near + b, near + c1) + tj
            off = p * dx - (n - 1) * dx
            row[b - c0 :] = np.where(p <= n - 1, v_hi + hi_slope * off, v_hi + slope_hi * off)
    return fmat


# Below this |c| a step's d out / dc = (E_pi f - out) / c loses too much to
# cancellation (out itself carries rounding of order eps / c), so it is
# taken as Var(f) / 2 under the tilt 2c/3 instead: the one-point quadrature
# of d out / dc = int_0^1 u Var_{cu}(f) du, exact at c = 0 and off by about
# c^2 kappa_4(f) / 72 elsewhere.
_SMALL_C = 1e-3


def _log_mean_exp(fmat, c: float, logw, tilted: bool = False):
    """(1/c) log sum_j (w_j / sqrt(pi)) exp(c f_j) over the rows f_j of fmat,
    in place: with tilted, fmat ends as the tilted weights (the softmax of
    c f_j + log w_j over the rows)."""
    fmat *= c
    fmat += logw[:, None]
    amax = fmat.max(axis=0)
    fmat -= amax
    np.exp(fmat, out=fmat)
    total = np.sum(fmat, axis=0)
    if tilted:
        fmat /= total
    return (np.log(total) + amax) / c


def _gh_step(grid, vals, slopes, s: float, c: float, nodes: int, cols=None, plan=None):
    """Gauss-Hermite Cole-Hopf step on the piecewise-linear slice, on the
    grid columns cols (all of them by default).

    The node-shifted slices are the CSR product of plan, this width's
    _StencilPlan, if one is given, and _gh_shifted's on cols otherwise; the
    bits are the same.  Without a plan the step returns its output alone.
    With one it returns (out, pi, d out / dc, first kept node), the tape of
    the reverse pass, pi being the kept nodes' tilted weights.

    Only the nodes of _gh_kept enter.  A node past the reach (12 + |c| L s) s,
    L = max|slopes|, has a tilted weight w_j exp(c f_j) below e^-72 of the
    tilted peak: w_j is e^(-u^2 / 2) at u = sqrt(2) z_j up to a slowly
    varying factor, and since f is L-Lipschitz the tilt adds at most
    |c| L s |u - v| to the log-weight against u = v = +-|c| L s on the same
    side, so the tilted log-weight is at most -(|u| - |c| L s)^2 / 2 below
    its value there.  Dropping the node moves a slice only where a term far
    below one ulp of the sum flips a rounding.
    """
    _, w, logw = _gh_roots(nodes)
    keep = _gh_kept(s, c, max(map(abs, slopes)), nodes)
    logw = logw[keep]
    if plan is None:
        nearest, t = _gh_shifts(grid[1] - grid[0], s, nodes)
        fmat = _gh_shifted(grid, vals, slopes, nearest[keep], t[keep], cols)
    else:
        # all rows, then the kept ones: a row-range view of op per step costs
        # more in scipy's constructor checks than the few dropped rows do
        fmat = (plan.op @ _stencil_terms(grid, vals, slopes)).reshape(nodes, len(grid))[keep]
    if c == 0.0:
        wn = w[keep] / math.sqrt(math.pi)
        out, pi = wn @ fmat, np.broadcast_to(wn[:, None], fmat.shape)
    else:
        # without a plan the log-sum-exp runs in place: fmat is the step's
        # largest array
        pi = fmat if plan is None else fmat.copy()
        out = _log_mean_exp(pi, c, logw, tilted=plan is not None)
    if plan is None:
        return out
    if abs(c) >= _SMALL_C:
        return out, pi, (np.einsum("jk,jk->k", pi, fmat) - out) / c, keep.start
    tilt = pi
    if c != 0.0:
        tilt = fmat.copy()
        _log_mean_exp(tilt, 2.0 * c / 3.0, logw, tilted=True)
    fmat -= np.einsum("jk,jk->k", tilt, fmat)
    fmat *= fmat
    return out, pi, 0.5 * np.einsum("jk,jk->k", tilt, fmat), keep.start


_GH_NODES = 64


def _grid_points(grid, center: float, gh_nodes: int):
    """The spatial grid center + dx * (-half .. half), half = ceil(L / dx),
    of grid = (L, dx), after checking it."""
    try:
        length, dx = (float(v) for v in grid)
    except (TypeError, ValueError):
        raise ArgumentError(f"grid={grid!r} must be two numbers (L, dx)") from None
    if not (0.0 < length < math.inf and 0.0 < dx < math.inf):
        raise ArgumentError(f"grid=({length}, {dx}) needs finite L > 0 and dx > 0")
    if dx > 0.01 * length + 1e-15:
        raise ArgumentError(f"dx={dx} too coarse for L={length}: need dx <= 0.01 L")
    half = int(math.ceil(length / dx))
    check_entries(2 * gh_nodes * (2 * half + 1), f"grid=({length}, {dx}) with {gh_nodes} nodes would hold")
    return center + dx * np.arange(-half, half + 1)


def solve_parisi_pde(
    m: Mixture,
    zeta: PiecewiseZeta,
    a: float = 0.0,
    beta: float = math.inf,
    grid=None,
    center: float = 0.0,
    gh_nodes: int = _GH_NODES,
    self_check: bool = True,
) -> PDESolution:
    """Backward Cole-Hopf recursion for the Parisi PDE with terminal
    log(2cosh(beta x))/beta - ax (|x| - ax at beta = infinity).

    grid is (L, dx): spatial domain [center-L, center+L], finite L > 0 and
    spacing 0 < dx <= 0.01 L; a grid whose 2 gh_nodes x points self-check
    matrix exceeds the tensor budget raises ResourceError before anything is
    allocated.  The node-doubling self-check raises NumericError when the
    quadrature is under-resolved (Phi(0, center) moves by more than 1e-6, or
    by a non-finite amount).  Its reference solve computes only the grid
    columns that Phi(0, center) depends on; meta["self_check_entries"]
    counts the shifted-slice entries it computes (kept rows x columns,
    summed over its Gauss-Hermite steps).
    """
    if not (-1.0 <= a <= 1.0):
        raise ArgumentError(f"a={a} outside [-1, 1]")
    if not beta > 0:
        raise ArgumentError(f"beta={beta} must be positive (or inf)")
    if grid is None:
        grid = _default_grid(m, center)
    xs = _grid_points(grid, center, gh_nodes)
    steps = _steps(m, zeta.breaks, zeta.values)
    vals, counts, _ = _backward(xs, steps, a, beta, gh_nodes)
    sol = PDESolution((*zeta.breaks, 1.0), xs, vals, a, {"gh_nodes": gh_nodes, **counts})
    if self_check and counts["gh_steps"] > 0:
        # the first backward step is node-count independent, so it is reused;
        # the check reads only Phi(0, center) = Phi(0, xs[(n - 1) // 2])
        ref, ref_counts, _ = _backward(xs, steps, a, beta, 2 * gh_nodes, top=vals, point=(len(xs) - 1) // 2)
        delta = abs(sol.eval(0.0, center) - replace(sol, values=ref).eval(0.0, center))
        sol.meta["self_check_delta"] = delta
        sol.meta["self_check_entries"] = ref_counts["gh_entries"]
        # a NaN delta fails too: it is what a column read outside the cone gives
        if not delta <= _SELF_CHECK_TOL:
            raise NumericError(
                f"quadrature self-check failed: doubling nodes moved Phi(0, {center}) by {delta:.3g}"
            )
    return sol


def _cone(xs, point, steps, lip: float, nodes: int) -> dict:
    """{k: (c0, c1)}: the grid columns c0 <= i < c1 that Gauss-Hermite step k
    of steps [(t_lo, c, s^2), ...] (from t = 1 down) computes for Phi(0,
    xs[point]) alone.

    Going back from t = 0, a step's input is needed on its output columns
    widened by its kept nodes' shifts and the stencil, clipped to the grid
    (an entry past the stencil reads the two end columns, which the clipped
    range then holds).  The step at t = 0 keeps two columns: numpy sums a
    single column pairwise, and two or more row by row as it does the full
    grid.  A c = 0 step sums its rows with BLAS gemv, whose rounding of a
    column depends on the column range, so that step and every step before
    it compute the full grid.
    """
    n = len(xs)
    dx = xs[1] - xs[0]
    c0 = min(point, n - 2)
    c1 = c0 + 2
    cols = {}
    for k in range(len(steps) - 1, 0, -1):
        _, c, s2 = steps[k]
        if s2 <= 0.0:
            continue
        if c == 0.0:
            break
        cols[k] = (c0, c1)
        s = math.sqrt(s2)
        nearest = _gh_shifts(dx, s, nodes)[0][_gh_kept(s, c, lip, nodes)]
        c0 = min(max(c0 + int(nearest[0]) - 1, 0), n - 2)
        c1 = max(min(c1 + int(nearest[-1]) + 1, n), 2)
    return cols


def _steps(m: Mixture, breaks, values) -> list:
    """[(t_lo, c, s^2), ...] from t = 1 down: the step profile of values on
    breaks, s^2 = xi'(t_hi) - xi'(t_lo) being each step's variance."""
    times = [*breaks, 1.0]
    return [
        (t_lo, c, xi_eval(m, t_hi, 1) - xi_eval(m, t_lo, 1))
        for t_lo, t_hi, c in zip(times[-2::-1], times[:0:-1], values[::-1])
    ]


def _backward(xs, steps, a, beta, nodes, top=None, point=None, plans=None):
    """The recursion over steps (_steps) on the grid xs: ({t: slice}, the
    Gauss-Hermite counts, the tape).  top, the slices of a solve at another
    node count, supplies the terminal slice and the first step, which do not
    depend on it.  With point, an index of xs, the Gauss-Hermite steps
    compute only the columns of _cone (NaN elsewhere).  plans, at beta =
    infinity, holds each step's _StencilPlan (None at t = 1 and at zero
    width); the tape then holds each step's (pi, d out / dc, first kept
    node), pi being None at t = 1, and otherwise only None."""
    slopes = (-1.0 - a, 1.0 - a)
    lip = max(map(abs, slopes))
    cols = {} if point is None else _cone(xs, point, steps, lip, nodes)
    current = _terminal(xs, a, beta) if top is None else top[1.0]
    vals = {1.0: current}
    counts = {"gh_steps": 0, "gh_rows": 0, "gh_entries": 0}
    tape = []
    for k, (t_lo, c, s2) in enumerate(steps):
        entry = None
        if k == 0 and top is not None:
            current = top[t_lo]
        elif s2 <= 0.0:
            current = current.copy()
        elif k > 0:
            s = math.sqrt(s2)
            c0, c1 = cols.get(k, (0, len(xs)))
            if plans:
                current, *entry = _gh_step(xs, current, slopes, s, c, nodes, plan=plans[k])
            elif k in cols:
                step = np.full(len(xs), np.nan)
                step[c0:c1] = _gh_step(xs, current, slopes, s, c, nodes, (c0, c1))
                current = step
            else:
                current = _gh_step(xs, current, slopes, s, c, nodes)
            keep = _gh_kept(s, c, lip, nodes)
            counts["gh_steps"] += 1
            counts["gh_rows"] += keep.stop - keep.start
            counts["gh_entries"] += (keep.stop - keep.start) * (c1 - c0)
        elif math.isinf(beta):
            current = _terminal_kink_step(xs, math.sqrt(s2), c, a)
            if plans:
                entry = (None, _terminal_kink_dc(xs, math.sqrt(s2), c, a, current), None)
        else:
            current = _terminal_quad_step(xs, math.sqrt(s2), c, a, beta)
        vals[t_lo] = current
        tape.append(entry)
    return vals, counts, tape


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


def _mills(u):
    """phi(u) / Phi(u), stable for large |u|."""
    return np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - log_ndtr(u))


def _kink_moments(x, s: float, c: float, a: float):
    """E_pi f and E_pi f^2 for f(y) = |y| - ay under the law of y = x + sZ
    tilted by exp(c f(y)): two truncated normals, with means shifted by
    c (1 - a) s^2 on y > 0 and -c (1 + a) s^2 on y < 0."""
    lam_p = c * (1.0 - a)
    lam_m = -c * (1.0 + a)
    mu_p = x + lam_p * s * s
    mu_m = x + lam_m * s * s
    log_pos = lam_p * x + 0.5 * lam_p**2 * s**2 + log_ndtr(mu_p / s)
    log_neg = lam_m * x + 0.5 * lam_m**2 * s**2 + log_ndtr(-mu_m / s)
    log_tot = np.logaddexp(log_pos, log_neg)
    w_p = np.exp(log_pos - log_tot) * (1.0 - a)
    w_m = np.exp(log_neg - log_tot) * (1.0 + a)
    r_p = s * _mills(mu_p / s)  # E[y | y > 0] = mu_p + r_p
    r_m = s * _mills(-mu_m / s)  # E[y | y < 0] = mu_m - r_m
    mean = w_p * (mu_p + r_p) - w_m * (mu_m - r_m)
    second = (1.0 - a) * w_p * (mu_p * mu_p + s * s + mu_p * r_p) + (1.0 + a) * w_m * (
        mu_m * mu_m + s * s - mu_m * r_m
    )
    return mean, second


def _terminal_kink_dc(grid, s: float, c: float, a: float, out):
    """d/dc of _terminal_kink_step(grid, s, c, a), whose value is out."""
    if abs(c) >= _SMALL_C:
        return (_kink_moments(grid, s, c, a)[0] - out) / c
    mean, second = _kink_moments(grid, s, 2.0 * c / 3.0, a)
    return 0.5 * (second - mean * mean)


class _StencilPlan:
    """_gh_shifted of one step width on an n-point grid as a sparse matrix,
    built once per width.

    op, of shape (nodes n, 3n) in CSR form with int32 indices, maps the
    stencil terms u of _stencil_terms to the shifted slices: row j n + i is
    node j at grid point i.  An interior entry's row reads v0, d1 and d2 with
    coefficients 1, t_j / 2 and (t_j / 2) t_j; a tail entry's reads the end
    value with 1 and the end-cell or asymptotic slope with its offset from the
    end.  CSR products sum a row's terms in order, which is _gh_shifted's
    order, so op @ u is _gh_shifted bit for bit.  The transpose is the CSC
    view op_t = op.T, made once, followed by the adjoint of u(vals).
    """

    def __init__(self, n: int, dx: float, s: float, nodes: int):
        self.s, self.dx = s, dx
        self.nearest, self.t = _gh_shifts(dx, s, nodes)
        t = self.t[:, None]
        m = n - 2
        base = self.nearest[:, None] + np.arange(n)
        p = base + t
        # (entries, u index of the end value, in the end cell, offset from the end)
        tails = ((base < 1, 3 * m, p >= 0, p * dx), (base > n - 2, 3 * m + 3, p <= n - 1, p * dx - (n - 1) * dx))
        inner = ~(tails[0][0] | tails[1][0])
        indptr = np.zeros(nodes * n + 1, dtype=np.int32)
        np.cumsum(np.where(inner, 3, 2), out=indptr[1:])
        row_start = indptr[:-1].reshape(nodes, n)
        cols = np.empty(indptr[-1], dtype=np.int32)
        coefs = np.empty(indptr[-1])
        at, k = row_start[inner], base[inner] - 1
        h1 = np.broadcast_to(0.5 * t, base.shape)
        for o, coef in enumerate((1.0, h1[inner], (h1 * t)[inner])):
            cols[at + o] = o * m + k
            coefs[at + o] = coef
        for entries, end, in_cell, off in tails:
            at = row_start[entries]
            cols[at] = end
            coefs[at] = 1.0
            cols[at + 1] = np.where(in_cell[entries], end + 1, end + 2)
            coefs[at + 1] = off[entries]
        self.op = csr_array((coefs, cols, indptr), shape=(nodes * n, 3 * n))
        self.op_t = self.op.T  # a CSC view sharing op's arrays

    def transpose(self, wmat, first: int = 0):
        """The adjoint of the input slice, given the adjoint wmat of the
        shifted slices of nodes first, first + 1, ... (the other nodes'
        adjoint is zero)."""
        rows, n = wmat.shape
        padded = np.zeros((self.op.shape[0] // n, n))
        padded[first : first + rows] = wmat
        g = self.op_t @ padded.ravel()
        gv0, gd1, gd2 = g[: 3 * (n - 2)].reshape(3, n - 2)
        g_lo, lo_slope, _, g_hi, hi_slope, _ = g[3 * (n - 2) :]
        out = np.zeros(n)
        out[1:-1] = gv0 - 2.0 * gd2
        out[2:] += gd1 + gd2
        out[:-2] += gd2 - gd1
        out[:2] += (g_lo - lo_slope / self.dx, lo_slope / self.dx)
        out[-2:] += (-hi_slope / self.dx, g_hi + hi_slope / self.dx)
        return out


class _AlgObjective:
    """P(zeta) on the unmerged partition breaks, from 0, as a function of
    the values on it, with its exact gradient (module docstring), on the
    grid xs around h at beta = infinity and a = 0.

    Every evaluation uses the same step widths, so each width's stencil plan
    is built once here.  A call repeated at the same point is answered from
    the last one.
    """

    def __init__(self, m: Mixture, breaks, xs, nodes: int):
        self.xs, self.nodes = xs, nodes
        self.center = (len(xs) - 1) // 2  # xs[center] is h
        # d/dzeta_i of -(1/2) int t xi''(t) zeta(t) dt, antiderivative t xi' - xi
        self.lin = -0.5 * np.diff([t * xi_eval(m, t, 1) - xi_eval(m, t, 0) for t in (*breaks, 1.0)])
        self.steps = _steps(m, breaks, [0.0] * len(breaks))
        n, dx = len(xs), xs[1] - xs[0]
        self.plans = [_StencilPlan(n, dx, math.sqrt(s2), nodes) if k and s2 > 0 else None
                      for k, (_, _, s2) in enumerate(self.steps)]
        self._last = (None, None)

    def __call__(self, zeta):
        zeta = np.array(zeta, dtype=float)
        if np.array_equal(self._last[0], zeta):
            return self._last[1]
        steps = [(t_lo, c, s2) for (t_lo, _, s2), c in zip(self.steps, zeta[::-1].tolist())]
        vals, _, tape = _backward(self.xs, steps, 0.0, math.inf, self.nodes, plans=self.plans)
        value = float(vals[steps[-1][0]][self.center]) + float(self.lin @ zeta)
        grad = self.lin.copy()
        adj = np.zeros(len(self.xs))
        adj[self.center] = 1.0
        for i, (entry, plan) in enumerate(zip(tape[::-1], self.plans[::-1])):
            if entry is not None:
                pi, dc, first = entry
                grad[i] += adj @ dc
                if plan is not None:
                    adj = plan.transpose(pi * adj, first)
        self._last = (zeta, (value, grad))
        return value, grad


# Per-sweep tolerances of L-BFGS-B: a sweep ends early only once the
# projected gradient or the relative decrease is at rounding level.
_LBFGS_GTOL = 1e-10
_LBFGS_FTOL = 1e-15
# A level's sweeps stop once one improves its objective by less than this.
_SWEEP_TOL = 1e-6


class AlgLevel(NamedTuple):
    """One refinement level of alg_is_levels."""

    levels: int
    value: float  # P(zeta) from one solver run, the number parisi_is gives
    zeta: tuple  # the profile's values on the breaks i / levels
    proj_grad: float  # max projected gradient of the discretized P at zeta


def _projected_gradient(zeta, grad, cap: float) -> float:
    """max_i |dP/dzeta_i| where 0 < zeta_i < cap, max(-dP/dzeta_i, 0) where
    zeta_i = 0 and max(dP/dzeta_i, 0) where zeta_i = cap: zero exactly at a
    first-order point of P on 0 <= zeta <= cap."""
    return float(max(max(-g, 0.0) if z <= 0.0 else max(g, 0.0) if z >= cap else abs(g)
                     for z, g in zip(zeta, grad)))


def alg_is_numeric(m: Mixture, knots: int = 16, **kw) -> float:
    """Minimum of the Ising functional over nonnegative (not necessarily
    monotone) step profiles on a uniform q-grid: the value at the finest
    level of `alg_is_levels`, which takes the options kw."""
    return alg_is_levels(m, knots, **kw)[-1].value


def alg_is_levels(
    m: Mixture,
    knots: int = 16,
    grid=None,
    sweeps_min: int = 3,
    sweeps_max: int = 12,
    value_cap: float = 32.0,
    gh_nodes: int = _GH_NODES,
) -> list:
    """[AlgLevel(levels, value, zeta, proj_grad), ...] for levels = 8, 16,
    ... up to `knots` (8 times a power of two), from one refinement pass.

    Every level applies one rule to its candidates, each a start profile
    with its value: descend from the start, solve the result, keep the
    result only if it does not solve higher than the start (else keep the
    start), and return the lowest candidate as the level.  Level 8's
    candidates are the distinct zero, constant and slope-profile starts;
    each later level's one candidate is the previous level's profile
    doubled, which merges back to it and so carries its value unsolved.

    A descent minimizes the discretized functional over 0 <= zeta_i <=
    value_cap with projected L-BFGS-B on its exact gradient (module
    docstring).  A sweep is `levels` L-BFGS-B iterations started from the
    current profile with fresh curvature memory; sweeps stop after at least
    sweeps_min once one improves by less than _SWEEP_TOL.

    Values are parisi_is(..., self_check=False) at the returned profile.  So
    they are at most the zeta = 0 value and nonincreasing across levels,
    and the value at each level equals `alg_is_numeric` with that many
    knots.  proj_grad certifies first-order optimality of the discretized
    objective at the returned profile.  gh_nodes is the Gauss-Hermite node
    count of every evaluation and value solve.
    """
    octaves = knots // 8 if isinstance(knots, int) else 0
    if not (knots == 8 * octaves and octaves >= 1 and octaves & (octaves - 1) == 0):
        raise ArgumentError(f"knots={knots} must be 8 times a power of two")
    if sweeps_max < 1:
        raise ArgumentError(f"sweeps_max={sweeps_max} must be >= 1")
    if sweeps_min > sweeps_max:
        raise ArgumentError(f"sweeps_min={sweeps_min} exceeds sweeps_max={sweeps_max}")
    if not value_cap > 0:
        raise ArgumentError(f"value_cap={value_cap} must be positive")
    if grid is None:
        length = _default_grid(m, m.h)[0]
        grid = (length, min(0.04, 0.01 * length))
    xs = _grid_points(grid, m.h, gh_nodes)

    def value_of(values):
        breaks = tuple(i / len(values) for i in range(len(values)))
        return parisi_is(PiecewiseZeta(breaks, values), m, grid, self_check=False, gh_nodes=gh_nodes)

    def descend(objective, values):
        x = np.array(values, dtype=float)
        best = objective(x)[0]
        options = {"maxiter": len(x), "gtol": _LBFGS_GTOL, "ftol": _LBFGS_FTOL}
        for sweep in range(sweeps_max):
            res = minimize(objective, x, jac=True, method="L-BFGS-B",
                           bounds=[(0.0, value_cap)] * len(x), options=options)
            improved = best - res.fun
            if improved > 0.0:
                x, best = res.x, res.fun
            if improved < _SWEEP_TOL and sweep + 1 >= sweeps_min:
                break
        return [float(v) for v in x]

    levels, out = 8, []
    breaks = tuple(i / levels for i in range(levels))
    starts = [
        [0.0] * levels,
        [min(1.0, value_cap)] * levels,
        [min(_slope_profile(m, (b + 0.5 / levels)), value_cap) for b in breaks],
    ]
    candidates = [(s, value_of(s)) for i, s in enumerate(starts) if s not in starts[:i]]
    while True:
        objective = _AlgObjective(m, tuple(i / levels for i in range(levels)), xs, gh_nodes)
        best_vals, best = None, math.inf
        for start, start_value in candidates:
            vals = descend(objective, start)
            value = value_of(vals)
            if not value <= start_value:
                vals, value = start, start_value
            if value < best:
                best_vals, best = vals, value
        grad = objective(best_vals)[1]
        out.append(AlgLevel(levels, best, tuple(best_vals), _projected_gradient(best_vals, grad, value_cap)))
        if levels == knots:
            return out
        levels *= 2
        # the doubled profile merges back to best_vals, so it solves to best
        candidates = [([best_vals[i // 2] for i in range(levels)], best)]
