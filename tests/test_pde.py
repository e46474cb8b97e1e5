import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr, logsumexp, ndtr, owens_t

from spinlab import rng
from spinlab.errors import ArgumentError, NumericError
from spinlab.mixture import Mixture, pure, xi_eval
from spinlab.parisi import (
    PiecewiseZeta,
    alg_is_levels,
    alg_is_numeric,
    parisi_is,
    shift_identity_check,
    solve_parisi_pde,
)
from spinlab.parisi import pde
from terminal_step_oracle import TERMINAL_GRIDS, cases, grid_points, load_table, mp_terminal_step

M2 = pure(2)
Z0 = PiecewiseZeta.zero()
GRID = (6.0, 0.002)
COARSE = (6.0, 0.01)


def folded_mean(mu, s):
    return s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * (
        1 - math.erfc(mu / (s * math.sqrt(2)))
    )


def test_folded_normal_closed_form():
    sol = solve_parisi_pde(M2, Z0, grid=GRID)
    s = math.sqrt(2.0)
    assert sol.eval(0.0, 0.0) == pytest.approx(s * math.sqrt(2 / math.pi), abs=1e-5)
    for h in (0.5, 1.0):
        sol = solve_parisi_pde(M2, Z0, grid=GRID, center=h)
        assert sol.eval(0.0, h) == pytest.approx(folded_mean(h, s), abs=1e-5)


def test_terminal_beta_gap_identity():
    solb = solve_parisi_pde(M2, Z0, beta=4.0, grid=COARSE)
    soli = solve_parisi_pde(M2, Z0, grid=COARSE)
    i0 = int(np.argmin(np.abs(solb.grid)))
    gap = solb.values[1.0][i0] - soli.values[1.0][i0]
    assert gap == pytest.approx(math.log(2.0) / 4.0, abs=1e-12)


def test_beta_gap_bound():
    z = PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 1.0, 0.6))
    for beta in (4.0, 32.0):
        gb = solve_parisi_pde(M2, z, beta=beta, grid=GRID).eval(0.0, 0.0)
        gi = solve_parisi_pde(M2, z, grid=GRID).eval(0.0, 0.0)
        assert 0.0 <= gb - gi <= math.log(2.0) / beta + 1e-5


def test_grid_precondition():
    with pytest.raises(ArgumentError):
        solve_parisi_pde(M2, Z0, grid=(5.0, 0.2))
    with pytest.raises(ArgumentError):
        solve_parisi_pde(M2, Z0, a=1.5)
    with pytest.raises(ArgumentError, match="beta"):
        solve_parisi_pde(M2, Z0, beta=math.nan, grid=COARSE)


def test_self_check_fires_on_coarse_quadrature():
    # many closely spaced steps + few nodes under-resolve the quadrature
    z = PiecewiseZeta(tuple(np.linspace(0, 0.95, 12)), tuple(np.linspace(0.2, 2.0, 12)))
    with pytest.raises(NumericError):
        solve_parisi_pde(M2, z, grid=(6.0, 0.06), gh_nodes=4)


def test_solution_invariants_convex_lipschitz():
    z = PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 1.0, 0.6))
    sol = solve_parisi_pde(M2, z, a=0.5, beta=8.0, grid=GRID)
    for t in sol.times:
        vals = sol.values[t]
        assert np.diff(vals, 2).min() >= -1e-8
        slopes = np.diff(vals) / np.diff(sol.grid)
        assert np.max(np.abs(slopes)) <= 1.5 + 1e-9


@pytest.mark.parametrize("grid", TERMINAL_GRIDS)
def test_windowed_terminal_step_matches_oracle(grid):
    """Every case against its committed mpmath reference (terminal_step_oracle)."""
    xs = grid_points(grid)
    assert len(xs) > 2 * 512
    rows = load_table()[TERMINAL_GRIDS.index(grid)]
    worst = 0.0
    for (beta, a, c, s, i), (table_i, want) in zip(cases(grid), rows, strict=True):
        assert i == table_i  # the table holds each case's reference at its drawn index
        got = pde._terminal_quad_step(xs, s, c, a, beta)
        worst = max(worst, abs(got[i] - want) / abs(want))
    assert worst <= 1e-13


def test_terminal_step_table_is_the_oracle():
    """A seeded handful of the committed references, recomputed with mpmath."""
    table = load_table()
    flat = [(g, k) for g, rows in enumerate(table) for k in range(len(rows))]
    assert len(flat) == 288
    for pick in rng.stream(68, "terminal-table").choice(len(flat), 6, replace=False):
        g, k = flat[pick]
        grid = TERMINAL_GRIDS[g]
        beta, a, c, s, i = list(cases(grid))[k]
        assert mp_terminal_step(grid_points(grid)[i], s, c, a, beta) == table[g][k][1], (grid, k)


def oracle_log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) for a < b, stable in both tails."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    flip = b <= 0.0
    aa = np.where(flip, -b, a)
    bb = np.where(flip, -a, b)
    # now the mass is on [aa, bb] with bb > 0
    straddle = aa < 0.0
    with np.errstate(divide="ignore"):
        out = np.where(
            straddle,
            np.log(np.maximum(ndtr(bb) - ndtr(aa), 1e-320)),
            log_ndtr(-aa) + np.log(-np.expm1(np.minimum(log_ndtr(-bb) - log_ndtr(-aa), -1e-320))),
        )
    return out


def oracle_exact_pl_step(grid, vals, slopes, s: float, c: float):
    """Exact Gaussian convolution of the piecewise-linear slice (with linear
    tails); O(n_grid^2) per step but kink-exact: the oracle for _gh_step."""
    edges = np.concatenate([[-np.inf], grid, [np.inf]])
    seg_lo = edges[:-1]
    seg_hi = edges[1:]
    slopes_seg = np.empty(len(grid) + 1)
    slopes_seg[0] = slopes[0]
    slopes_seg[-1] = slopes[1]
    slopes_seg[1:-1] = np.diff(vals) / np.diff(grid)
    # intercept alpha so f(y) = alpha + beta y on each segment
    anchor_x = np.concatenate([[grid[0]], grid])
    anchor_v = np.concatenate([[vals[0]], vals])
    alpha = anchor_v - slopes_seg * anchor_x

    out = np.empty(len(grid))
    chunk = 256
    for start in range(0, len(grid), chunk):
        x = grid[start : start + chunk][:, None]
        if c == 0.0:
            lo = (seg_lo[None, :] - x) / s
            hi = (seg_hi[None, :] - x) / s
            mass = ndtr(hi) - ndtr(lo)
            phi_lo = np.where(np.isfinite(lo), np.exp(-0.5 * lo**2), 0.0) / math.sqrt(2 * math.pi)
            phi_hi = np.where(np.isfinite(hi), np.exp(-0.5 * hi**2), 0.0) / math.sqrt(2 * math.pi)
            mean_y = x * mass - s * (phi_hi - phi_lo)
            out[start : start + chunk] = np.sum(
                alpha[None, :] * mass + slopes_seg[None, :] * mean_y, axis=1
            )
        else:
            shift = x + c * slopes_seg[None, :] * s**2
            log_mass = oracle_log_gauss_mass((seg_lo[None, :] - shift) / s, (seg_hi[None, :] - shift) / s)
            log_term = (
                c * alpha[None, :]
                + c * slopes_seg[None, :] * x
                + 0.5 * (c * slopes_seg[None, :] * s) ** 2
                + log_mass
            )
            out[start : start + chunk] = logsumexp(log_term, axis=1) / c
    return out


def test_exact_method_agrees_with_gh(monkeypatch):
    z = PiecewiseZeta((0.0, 0.4), (0.3, 0.9))
    a = solve_parisi_pde(M2, z, grid=GRID, self_check=False).eval(0.0, 0.0)
    monkeypatch.setattr(
        pde, "_gh_step", lambda grid, vals, slopes, s, c, nodes: oracle_exact_pl_step(grid, vals, slopes, s, c)
    )
    b = solve_parisi_pde(M2, z, grid=GRID, self_check=False).eval(0.0, 0.0)
    assert a == pytest.approx(b, abs=1e-6)


def _shifted_slice(grid, vals, slopes, delta):
    """One node's shifted slice, as _gh_step computed it one node at a time
    before it batched the nodes: the bit-identity oracle."""
    n = len(grid)
    dx = grid[1] - grid[0]
    shift = delta / dx
    nearest = math.floor(shift + 0.5)
    t = shift - nearest
    base = np.arange(n) + nearest
    core = np.clip(base, 1, n - 2)
    vm, v0, vp = vals[core - 1], vals[core], vals[core + 1]
    out = v0 + 0.5 * t * (vp - vm) + 0.5 * t * t * (vp - 2.0 * v0 + vm)
    lo_mask = base < 1
    hi_mask = base > n - 2
    if lo_mask.any():
        off = (base[lo_mask] + t) * dx
        out[lo_mask] = np.where(
            base[lo_mask] + t >= 0,
            vals[0] + (vals[1] - vals[0]) / dx * off,
            vals[0] + slopes[0] * off,
        )
    if hi_mask.any():
        off = (base[hi_mask] + t) * dx - (n - 1) * dx
        out[hi_mask] = np.where(
            base[hi_mask] + t <= n - 1,
            vals[-1] + (vals[-1] - vals[-2]) / dx * off,
            vals[-1] + slopes[1] * off,
        )
    return out


def _gh_step_per_node(grid, vals, slopes, s, c, nodes, all_nodes=False):
    """_gh_step one node at a time, over _gh_step's kept nodes or, with
    all_nodes, over every node as it summed before the reach truncation."""
    z, w, logw = pde._gh_roots(nodes)
    if not all_nodes:
        keep = pde._gh_kept(s, c, max(map(abs, slopes)), nodes)
        z, w, logw = z[keep], w[keep], logw[keep]
    fmat = np.stack([_shifted_slice(grid, vals, slopes, math.sqrt(2.0) * s * zj) for zj in z])
    if c == 0.0:
        return (w / math.sqrt(math.pi)) @ fmat
    a = c * fmat + logw[:, None]
    amax = a.max(axis=0)
    return (np.log(np.sum(np.exp(a - amax[None, :]), axis=0)) + amax) / c


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_gh_step_bit_identical_to_per_node_loop(dx):
    half = int(math.ceil(10.65 / dx))
    xs = dx * np.arange(-half, half + 1)
    a = 0.3
    slopes = (-1.0 - a, 1.0 - a)
    vals = pde._terminal_kink_step(xs, 0.8, 0.6, a)
    node_counts = (4, 64, 128, 256)
    width = xs[-1] - xs[0]
    for nodes in node_counts:
        z = pde._gh_roots(nodes)[0]
        # the largest s shifts the outer kept nodes past both ends of the
        # grid, so both tail branches (in-grid and asymptotic slope) are taken
        for c in (0.0, 1.5):
            kept = z[pde._gh_kept(12.0, c, max(map(abs, slopes)), nodes)]
            assert math.sqrt(2.0) * 12.0 * min(-kept.min(), kept.max()) > width
        for s in (0.05, 0.5, 12.0):
            for c in (0.0, 1.5):
                got = pde._gh_step(xs, vals, slopes, s, c, nodes)
                want = _gh_step_per_node(xs, vals, slopes, s, c, nodes)
                assert np.max(np.abs(got - want)) == 0.0


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_gh_truncation_matches_all_nodes(dx):
    """Dropping the nodes past the reach moves no slice by more than
    rounding: truncated _gh_step against the all-node per-node loop."""
    half = int(math.ceil(10.65 / dx))
    xs = dx * np.arange(-half, half + 1)
    a = 0.3
    slopes = (-1.0 - a, 1.0 - a)
    vals = pde._terminal_kink_step(xs, 0.8, 0.6, a)
    dropped = 0
    for nodes in (64, 128, 256):
        for s in (0.05, 0.5, 12.0):
            for c in (0.0, 5e-4, 1.5, 8.0):
                keep = pde._gh_kept(s, c, max(map(abs, slopes)), nodes)
                dropped += nodes - (keep.stop - keep.start)
                got = pde._gh_step(xs, vals, slopes, s, c, nodes)
                want = _gh_step_per_node(xs, vals, slopes, s, c, nodes, all_nodes=True)
                assert np.max(np.abs(got - want)) <= 1e-13
    assert dropped > 0


def _plan_grid(dx):
    half = int(math.ceil(10.65 / dx))
    return dx * np.arange(-half, half + 1)


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_tape_step_bit_identical_to_plain_step(dx):
    """_gh_tape_step's output is _gh_step's, bit for bit: at c = 0, on both
    sides of the small-c threshold, and with shifts past both grid ends."""
    xs = _plan_grid(dx)
    a = 0.3
    slopes = (-1.0 - a, 1.0 - a)
    vals = pde._terminal_kink_step(xs, 0.8, 0.6, a)
    nodes = 64
    assert 0.0 < 5e-4 < pde._SMALL_C < 1.5
    for s in (0.05, 3.0):
        # the grid's own spacing, as _gh_step and _AlgObjective take it
        plan = pde._StencilPlan(len(xs), xs[1] - xs[0], s, nodes)
        for c in (0.0, 5e-4, 1.5):
            got = pde._gh_tape_step(xs, vals, slopes, plan, c, nodes)[0]
            want = pde._gh_step(xs, vals, slopes, s, c, nodes)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the wide step's outer nodes shift past both ends of the grid
    assert math.sqrt(2.0) * 3.0 * pde._gh_roots(nodes)[0].max() > xs[-1] - xs[0]


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_stencil_plan_is_the_shifted_slices_bit_for_bit(dx):
    """op @ u is _gh_shifted bit for bit, on a kept node range and on rows
    5-50, with both branches of both tails taken, on the full grid and on
    column ranges in the lower tail, across the interior and in the upper
    tail."""
    xs = _plan_grid(dx)
    n = len(xs)
    a = 0.3
    slopes = (-1.0 - a, 1.0 - a)
    vals = pde._terminal_kink_step(xs, 0.8, 0.6, a)
    nodes = 64
    # the widest step's outer kept rows lie wholly beyond both ends of the grid
    far = pde._gh_shifts(xs[1] - xs[0], 12.0, nodes)[0][pde._gh_kept(12.0, 0.0, 1.0 + a, nodes)]
    assert far.min() <= 1 - n and far.max() >= n - 1
    for s in (0.05, 12.0, 3.0):
        plan = pde._StencilPlan(n, xs[1] - xs[0], s, nodes)
        fmat = (plan.op @ pde._stencil_terms(xs, vals, slopes)).reshape(nodes, n)
        for keep in (pde._gh_kept(s, 0.0, 1.0 + a, nodes), slice(5, 50)):
            for cols in (None, (0, n), (0, 7), (n // 4, 3 * n // 4), (n - 7, n)):
                want = pde._gh_shifted(xs, vals, slopes, plan.nearest[keep], plan.t[keep], cols)
                got = fmat[keep, slice(*cols or (0, n))]
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the wide step's kept rows read both tails within the end cells and beyond
    kept = pde._gh_kept(3.0, 0.0, 1.0 + a, nodes)
    for col in (3 * n - 5, 3 * n - 4, 3 * n - 2, 3 * n - 1):  # u's end-cell and asymptotic slopes
        assert (plan.op[kept.start * n : kept.stop * n].indices == col).any()


def oracle_bincount_transpose(plan, wmat, first=0):
    """_StencilPlan.transpose as it was before the sparse plan: the tail
    entries' flat indices with their coefficients on the two end values, and
    one bincount per stencil coefficient over the interior entries."""
    rows, n = wmat.shape
    t = plan.t
    base = (plan.nearest[:, None] + np.arange(n)).ravel()
    pos = base + np.repeat(t, n)
    coefs = (0.5 * t * t - 0.5 * t, 1.0 - t * t, 0.5 * t * t + 0.5 * t)
    lo = np.flatnonzero(base < 1)
    p = pos[lo]
    lo = (lo, np.where(p >= 0, 1.0 - p, 1.0), np.where(p >= 0, p, 0.0))  # on vals[0], vals[1]
    hi = np.flatnonzero(base > n - 2)
    q = pos[hi] - (n - 1)
    hi = (hi, np.where(q <= 0, 1.0 + q, 1.0), np.where(q <= 0, -q, 0.0))  # on vals[-1], vals[-2]
    k = np.clip(base - 1, 0, n - 3)  # interior entries read vals[k], vals[k+1], vals[k+2]
    f0, f1 = first * n, (first + rows) * n
    flat = wmat.copy().ravel()
    out = np.zeros(n)
    for (entries, c_end, c_next), end, step in ((lo, 0, 1), (hi, n - 1, -1)):
        seg = slice(*np.searchsorted(entries, (f0, f1)))
        at = entries[seg] - f0
        w = flat[at]
        out[end] += w @ c_end[seg]
        out[end + step] += w @ c_next[seg]
        flat[at] = 0.0
    weighted = flat.reshape(rows, n)
    for o, coef in enumerate(coefs):
        out[o : n - 2 + o] += np.bincount(k[f0:f1], (weighted * coef[first : first + rows, None]).ravel(), minlength=n - 2)
    return out


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_stencil_transpose_is_the_adjoint_of_the_shifted_slices(dx):
    """<W, S(v) - S(0)> = <S^T W, v> for S = _gh_shifted, affine in v (S(0)
    holds the asymptotic-slope tails), with both branches of both tails."""
    xs = _plan_grid(dx)
    n = len(xs)
    slopes = (-1.3, 0.7)
    gen = rng.stream(65)
    nodes = 64
    for s in (0.05, 3.0):
        plan = pde._StencilPlan(n, xs[1] - xs[0], s, nodes)
        v = gen.standard_normal(n)
        wmat = gen.standard_normal((nodes, n))
        shifted = pde._gh_shifted(xs, v, slopes, plan.nearest, plan.t)
        shifted -= pde._gh_shifted(xs, np.zeros(n), slopes, plan.nearest, plan.t)
        lhs = float(np.sum(wmat * shifted))
        rhs = float(plan.transpose(wmat.copy()) @ v)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    # the wide plan reads both tails within the grid's end cells and beyond
    for col in (3 * n - 5, 3 * n - 4, 3 * n - 2, 3 * n - 1):  # u's end-cell and asymptotic slopes
        assert (plan.op.indices == col).any()


@pytest.mark.parametrize("dx", [0.04, 0.002])
def test_stencil_transpose_on_a_kept_row_range(dx):
    """The transpose over the rows of a truncated step (and over an
    asymmetric row range) is the adjoint of those rows' shifted slices, and
    equals the all-row transpose with the other rows' adjoint zero."""
    xs = _plan_grid(dx)
    n = len(xs)
    slopes = (-1.3, 0.7)
    gen = rng.stream(66)
    nodes = 64
    for s in (0.05, 3.0):
        plan = pde._StencilPlan(n, xs[1] - xs[0], s, nodes)
        for keep in (pde._gh_kept(s, 0.0, 1.3, nodes), slice(5, 50)):
            assert 0 < keep.start and keep.stop < nodes
            rows = keep.stop - keep.start
            v = gen.standard_normal(n)
            wmat = gen.standard_normal((rows, n))
            nearest, t = plan.nearest[keep], plan.t[keep]
            shifted = pde._gh_shifted(xs, v, slopes, nearest, t)
            shifted -= pde._gh_shifted(xs, np.zeros(n), slopes, nearest, t)
            lhs = float(np.sum(wmat * shifted))
            got = plan.transpose(wmat.copy(), keep.start)
            assert abs(lhs - float(got @ v)) <= 1e-12 * abs(lhs)
            padded = np.zeros((nodes, n))
            padded[keep] = wmat
            assert np.max(np.abs(got - plan.transpose(padded))) <= 1e-12 * np.max(np.abs(got))
    # the wide step's kept rows read both tails within the end cells and beyond
    kept = pde._gh_kept(3.0, 0.0, 1.3, nodes)
    for col in (3 * n - 5, 3 * n - 4, 3 * n - 2, 3 * n - 1):  # u's end-cell and asymptotic slopes
        assert (plan.op[kept.start * n : kept.stop * n].indices == col).any()


def test_gh_rows_counts_the_kept_rows():
    """meta["gh_rows"] sums the kept node counts over the GH steps, below
    the all-node count gh_steps x gh_nodes."""
    z = PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 1.0, 0.6))
    a, nodes = 0.5, 128
    sol = solve_parisi_pde(M2, z, a=a, grid=COARSE, gh_nodes=nodes)
    want = 0
    # every step below the terminal one is a GH step
    for t_lo, t_hi in zip(sol.times[:-2], sol.times[1:-1]):
        s = math.sqrt(xi_eval(M2, t_hi, 1) - xi_eval(M2, t_lo, 1))
        keep = pde._gh_kept(s, z(t_lo), 1.0 + a, nodes)
        want += keep.stop - keep.start
    assert sol.meta["gh_steps"] == 2
    assert sol.meta["gh_rows"] == want < sol.meta["gh_steps"] * nodes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    pieces=st.lists(st.tuples(st.one_of(st.floats(), st.floats(0.0, 1.0)), st.floats()), max_size=5),
    from_zero=st.booleans(),
    extra=st.lists(st.floats(), max_size=1),
)
@example(pieces=[(0.0, math.nan)], from_zero=False, extra=[])
@example(pieces=[(0.0, 1.0), (math.inf, 2.0)], from_zero=False, extra=[])
@example(pieces=[(0.0, 1.0), (math.nan, 2.0)], from_zero=False, extra=[])
@example(pieces=[(0.0, 1.0), (0.5, math.inf)], from_zero=False, extra=[])
@example(pieces=[(0.0, -math.inf)], from_zero=False, extra=[])
@example(pieces=[(0.0, 0.5), (0.25, 0.0)], from_zero=False, extra=[])
def test_zeta_constructs_only_finite_profiles(pieces, from_zero, extra):
    """Any float lists either make a profile with finite breaks strictly
    increasing inside [0, 1) from 0 and finite values >= 0, or raise
    ArgumentError."""
    breaks = [b for b, _ in pieces]
    if from_zero:
        breaks = [0.0] + breaks[1:]
    values = [v for _, v in pieces] + extra
    try:
        zeta = PiecewiseZeta(breaks, values)
    except ArgumentError:
        return
    assert zeta.breaks[0] == 0.0 and zeta.breaks[-1] < 1.0
    assert all(math.isfinite(b) for b in zeta.breaks)
    assert all(lo < hi for lo, hi in zip(zeta.breaks, zeta.breaks[1:]))
    assert all(math.isfinite(v) and v >= 0.0 for v in zeta.values)


def test_parisi_is_values():
    assert parisi_is(Z0, M2, grid=GRID) == pytest.approx(2 / math.sqrt(math.pi), abs=1e-5)
    m_field = Mixture({2: 1.0}, h=10.0)
    got = parisi_is(Z0, m_field, grid=(14.0, 0.002))
    assert got == pytest.approx(folded_mean(10.0, math.sqrt(2.0)), abs=1e-3)


def test_monotone_in_zeta():
    base = PiecewiseZeta((0.0, 0.5), (0.2, 0.6))
    gen = rng.stream(61)
    phi0 = solve_parisi_pde(M2, base, grid=COARSE, self_check=False).eval(0.0, 0.0)
    for _ in range(5):
        bump = PiecewiseZeta(
            (0.0, 0.5), (0.2 + gen.uniform(0, 1), 0.6 + gen.uniform(0, 1))
        )
        phi1 = solve_parisi_pde(M2, bump, grid=COARSE, self_check=False).eval(0.0, 0.0)
        assert phi1 >= phi0 - 1e-9


def test_lipschitz_in_zeta():
    gen = rng.stream(62)
    for _ in range(4):
        nb1, nb2 = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        b1 = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb1 - 1))])
        b2 = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb2 - 1))])
        za = PiecewiseZeta(tuple(b1), tuple(gen.uniform(0, 2, nb1)))
        zb = PiecewiseZeta(tuple(b2), tuple(gen.uniform(0, 2, nb2)))
        lhs = abs(
            solve_parisi_pde(M2, za, grid=GRID).eval(0.0, 0.0)
            - solve_parisi_pde(M2, zb, grid=GRID).eval(0.0, 0.0)
        )
        merged = sorted(set(za.breaks) | set(zb.breaks))
        bound = sum(
            abs(za(a) - zb(a)) * (xi_eval(M2, b, 1) - xi_eval(M2, a, 1))
            for a, b in zip(merged, merged[1:] + [1.0])
        )
        assert lhs <= bound + 5e-4


def test_shift_identity():
    assert shift_identity_check(M2, Z0, 0.0, 0.4, grid=COARSE) <= 1e-9
    assert shift_identity_check(M2, Z0, 1.0, 0.7, grid=COARSE) <= 1e-5
    gen = rng.stream(63)
    for _ in range(3):
        nb = int(gen.integers(2, 4))
        breaks = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb - 1))])
        z = PiecewiseZeta(tuple(breaks), tuple(gen.uniform(0, 2, nb)))
        r = shift_identity_check(M2, z, float(gen.uniform(-1, 1)), float(gen.uniform(-1, 1)), grid=GRID)
        assert r <= 1e-4


def test_alg_is_feasible_bound():
    msk = Mixture({2: math.sqrt(0.5)})
    z0_val = parisi_is(Z0, msk, grid=(8.0, 0.04), self_check=False)
    got = alg_is_numeric(msk, knots=8, sweeps_max=3)
    assert got <= z0_val + 1e-9
    with pytest.raises(ArgumentError):
        alg_is_numeric(msk, knots=4)


@pytest.mark.parametrize(
    "kw",
    [
        {"knots": 12},
        {"knots": 24},
        {"knots": 0},
        {"knots": 16.0},
        {"sweeps_max": 0},
        {"sweeps_min": 2, "sweeps_max": 1},
        {"value_cap": 0.0},
        {"value_cap": -1.0},
        {"value_cap": math.nan},
    ],
)
def test_alg_is_levels_rejects_silent_defaults(kw, monkeypatch):
    """Knot counts other than 8 2^k, no sweeps and an empty box are usage
    errors, raised before any solve."""
    monkeypatch.setattr(pde, "solve_parisi_pde", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ArgumentError):
        alg_is_levels(Mixture({2: math.sqrt(0.5)}), **kw)


def test_alg_is_levels_one_pass_equals_separate_calls():
    """Each level of one refinement pass is the value alg_is_numeric gives
    with that many knots, bit for bit, and the levels are nonincreasing."""
    m = Mixture({2: 0.8, 4: 0.4}, h=0.2)
    kw = {"grid": (4.0, 0.04), "sweeps_min": 1, "sweeps_max": 1, "value_cap": 4.0, "gh_nodes": 8}
    levels = alg_is_levels(m, knots=16, **kw)
    assert [lv.levels for lv in levels] == [8, 16]
    assert levels[0].value == alg_is_numeric(m, knots=8, **kw)
    assert levels[1].value == alg_is_numeric(m, knots=16, **kw)
    assert levels[1].value <= levels[0].value


ALG_MIXTURES = (Mixture({2: math.sqrt(0.5)}), Mixture({2: 0.8, 4: 0.4}, h=0.2))
ALG_GRID = (4.0, 0.04)


def _breaks(levels):
    return tuple(i / levels for i in range(levels))


BREAKS8 = _breaks(8)


def _objective(m, levels, nodes=8, grid=ALG_GRID):
    return pde._AlgObjective(m, levels, pde._grid_points(grid, m.h, nodes), nodes)


def oracle_alg_is_levels(m, knots, grid, sweeps_min, sweeps_max, sweep_tol=1e-6, value_cap=32.0, **solver_kw):
    """The coordinate search alg_is_levels ran before its gradient: per
    coordinate of each sweep, a bounded scalar search over [0, value_cap] and
    one around the current value, each trial a full solve.  [(levels,
    value), ...]."""

    def objective(breaks, values):
        return parisi_is(PiecewiseZeta(breaks, values), m, grid=grid, self_check=False, **solver_kw)

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

                res = minimize_scalar(f, bounds=(0.0, value_cap), method="bounded", options={"xatol": 1e-3})
                lo = max(0.0, 0.7 * values[i] - 0.05)
                hi = min(value_cap, 1.4 * values[i] + 0.05)
                local = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-4})
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
    breaks = _breaks(levels)
    starts = [
        [0.0] * levels,
        [1.0] * levels,
        [min(pde._slope_profile(m, (b + 0.5 / levels)), value_cap) for b in breaks],
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
        best_vals = [best_vals[i // 2] for i in range(levels)]
        best_vals, best = sweep_down(_breaks(levels), best_vals)
        out.append((levels, float(best)))
    return out


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_alg_is_levels_not_above_oracle(m):
    """At every level the L-BFGS-B value is at most the coordinate search's,
    and it is exactly the solver's value at the returned profile."""
    kw = {"grid": ALG_GRID, "sweeps_min": 1, "sweeps_max": 1, "value_cap": 4.0, "gh_nodes": 8}
    got = alg_is_levels(m, knots=16, **kw)
    want = oracle_alg_is_levels(m, 16, **kw)
    assert [lv.levels for lv in got] == [lv for lv, _ in want] == [8, 16]
    for lv, (_, oracle_value) in zip(got, want):
        assert lv.value <= oracle_value + 1e-6
        assert len(lv.zeta) == lv.levels and min(lv.zeta) >= 0.0 and max(lv.zeta) <= 4.0
        zeta = PiecewiseZeta(_breaks(lv.levels), lv.zeta)
        assert lv.value == parisi_is(zeta, m, grid=ALG_GRID, self_check=False, gh_nodes=8)
        grad = _objective(m, lv.levels)(lv.zeta)[1]
        assert lv.proj_grad == pde._projected_gradient(lv.zeta, grad, 4.0)
    assert got[1].value <= got[0].value


def test_alg_is_levels_keeps_the_start_when_the_search_ends_higher(monkeypatch):
    """A search result whose solver value is above its start's is dropped:
    level 8 keeps a start, and level 16 keeps the doubled profile, which
    solves to the same value."""
    m = ALG_MIXTURES[1]
    kw = {"grid": ALG_GRID, "sweeps_min": 1, "sweeps_max": 1, "value_cap": 4.0, "gh_nodes": 8}

    def worse(fun, x0, **_):
        return SimpleNamespace(x=np.full(len(x0), 4.0), fun=-math.inf)

    monkeypatch.setattr(pde, "minimize", worse)
    lv8, lv16 = alg_is_levels(m, knots=16, **kw)
    starts = [(0.0,) * 8, (1.0,) * 8, tuple(min(pde._slope_profile(m, b + 1 / 16), 4.0) for b in BREAKS8)]
    values = [parisi_is(PiecewiseZeta(BREAKS8, z), m, grid=ALG_GRID, self_check=False, gh_nodes=8) for z in starts]
    assert lv8.zeta == starts[int(np.argmin(values))]
    assert lv8.value == min(values)
    assert lv16.zeta == tuple(v for v in lv8.zeta for _ in (0, 1))
    assert lv16.value == lv8.value


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_a_doubled_profile_solves_to_its_own_value(m):
    """alg_is_levels carries a level's value to its doubled profile unsolved:
    a 16-level profile with distinct neighbours and its 32-level doubling
    solve to the same value, bit for bit."""
    values = rng.stream(65).uniform(0.0, 3.0, 16)
    values[5] = 0.0
    assert np.all(np.diff(values) != 0.0)
    doubled = np.repeat(values, 2)
    kw = {"grid": ALG_GRID, "self_check": False, "gh_nodes": 8}
    want = parisi_is(PiecewiseZeta(_breaks(16), values), m, **kw)
    assert parisi_is(PiecewiseZeta(_breaks(32), doubled), m, **kw) == want


def _central_difference(f, z, i, d=1e-3):
    """Fourth-order central difference of f along coordinate i."""

    def at(step):
        y = z.copy()
        y[i] += step
        return f(y)[0]

    return (8.0 * (at(d) - at(-d)) - (at(2 * d) - at(-2 * d))) / (12.0 * d)


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_gradient_matches_central_differences(m):
    """dP/dzeta of the discretized objective against its own central
    differences, at random profiles with zeros, values below the small-c
    threshold and equal neighbours (two separate steps, not merged)."""
    gen = rng.stream(64)
    f = _objective(m, 8)
    for _ in range(3):
        z = gen.uniform(0.0, 2.5, 8)
        z[gen.choice(8, 2, replace=False)] = 0.0
        z[gen.choice(8, 2, replace=False)] = gen.uniform(1e-4, 5e-4, 2)
        z[3] = z[4]
        z[7] = gen.choice((0.0, 3e-4, 1.3))
        grad = f(z)[1]
        fd = np.array([_central_difference(f, z, i) for i in range(8)])
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_gradient_matches_the_bincount_transpose(m, monkeypatch):
    """The objective's gradient through the sparse transpose is within 1e-13
    relative of its gradient through the bincount oracle, at the profiles of
    test_gradient_matches_central_differences."""
    gen = rng.stream(64)
    f = _objective(m, 8)
    profiles = []
    for _ in range(3):
        z = gen.uniform(0.0, 2.5, 8)
        z[gen.choice(8, 2, replace=False)] = 0.0
        z[gen.choice(8, 2, replace=False)] = gen.uniform(1e-4, 5e-4, 2)
        z[3] = z[4]
        z[7] = gen.choice((0.0, 3e-4, 1.3))
        profiles.append(z)
    got = [f(z)[1] for z in profiles]
    monkeypatch.setattr(pde._StencilPlan, "transpose", oracle_bincount_transpose)
    oracle = _objective(m, 8)
    for z, grad in zip(profiles, got):
        want = oracle(z)[1]
        assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_gradient_across_a_node_set_switch(m):
    """The kept node range of a step grows with c.  With one level within
    1e-7 of the c where a node enters, the gradient still matches central
    differences whose points straddle the switch."""
    nodes, i = 64, 2
    f = _objective(m, 8, nodes=nodes)
    s = f.widths[i]
    z = pde._gh_roots(nodes)[0]
    # node j enters where sqrt(2) s |z_j| = (12 + c s) s, the slopes being +-1
    entry = (math.sqrt(2.0) * z[z > 0.0] - 12.0) / s
    c_switch = float(entry[(entry > 0.5) & (entry < 4.0)][0])
    below = pde._gh_kept(s, c_switch - 5e-8, 1.0, nodes)
    above = pde._gh_kept(s, c_switch + 5e-8, 1.0, nodes)
    assert above.stop - above.start == below.stop - below.start + 2
    values = np.array([0.3, 0.8, c_switch + 5e-8, 1.2, 0.6, 1.9, 0.0, 1.4])
    grad = f(values)[1]
    fd = np.array([_central_difference(f, values, k) for k in range(8)])
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_gradient_continuous_at_the_small_c_threshold():
    f = _objective(ALG_MIXTURES[1], 8)
    below = np.full(8, pde._SMALL_C * (1.0 - 1e-9))
    above = np.full(8, pde._SMALL_C)
    assert np.max(np.abs(f(below)[1] - f(above)[1])) <= 1e-9


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_gradient_matches_first_variation_at_zero(m):
    """At zeta = 0 the first variation of Jagannath-Tobasco reads
    dP/dzeta on [a, b] = (1/2) int_a^b xi''(t) (E[u_x(t, X_t)^2] - t) dt with
    X_t ~ N(h, xi'(t)) and u_x(t, x) = erf(x / sqrt(2 (xi'(1) - xi'(t)))), so
    E[u_x^2] = 1 - 8 T(h / sqrt(xi'(1)), sqrt((xi'(1) - xi'(t)) / (xi'(1) + xi'(t))))
    with Owen's T."""
    levels = 8
    grad = _objective(m, levels, nodes=64, grid=(6.0, 0.005))(np.zeros(levels))[1]
    tz, tw = np.polynomial.legendre.leggauss(24)
    xi1 = xi_eval(m, 1.0, 1)
    want = []
    for i in range(levels):
        # t = 1 - r^2 takes out the sqrt(1 - t) behaviour of E[u_x^2] near t = 1
        r_lo, r_hi = math.sqrt(1.0 - (i + 1) / levels), math.sqrt(1.0 - i / levels)
        r = 0.5 * (r_lo + r_hi) + 0.5 * (r_hi - r_lo) * tz
        t = 1.0 - r * r
        d1 = np.array([xi_eval(m, v, 1) for v in t])
        d2 = np.array([xi_eval(m, v, 2) for v in t])
        ux2 = 1.0 - 8.0 * owens_t(m.h / math.sqrt(xi1), np.sqrt((xi1 - d1) / (xi1 + d1)))
        want.append((r_hi - r_lo) * np.sum(tw * r * 0.5 * d2 * (ux2 - t)))
    assert np.max(np.abs(grad - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("m", ALG_MIXTURES, ids=("sk", "p2p4h"))
def test_objective_forward_equals_solve(m):
    """With no equal neighbours, the objective's forward pass is the solver's
    recursion: its value is parisi_is's to rounding of the linear term, and
    with equal neighbours (merged by the solver) it stays within 1e-5."""
    f = _objective(m, 8, nodes=16)
    base = (0.3, 0.5, 0.45, 0.9, 1.2, 0.8, 1.6, 2.0)
    for values, tol in ((base, 1e-15), ((0.0,) * 8, 1e-5), ((0.3, 0.5, 0.5, 0.9, 0.0, 0.0, 1.6, 1.6), 1e-5)):
        want = parisi_is(PiecewiseZeta(BREAKS8, values), m, grid=ALG_GRID, self_check=False, gh_nodes=16)
        assert f(values)[0] == pytest.approx(want, abs=tol)


def test_projected_gradient():
    assert pde._projected_gradient((0.0, 0.0, 1.0), (0.5, -0.25, 0.0), 32.0) == 0.25
    assert pde._projected_gradient((0.0, 2.0), (3.0, -0.125), 32.0) == 0.125
    assert pde._projected_gradient((0.0,), (7.0,), 32.0) == 0.0
    # at the cap only g > 0 counts (descent lowers zeta_i), as only g < 0 does at 0
    assert pde._projected_gradient((32.0, 1.0), (-5.0, 0.5), 32.0) == 0.5
    assert pde._projected_gradient((32.0, 1.0), (0.75, 0.5), 32.0) == 0.75
    assert pde._projected_gradient((2.0, 2.0), (-1.5, 0.25), 2.0) == 0.25


def test_self_check_reuses_only_the_terminal_step():
    """The node-doubled reference solve reuses the node-independent terminal
    step: its delta is bit-identical to that of two separate solves."""
    z = PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 1.0, 0.6))
    got = solve_parisi_pde(M2, z, grid=COARSE, gh_nodes=16)
    one = solve_parisi_pde(M2, z, grid=COARSE, gh_nodes=16, self_check=False)
    two = solve_parisi_pde(M2, z, grid=COARSE, gh_nodes=32, self_check=False)
    assert got.meta["gh_steps"] == 2
    assert got.meta["self_check_delta"] == abs(one.eval(0.0, 0.0) - two.eval(0.0, 0.0))


CONE_ZETAS = (
    PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 1.0, 0.6)),
    # a c = 0 step: it and the steps before it compute the full grid
    PiecewiseZeta((0.0, 0.3, 0.7), (0.4, 0.0, 0.6)),
    PiecewiseZeta((0.0, 0.3, 0.7), (0.0, 1.0, 0.6)),
)


@pytest.mark.parametrize("beta", [math.inf, 8.0])
@pytest.mark.parametrize("a", [0.0, 0.5, -0.5])
def test_self_check_solves_only_the_cone(a, beta):
    """The reference solve computes only the columns Phi(0, center) depends
    on, and its delta is bit-identical to that of a full-grid reference
    solve, with cones that stay inside the grid and cones that reach both of
    its ends."""
    reach = []
    for grid, center in (((10.0, 0.02), 0.3), ((6.0, 0.02), -0.2)):
        for z in CONE_ZETAS:
            sol = solve_parisi_pde(M2, z, a=a, beta=beta, grid=grid, center=center, gh_nodes=32)
            full = pde._solve_on_grid(M2, z, a, beta, sol.grid, 64, top=sol)
            assert sol.meta["self_check_delta"] == abs(sol.eval(0.0, center) - full.eval(0.0, center))
            cone = pde._solve_on_grid(M2, z, a, beta, sol.grid, 64, top=sol, point=(len(sol.grid) - 1) // 2)
            first_gh = cone.values[0.3]
            reach.append(bool(np.isfinite(first_gh[[0, -1]]).all()))
            computed = np.count_nonzero(np.isfinite(cone.values[0.0]))
            assert computed == (2 if z(0.0) > 0.0 else len(sol.grid))
    assert True in reach and False in reach


def test_self_check_entries_count_the_cone():
    """meta["self_check_entries"] sums kept rows x computed columns over the
    reference solve's Gauss-Hermite steps, below the full-grid count."""
    z = CONE_ZETAS[0]
    a, nodes = 0.5, 16
    sol = solve_parisi_pde(M2, z, a=a, grid=(10.0, 0.02), center=0.3, gh_nodes=nodes)
    cone = pde._solve_on_grid(M2, z, a, math.inf, sol.grid, 2 * nodes, top=sol, point=(len(sol.grid) - 1) // 2)
    want = full = 0
    for t_lo, t_hi in zip(sol.times[:-2], sol.times[1:-1]):
        s = math.sqrt(xi_eval(M2, t_hi, 1) - xi_eval(M2, t_lo, 1))
        keep = pde._gh_kept(s, z(t_lo), 1.0 + a, 2 * nodes)
        want += (keep.stop - keep.start) * np.count_nonzero(np.isfinite(cone.values[t_lo]))
        full += (keep.stop - keep.start) * len(sol.grid)
    assert sol.meta["self_check_entries"] == want < full


def test_self_check_rejects_a_non_finite_delta(monkeypatch):
    """A reference solve that reads NaN at the center fails the self-check."""
    solve = pde._solve_on_grid

    def nan_reference(*args, top=None, **kw):
        sol = solve(*args, top=top, **kw)
        if top is not None:
            sol.values[0.0] = np.full(len(sol.grid), np.nan)
        return sol

    monkeypatch.setattr(pde, "_solve_on_grid", nan_reference)
    with pytest.raises(NumericError, match="nan"):
        solve_parisi_pde(M2, CONE_ZETAS[0], grid=COARSE, gh_nodes=16)
