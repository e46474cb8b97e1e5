"""Acceptance suite: one callable per criterion, each returning a
CriterionResult with a pass/fail verdict at its pinned tolerance.

Run via spinlab.acceptance.run_all() or the `selftest` subcommand; the pytest
module tests/test_acceptance.py asserts every criterion.
"""

import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .ensembles import (
    CorrelationLadder,
    OverlapLadder,
    TreeShape,
    constrained_membership,
    kappa_level,
    lca_depth,
    leaf_weights,
    m_matrix,
    sample_ensemble,
    target_overlap_matrix,
)
from .errors import ArgumentError
from .hamiltonian import energy, pool_map, sample_hamiltonian, sample_tensors
from .mixture import Mixture, pure, xi_eval
from .ogp import check_chi_properties, estimate_chi, overlap_concentration, ChiEstimate
from .optimizers import (
    AmpSpec,
    amp,
    extend_to_sphere,
    round_to_corners,
    state_evolution,
    subag_ascent,
)
from .parisi import (
    PiecewiseZeta,
    alg_is_levels,
    alg_sp,
    b_profile,
    cascade_value,
    gaussian_quadratic_logmoment,
    increasify_is,
    increasify_sp,
    lambda_recursion,
    opt_sp_numeric,
    shift_identity_check,
    solve_parisi_pde,
    theta,
)
from .parisi.interpolation import kappa_zeta_profile
from .points import norm_n_sq, overlap, sphere_point
from .runner import point_algorithm
from .ultrametric import (
    DatedRootedTree,
    branching_depth,
    branching_depth_vertices,
    embed_orthogonal,
    validate_embedding,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _random_shape_ladders(gen):
    """A random tree shape of depth 1..3 with 1..3 children per level, and
    random ladders of that depth."""
    depth = int(gen.integers(1, 4))
    ks = tuple(int(gen.integers(1, 4)) for _ in range(depth))
    ps = np.sort(gen.uniform(0.0, 1.0, depth - 1))
    pladder = CorrelationLadder((0.0, *ps, 1.0))
    qs = np.sort(gen.uniform(0.0, 0.95, depth))
    while len(set(qs)) < depth:
        qs = np.sort(gen.uniform(0.0, 0.95, depth))
    qladder = OverlapLadder((*qs, 1.0))
    return TreeShape(ks), pladder, qladder


def criterion_1_correlation_structure() -> CriterionResult:
    """Leaf weight-vector Gram matrix equals (p_{lca}) to 1e-12, 50 shapes."""
    gen = rng.stream(1, "acc-corr")
    worst = 0.0
    for _ in range(50):
        shape, pladder, _q = _random_shape_ladders(gen)
        nodes = shape.nodes()
        idx = {nd: i for i, nd in enumerate(nodes)}
        leaves = shape.leaves()
        w = np.zeros((len(leaves), len(nodes)))
        for i, u in enumerate(leaves):
            for nd, wt in leaf_weights(shape, pladder, u).items():
                w[i, idx[nd]] = wt
        gram = w @ w.T
        target = np.array(
            [[pladder.ps[lca_depth(u, v)] for v in leaves] for u in leaves]
        )
        worst = max(worst, float(np.max(np.abs(gram - target))))
    passed = worst <= 1e-12
    return CriterionResult(
        "1 exact correlation structure", passed, f"max Gram deviation {worst:.2e}"
    )


def criterion_2_covariance_law() -> CriterionResult:
    """Empirical E[H(s1) H(s2)] within 5 SE of N xi(R) at N=16, p in {2, 4},
    over 10 000 disorder samples."""
    n = 16
    samples = 10_000
    m = Mixture({2: 1.0, 4: 1.0})
    gen = rng.stream(2, "acc-cov")
    pairs = []
    for _ in range(5):
        s1 = sphere_point(gen.standard_normal(n))
        s2 = sphere_point(gen.standard_normal(n))
        pairs.append((s1, s2))
    # rows 2j and 2j + 1 of f2 and f4 are the features of pair j's points
    pts = [s for pair in pairs for s in pair]
    f2 = np.stack([np.outer(s, s).ravel() for s in pts])
    f4 = np.stack([np.einsum("i,j,k,l->ijkl", s, s, s, s).ravel() for s in pts])
    c2, c4 = n ** (-0.5), n ** (-1.5)
    block = 32  # samples per task: a 16 MiB block of p = 4 tensors
    buffers = threading.local()  # each pool worker's g2, g4

    def block_products(s0):
        """Samples s0, s0 + 1, ... of the block, filled and projected onto the
        feature rows on one pool worker.  The projection is einsum's own loop,
        not BLAS: a BLAS call would wake OpenBLAS threads that spin beside
        the other worker's fill."""
        if not hasattr(buffers, "g4"):
            buffers.g2, buffers.g4 = np.empty((block, n**2)), np.empty((block, n**4))
        g2, g4 = buffers.g2, buffers.g4
        rows = min(block, samples - s0)
        for r in range(rows):
            for p, g in ((2, g2), (4, g4)):  # one job per call: it fills inline
                sample_tensors([(s0 + r, p, n)], out=[g[r]])
        e = c2 * np.einsum("rk,jk->rj", g2[:rows], f2) + c4 * np.einsum("rk,jk->rj", g4[:rows], f4)
        return e[:, 0::2] * e[:, 1::2]

    prods = np.concatenate(pool_map(block_products, range(0, samples, block)))
    # spot-check the fast path against the Hamiltonian evaluator
    h0 = sample_hamiltonian(m, n, 0)
    s1, s2 = pairs[0]
    direct = energy(h0, s1) * energy(h0, s2)
    if abs(direct - prods[0, 0]) > 1e-8 * max(1.0, abs(direct)):
        return CriterionResult(
            "2 covariance law", False, "fast path disagrees with energy()"
        )
    worst_z = 0.0
    for j, (s1, s2) in enumerate(pairs):
        want = n * xi_eval(m, overlap(s1, s2), 0)
        se = prods[:, j].std(ddof=1) / math.sqrt(samples)
        worst_z = max(worst_z, abs(prods[:, j].mean() - want) / se)
    passed = worst_z <= 5.0
    return CriterionResult(
        "2 covariance law", passed, f"worst |z| = {worst_z:.2f} (<= 5)"
    )


def criterion_3_closed_form_thresholds() -> CriterionResult:
    checks = []
    v4, tag4, _ = alg_sp(pure(4))
    checks.append(("alg_sp(p4) = sqrt(3)", abs(v4 - math.sqrt(3.0)) <= 1e-9))
    vrs, tagrs, _ = alg_sp(pure(4, h=3.0))
    checks.append(
        ("alg_sp RS = sqrt(h^2 + xi'(1))", tagrs == "replica-symmetric" and abs(vrs - math.sqrt(13.0)) <= 1e-9)
    )
    o2 = opt_sp_numeric(pure(2))
    checks.append(("opt_sp(x^2) = sqrt(2) +- 1e-3", abs(o2 - math.sqrt(2.0)) <= 1e-3))
    gen = rng.stream(3, "acc-thresholds")
    ok = True
    for _ in range(20):
        gammas = {2: float(gen.uniform(0, 1.2)), 4: float(gen.uniform(0, 1.2))}
        if gen.random() < 0.5:
            gammas[6] = float(gen.uniform(0, 0.8))
        h = float(gen.uniform(0, 1.5)) if gen.random() < 0.5 else 0.0
        mm = Mixture(gammas, h=h)
        ok = ok and alg_sp(mm)[0] <= opt_sp_numeric(mm) + 1e-3
    checks.append(("alg_sp <= opt_sp + 1e-3 on 20 mixtures", ok))
    passed = all(flag for _n, flag in checks)
    detail = "; ".join(f"{nm}: {'ok' if f else 'FAIL'}" for nm, f in checks)
    return CriterionResult("3 closed-form thresholds", passed, detail)


def _folded_mean(mu, s):
    return s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * (
        1 - 2 * 0.5 * math.erfc(mu / (s * math.sqrt(2)))
    )


def criterion_4_pde_identities() -> CriterionResult:
    m2 = pure(2)
    z0 = PiecewiseZeta.zero()
    checks = []
    grid = (6.0, 0.002)
    # sharp slices over wide increments need more than the minimum node count
    kw = {"grid": grid, "gh_nodes": 128}
    # folded-normal closed form, zeta = 0 (exact terminal path)
    worst = 0.0
    for hval in (0.0, 0.5, 1.3):
        sol = solve_parisi_pde(m2, z0, grid=grid, center=hval)
        worst = max(worst, abs(sol.eval(0.0, hval) - _folded_mean(hval, math.sqrt(2.0))))
    checks.append(("folded normal <= 1e-5", worst <= 1e-5))
    # shift identity
    gen = rng.stream(4, "acc-shift")
    worst = shift_identity_check(m2, z0, 1.0, 0.7, **kw)
    for _ in range(4):
        nb = int(gen.integers(2, 5))
        breaks = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb - 1))])
        z = PiecewiseZeta(tuple(breaks), tuple(gen.uniform(0.0, 2.0, nb)))
        worst = max(
            worst,
            shift_identity_check(m2, z, float(gen.uniform(-1, 1)), float(gen.uniform(-1, 1)), **kw),
        )
    checks.append(("shift identity residual <= 1e-4", worst <= 1e-4))
    # Lipschitz in zeta, 10 random pairs
    lip_ok = True
    for _ in range(10):
        nb1, nb2 = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        b1 = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb1 - 1))])
        b2 = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb2 - 1))])
        za = PiecewiseZeta(tuple(b1), tuple(gen.uniform(0.0, 2.0, nb1)))
        zb = PiecewiseZeta(tuple(b2), tuple(gen.uniform(0.0, 2.0, nb2)))
        lhs = abs(
            solve_parisi_pde(m2, za, **kw).eval(0.0, 0.0)
            - solve_parisi_pde(m2, zb, **kw).eval(0.0, 0.0)
        )
        merged = sorted(set(za.breaks) | set(zb.breaks))
        bound = sum(
            abs(za(a) - zb(a)) * (xi_eval(m2, b, 1) - xi_eval(m2, a, 1))
            for a, b in zip(merged, merged[1:] + [1.0])
        )
        lip_ok = lip_ok and lhs <= bound + 5e-4
    checks.append(("Lipschitz in zeta", lip_ok))
    # beta gap, 10 random instances cycling beta in {4, 8, 16, 32}
    gap_ok = True
    for i in range(10):
        beta = (4.0, 8.0, 16.0, 32.0)[i % 4]
        nb = int(gen.integers(1, 4))
        breaks = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb - 1))])
        z = PiecewiseZeta(tuple(breaks), tuple(gen.uniform(0.0, 1.5, nb)))
        gb = solve_parisi_pde(m2, z, beta=beta, **kw).eval(0.0, 0.0)
        gi = solve_parisi_pde(m2, z, **kw).eval(0.0, 0.0)
        gap_ok = gap_ok and abs(gb - gi) <= math.log(2.0) / beta + 1e-5
    checks.append(("beta gap <= log2/beta", gap_ok))
    passed = all(f for _n, f in checks)
    detail = "; ".join(f"{nm}: {'ok' if f else 'FAIL'}" for nm, f in checks)
    return CriterionResult("4 Parisi PDE identities", passed, detail)


def criterion_5_alg_is_sk() -> CriterionResult:
    """ALG for xi = x^2/2 converges under knot refinement to 0.763 +- 0.01,
    and the 16-knot profile is a first-order point of the discretized
    functional (max projected gradient <= 1e-5)."""
    msk = Mixture({2: math.sqrt(0.5)})
    lv8, lv16 = alg_is_levels(msk, knots=16)
    v8, v16 = lv8.value, lv16.value
    target = 0.763
    passed = abs(v16 - target) <= 0.01 and v16 <= v8 + 1e-9 and lv16.proj_grad <= 1e-5
    return CriterionResult(
        "5 ALG-Ising SK value",
        passed,
        f"knots 8 -> {v8:.5f}, knots 16 -> {v16:.5f} (target {target} +- 0.01, nonincreasing);"
        f" projected gradient {lv8.proj_grad:.2e} / {lv16.proj_grad:.2e} (<= 1e-5 at 16)",
    )


def criterion_6_kappa_m_consistency() -> CriterionResult:
    gen = rng.stream(6, "acc-kappa")
    worst = 0.0
    loewner_ok = True
    for _ in range(100):
        shape, pladder, qladder = _random_shape_ladders(gen)
        q = float(gen.uniform(qladder.qs[0], 1.0 - 1e-9))
        d = next(dd for dd in range(1, qladder.depth + 1) if q < qladder.qs[dd])
        mat = m_matrix(shape, pladder, d)
        kap = kappa_level(shape, pladder, d)
        worst = max(worst, abs(kap - mat.sum() / shape.n_leaves))
        if shape.n_leaves <= 16:
            loewner_ok = loewner_ok and float(np.linalg.eigvalsh(mat).max()) <= kap + 1e-10
    passed = worst <= 1e-12 and loewner_ok
    return CriterionResult(
        "6 kappa/M consistency",
        passed,
        f"max |kappa - Sum(M)/K| = {worst:.2e}; Loewner M <= kappa I: {loewner_ok}",
    )


def criterion_7_cascade_and_recursion() -> CriterionResult:
    m = Mixture({2: 0.7, 4: 0.6})
    shape = TreeShape((2, 2))
    pladder = CorrelationLadder((0.0, 0.4, 1.0))
    qladder = OverlapLadder((0.1, 0.5, 1.0))
    levels = (0.3, 0.7)
    z = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, *levels))
    closed = cascade_value(shape, pladder, qladder, z, m)
    mc, se = _cascade_mc(shape, pladder, qladder, levels, m, n=10**6, seed=7)
    cascade_ok = abs(mc - closed) <= 3 * se

    gen = rng.stream(7, "acc-glm")
    a = gen.standard_normal((3, 3))
    lam = a @ a.T + 3 * np.eye(3)
    b = gen.standard_normal((3, 3))
    sig = b @ b.T / 3 + 0.2 * np.eye(3)
    zeta, vv, yy = 0.8, gen.standard_normal(3) * 0.3, gen.standard_normal(3)
    closed_g = gaussian_quadratic_logmoment(lam, sig, zeta, vv, yy)
    nmc = 10**6
    eta = gen.standard_normal((nmc, 3)) @ np.linalg.cholesky(sig).T
    linv = np.linalg.inv(lam)
    expo = 0.5 * zeta * (np.einsum("ij,jk,ik->i", yy + eta, linv, yy + eta) - 2 * (yy + eta) @ vv)
    mx = float(expo.max())
    w = np.exp(expo - mx)
    est = (math.log(w.mean()) + mx) / zeta
    se_g = w.std() / w.mean() / math.sqrt(nmc) / zeta
    glm_ok = abs(est - closed_g) <= 3 * se_g

    tele_ok, pd_ok = True, True
    for trial in range(20):
        g2 = rng.stream(7, "acc-lambda", trial)
        shape_r, pl_r, ql_r = _random_shape_ladders(g2)
        raw = np.sort(g2.uniform(0.02, 0.9, ql_r.depth))
        levels_r = tuple(raw / max(raw[-1] + 0.05, 1.0))
        zl = PiecewiseZeta.on_knots(ql_r.qs[:-1], levels_r)
        mm = Mixture({2: float(g2.uniform(0.2, 1.0)), 4: float(g2.uniform(0.0, 0.8))})
        kz_int = sum(
            kappa_level(shape_r, pl_r, d + 1)
            * levels_r[d]
            * (xi_eval(mm, ql_r.qs[d + 1], 1) - xi_eval(mm, ql_r.qs[d], 1))
            for d in range(ql_r.depth)
        )
        big_b = kz_int + float(g2.uniform(0.5, 2.0))
        try:
            res = lambda_recursion(big_b, zl, shape_r, pl_r, ql_r, mm, a=float(g2.uniform(-1, 1)), lam=float(g2.uniform(0, 1)))
        except Exception as exc:  # PD loss or bound failure would land here
            pd_ok = False
            continue
        seq = res.sequence
        ones = np.ones(shape_r.n_leaves)
        tele = sum(
            float(ones @ (np.linalg.inv(seq.matrices[d]) - np.linalg.inv(seq.matrices[d + 1])) @ ones)
            for d in range(seq.depth)
        )
        want = float(ones @ np.linalg.inv(seq.matrices[0]) @ ones) - shape_r.n_leaves / big_b
        tele_ok = tele_ok and abs(tele - want) <= 1e-10
        for d in range(seq.depth + 1):
            floor = b_profile(
                big_b,
                kappa_zeta_profile(shape_r, pl_r, ql_r, levels_r),
                mm,
                ql_r.qs[d],
            )
            pd_ok = pd_ok and float(np.linalg.eigvalsh(seq.matrices[d]).min()) >= floor - 1e-8
    passed = cascade_ok and glm_ok and tele_ok and pd_ok
    detail = (
        f"cascade z={abs(mc - closed) / se:.2f}; gaussian z={abs(est - closed_g) / se_g:.2f}; "
        f"telescoping {tele_ok}; Loewner floor {pd_ok}"
    )
    return CriterionResult("7 cascade and Gaussian recursion", passed, detail)


def _cascade_mc(shape, pladder, qladder, levels, m, n, seed):
    total, var = 0.0, 0.0
    gen = rng.stream(seed, "cascade-mc")
    K = shape.n_leaves
    for d in range(shape.depth):
        mat = m_matrix(shape, pladder, d + 1)
        dtheta = theta(m, qladder.qs[0], qladder.qs[d + 1]) - theta(m, qladder.qs[0], qladder.qs[d])
        vals, vecs = np.linalg.eigh(mat)
        root = vecs * np.sqrt(np.clip(vals, 0, None)) @ vecs.T
        y = (gen.standard_normal((n, K)) @ root.T).sum(axis=1) * math.sqrt(max(dtheta, 0.0))
        zlev = levels[d]
        ymax = float(y.max())
        w = np.exp(zlev * (y - ymax))
        total += (math.log(w.mean()) + zlev * ymax) / zlev
        var += (w.std() / w.mean() / math.sqrt(n) / zlev) ** 2
    return total, math.sqrt(var)


def criterion_8_increasify() -> CriterionResult:
    gen = rng.stream(8, "acc-increasify")
    ok = True
    detail = []
    for trial in range(20):
        nb = int(gen.integers(1, 5))
        breaks = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.9, nb - 1))])
        if trial % 3 == 0:  # strictly decreasing targets
            values = np.sort(gen.uniform(0.2, 3.0, nb))[::-1]
        else:
            values = gen.uniform(0.2, 3.0, nb)
        target = PiecewiseZeta(tuple(breaks), tuple(values))
        q0 = float(gen.uniform(0.0, 0.3))
        beta = 10.0 * float(values.max())
        try:
            increasify_sp(target, 0.15, q0, lambda p: p, beta=beta)
            increasify_is(target, beta=beta, delta=0.25, q0=q0, chi=lambda p: p)
        except Exception as exc:
            ok = False
            detail.append(f"trial {trial}: {exc}")
    return CriterionResult(
        "8 increasify reconstructions",
        ok,
        "all 20 targets reconstructed with strictly increasing levels" if ok else "; ".join(detail),
    )


def criterion_9_subag() -> CriterionResult:
    h2 = sample_hamiltonian(pure(2), 64, seed=2)
    traj2 = subag_ascent(h2, 0.05, "top_eig", seed=0)
    sched_err = max(
        abs(ns - (i + 1) * 0.05) for i, ns in enumerate(traj2.norms_sq())
    )
    g_mat = h2.tensors[2]
    bench = float(np.linalg.eigvalsh((g_mat + g_mat.T) / 2).max()) / math.sqrt(64)
    ratio = traj2.final_energy / 64 / bench
    vals = []
    for s in range(5):
        h4 = sample_hamiltonian(pure(4), 64, seed=1000 + s)
        vals.append(subag_ascent(h4, 0.05, "top_eig", seed=s).final_energy / 64)
    mean4 = float(np.mean(vals))
    passed = sched_err <= 1e-10 and abs(ratio - 1.0) <= 0.15 and mean4 >= 1.50
    return CriterionResult(
        "9 Subag ascent",
        passed,
        f"schedule err {sched_err:.1e}; p2 ratio {ratio:.3f}; p4 mean {mean4:.4f} (>= 1.50)",
    )


def criterion_10_amp_state_evolution() -> CriterionResult:
    m2 = pure(2)
    spec = AmpSpec(fs=[lambda x0: x0], lipschitz=[1.0], horizon=1)
    q, _xs = state_evolution(spec, m2)
    vals = []
    for s in range(20):
        h = sample_hamiltonian(m2, 128, seed=100 + s)
        tr = amp(h, spec, seed=s)
        vals.append(norm_n_sq(tr.iterates[1]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    tol = 5 / math.sqrt(128) + 3 * se
    dev = abs(vals.mean() - q[0, 0])
    passed = bool(dev <= tol and abs(q[0, 0] - xi_eval(m2, 1.0, 1)) <= 1e-12)
    return CriterionResult(
        "10 AMP state evolution",
        passed,
        f"|x1|^2 mean {vals.mean():.4f} vs Q11 {q[0, 0]:.4f}, dev {dev:.4f} <= {tol:.4f}",
    )


def criterion_11_concentration_trend() -> CriterionResult:
    m2 = pure(2)
    ga = point_algorithm({"name": "gradient_ascent"})  # 10 steps at lr 0.05 from a 0.5-scaled start
    const = point_algorithm({"name": "constant", "value": 0.6})
    sds = []
    for n in (32, 64, 128):
        rep = overlap_concentration(ga, m2, n, p=0.5, reps=30, lam=0.2, seed=11)
        sds.append(rep.sd)
    const_rep = overlap_concentration(const, m2, 32, p=0.5, reps=30, lam=0.2, seed=12)
    passed = sds[0] > sds[1] > sds[2] and const_rep.sd == 0.0
    return CriterionResult(
        "11 overlap concentration trend",
        passed,
        f"sd by N: {[round(s, 4) for s in sds]} decreasing; constant alg sd {const_rep.sd}",
    )


def criterion_12_chi_properties() -> CriterionResult:
    m2 = pure(2)
    n = 48
    linear_alg = point_algorithm({"name": "coef_linear"})  # 0.8 times the first n disorder entries
    est = estimate_chi(linear_alg, m2, n, (0.0, 0.25, 0.5, 0.75, 1.0), reps=60, seed=13)
    chi1 = est.at(1.0)
    lin_ok = True
    for p, v, s in zip(est.p_grid, est.chi_hat, est.se):
        se1 = est.se[-1]
        lin_ok = lin_ok and abs(v - p * chi1) <= 3 * (s + p * se1) + 1e-12
    rep = check_chi_properties(est)
    dip = ChiEstimate(
        (0.0, 0.5, 1.0), np.array([0.1, 0.02, 0.64]), np.array([0.001, 0.001, 0.001]), 30, "dip", n
    )
    dip_rep = check_chi_properties(dip)
    dip_flagged = any("monotonicity" in f for f in dip_rep.flags)
    passed = lin_ok and rep.ok and dip_flagged
    return CriterionResult(
        "12 correlation function properties",
        passed,
        f"linear slope ok {lin_ok}; no flags {rep.ok}; dip flagged {dip_flagged}",
    )


def criterion_13_ultrametric() -> CriterionResult:
    mismatches = 0
    count = 0
    for nverts in range(2, 8):
        for parent_list in itertools.product(*[range(i) for i in range(1, nverts)]):
            tree = _tree_from_parents(list(parent_list))
            fast = branching_depth(tree)
            slow = _brute_branching(list(parent_list))
            count += 1
            if fast != slow:
                mismatches += 1
    gen = rng.stream(13, "acc-trees")
    embed_ok = True
    for trial in range(50):
        nverts = int(gen.integers(2, 9))
        parent_list = [int(gen.integers(0, i)) for i in range(1, nverts)]
        tree = _tree_from_parents(parent_list)
        emb = embed_orthogonal(tree, nverts + 3, seed=trial)
        ok, _ = validate_embedding(tree, emb, tol=1e-9)
        embed_ok = embed_ok and ok
    path_ok = True
    for parent_list in [(0, 0, 1, 1, 2), (0, 1, 2, 0, 4, 4), (0, 0, 0, 1, 2, 3)]:
        tree = _tree_from_parents(list(parent_list))
        vd = branching_depth_vertices(tree)
        path_ok = path_ok and _is_root_path(tree, vd)
    passed = mismatches == 0 and embed_ok and path_ok
    return CriterionResult(
        "13 ultrametric suite",
        passed,
        f"{count} trees vs brute force ({mismatches} mismatches); 50 embeddings ok {embed_ok}; V_D path {path_ok}",
    )


def _tree_from_parents(parent_list):
    parents = {0: None}
    for i, p in enumerate(parent_list, start=1):
        parents[i] = p

    def depth(v):
        d = 0
        while parents[v] is not None:
            v = parents[v]
            d += 1
        return d

    children = {v: [] for v in parents}
    for v, p in parents.items():
        if p is not None:
            children[p].append(v)
    maxd = max(depth(v) for v in parents) or 1
    heights = {}
    for v in parents:
        if not children[v]:
            heights[v] = 1.0
        elif parents[v] is None:
            heights[v] = 0.0
        else:
            heights[v] = depth(v) / (maxd + 1)
    return DatedRootedTree(parents, heights)


def _brute_branching(parent_list):
    parents = {0: None}
    for i, p in enumerate(parent_list, start=1):
        parents[i] = p
    children = {v: [] for v in parents}
    for v, p in parents.items():
        if p is not None:
            children[p].append(v)
    memo = {}

    def descendant_hit(c, d):
        stack = [c]
        while stack:
            w = stack.pop()
            if rooted(w, d):
                return True
            stack.extend(children[w])
        return False

    def rooted(v, d):
        if d == 0:
            return True
        key = (v, d)
        if key not in memo:
            memo[key] = any(
                descendant_hit(c1, d - 1) and descendant_hit(c2, d - 1)
                for c1, c2 in itertools.combinations(children[v], 2)
            )
        return memo[key]

    best = 0
    for v in parents:
        d = 0
        while rooted(v, d + 1):
            d += 1
        best = max(best, d)
    return best


def _is_root_path(tree, vd):
    if tree.root not in vd:
        return False
    return all(v == tree.root or tree.parents[v] in vd for v in vd)


def criterion_14_extension_rounding() -> CriterionResult:
    m2 = pure(2)
    n = 128
    shape = TreeShape((2, 2))
    pladder = CorrelationLadder((0.0, 1.0, 1.0))
    qladder = OverlapLadder((0.0, 0.45, 1.0))
    ens = sample_ensemble(m2, n, shape, pladder, seed=7)
    gen = rng.stream(14, "acc-extend")
    v1 = gen.standard_normal(n)
    v1 *= math.sqrt(0.4 * n) / np.linalg.norm(v1)
    v2 = gen.standard_normal(n)
    v2 -= (v2 @ v1) / (v1 @ v1) * v1
    v2 *= math.sqrt(0.35 * n) / np.linalg.norm(v2)
    rep = extend_to_sphere(ens, {(1,): v1, (2,): v2}, qladder, eta=0.1, seed=0, mode="sphere")
    q_mat = target_overlap_matrix(shape, qladder)
    leaves = shape.leaves()
    member = constrained_membership(
        [rep.points[u] for u in leaves], q_mat, np.zeros(n), eta=0.1, domain="sphere"
    )

    n2 = 256
    ens2 = sample_ensemble(m2, n2, TreeShape((2,)), CorrelationLadder((0.0, 1.0)), seed=11)
    gi = rng.stream(14, "acc-ising")
    w1 = np.clip(gi.standard_normal(n2) * 0.4, -1.0, 1.0)
    w2 = np.clip(gi.standard_normal(n2) * 0.4, -1.0, 1.0)
    repi = extend_to_sphere(
        ens2, {(1,): w1, (2,): w2}, OverlapLadder((0.0, 1.0)), eta=0.2, seed=5, mode="ising"
    )
    pre = repi.pre_rounding
    r_pre = overlap(pre[(1,)], pre[(2,)])
    draws = np.array(
        [
            overlap(*round_to_corners(pre, rseed).values())
            for rseed in range(50)
        ]
    )
    se = draws.std(ddof=1) / math.sqrt(50)
    z = abs(draws.mean() - r_pre) / se
    passed = bool(member.ok and z <= 3.0)
    return CriterionResult(
        "14 extension and rounding",
        passed,
        f"spherical membership {member.ok}; rounding z = {z:.2f} (<= 3)",
    )


CRITERIA = [
    criterion_1_correlation_structure,
    criterion_2_covariance_law,
    criterion_3_closed_form_thresholds,
    criterion_4_pde_identities,
    criterion_5_alg_is_sk,
    criterion_6_kappa_m_consistency,
    criterion_7_cascade_and_recursion,
    criterion_8_increasify,
    criterion_9_subag,
    criterion_10_amp_state_evolution,
    criterion_11_concentration_trend,
    criterion_12_chi_properties,
    criterion_13_ultrametric,
    criterion_14_extension_rounding,
]


def run_criterion(fn) -> CriterionResult:
    """Run one criterion, set its wall time and print its pass/fail line."""
    t0 = time.perf_counter()
    res = fn()
    res.seconds = time.perf_counter() - t0
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name} ({res.seconds:.1f}s): {res.detail}", flush=True)
    return res


def run_all(names=None) -> list:
    """Run the criteria whose number or label is in `names` (all when empty);
    a name that matches no criterion raises ArgumentError before any runs."""
    labels = {fn: fn.__name__.removeprefix("criterion_") for fn in CRITERIA}
    keys = {fn: (label.split("_")[0], label) for fn, label in labels.items()}
    names = [str(n) for n in names or ()]
    unmatched = [n for n in names if not any(n in key for key in keys.values())]
    if unmatched:
        raise ArgumentError(
            f"unknown criteria {unmatched} (give a number 1..{len(CRITERIA)} or a full label)"
        )
    chosen = [fn for fn in CRITERIA if not names or any(n in keys[fn] for n in names)]
    return [run_criterion(fn) for fn in chosen]
