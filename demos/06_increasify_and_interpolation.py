"""The kappa machinery: turning decreasing order parameters into increasing
ones against a rapidly branching tree, and the interpolation-bound pieces.

kappa(q) = Sum(M(q))/K is piecewise constant and decreasing; choosing arm
counts from the target's jump ratios makes beta kappa(q) zeta(q) reproduce
any positive step profile exactly at the knots with strictly increasing
levels zeta_d.
"""

import numpy as np

from spinlab import (
    CorrelationLadder,
    OverlapLadder,
    PiecewiseZeta,
    TreeShape,
    cascade_value,
    increasify_sp,
    kappa,
    lambda_recursion,
    m_of_q,
)
from spinlab.mixture import Mixture

m = Mixture({2: 0.7, 4: 0.6})
shape = TreeShape((2, 3))
pl = CorrelationLadder((0.0, 0.4, 1.0))
ql = OverlapLadder((0.1, 0.5, 1.0))

print("kappa(q) = Sum(M(q))/K on a (2, 3) tree with p = (0, 0.4, 1):")
for q in (0.2, 0.4, 0.6, 0.9):
    print(f"  kappa({q}) = {kappa(shape, pl, ql, q):.4f}   "
          f"Sum(M)/K = {m_of_q(shape, pl, ql, q).sum() / shape.n_leaves:.4f}")

print("\nincreasify: a strictly decreasing target becomes increasing levels")
target = PiecewiseZeta((0.0, 0.3, 0.6), (2.0, 1.2, 0.5))
res = increasify_sp(target, delta_frac=0.15, q0=0.05, beta=10.0)
print(f"  arm counts k = {res.shape.ks} (K = {res.shape.n_leaves} leaves)")
print(f"  q-knots: {tuple(round(q, 3) for q in res.qladder.qs)}")
print(f"  levels : {tuple(round(v, 5) for v in res.levels)} (strictly increasing)")
for d, q in enumerate(res.qladder.qs[:-1]):
    print(f"  beta kappa zeta at q={q:.3f}: {res.reconstructed(d):.6f} "
          f"(target {target(max(q, 0.05 + 0.95 * 0.15)):.6f})")

print("\ncascade value (closed form) on the (2, 2) tree:")
shape = TreeShape((2, 2))
pl = CorrelationLadder((0.0, 0.4, 1.0))
z = PiecewiseZeta((0.0, 0.1, 0.5), (0.0, 0.3, 0.7))
print(f"  value = {cascade_value(shape, pl, ql, z, m):.6f}")

print("\nmatrix recursion behind the free-energy bound:")
res = lambda_recursion(2.5, z, shape, pl, ql, m, a=0.3, lam=0.4)
print(f"  exact value {res.value:.6f} <= scalar bound {res.bound:.6f}")
mins = [float(np.linalg.eigvalsh(mat).min()) for mat in res.sequence.matrices]
print(f"  min eigenvalues down the levels: {[round(v, 4) for v in mins]}")
