"""The one-dimensional Parisi PDE at zero and finite temperature.

The solver steps backward through the piecewise-constant order parameter via
the Cole-Hopf transformation; the kinked zero-temperature terminal is
integrated in closed form, so flat profiles reproduce folded-normal means to
machine precision.
"""

import math

from spinlab import PiecewiseZeta, parisi_is, pure, solve_parisi_pde

m = pure(2)
z0 = PiecewiseZeta.zero()
grid = (6.0, 0.005)

print("flat order parameter: Phi(0, x) is the folded-normal mean E|x + sqrt(2) Z|")
sol = solve_parisi_pde(m, z0, grid=grid)
for x in (0.0, 0.5, 1.0, 2.0):
    s = math.sqrt(2.0)
    exact = s * math.sqrt(2 / math.pi) * math.exp(-x * x / (2 * s * s)) + x * (
        1 - math.erfc(x / (s * math.sqrt(2)))
    )
    print(f"  Phi(0, {x:3.1f}) = {sol.eval(0.0, x):.8f}   closed form {exact:.8f}")

print("\nfinite-temperature gap |Phi_beta - Phi_inf| at the origin (bound log2/beta):")
for beta in (4.0, 8.0, 16.0, 32.0):
    gb = solve_parisi_pde(m, z0, beta=beta, grid=grid).eval(0.0, 0.0)
    gi = sol.eval(0.0, 0.0)
    print(f"  beta {beta:5.1f}: gap {gb - gi:.6f}  <=  {math.log(2) / beta:.6f}")

print("\na two-step order parameter raises the value (monotonicity in zeta):")
for levels in [(0.0, 0.0), (0.2, 0.5), (0.5, 1.2)]:
    z = PiecewiseZeta((0.0, 0.4), levels)
    val = solve_parisi_pde(m, z, grid=grid).eval(0.0, 0.0)
    print(f"  zeta = {levels}: Phi(0,0) = {val:.6f}")

print("\nIsing functional value at zeta = 0 (xi = x^2, h = 0): "
      f"{parisi_is(z0, m, grid=grid):.6f}  (2/sqrt(pi) = {2 / math.sqrt(math.pi):.6f})")
print("\nthe zero-temperature SK value 0.7632 comes out of the variational minimizer")
print("spinlab.alg_is_numeric(Mixture({2: sqrt(1/2)}), knots=16): projected L-BFGS-B")
print("over zeta >= 0 on the exact gradient of the discretized functional")
