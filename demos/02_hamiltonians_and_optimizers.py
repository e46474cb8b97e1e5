"""Sampling disorder and ascending the energy landscape.

Compares gradient ascent, the Hessian-direction radial walk, and reflected
Langevin dynamics on the same quartic instance, against the asymptotic
threshold value sqrt(3) ~ 1.732 (finite-N runs land below it).
"""

from spinlab import alg_sp, gradient_ascent, langevin, pure, sample_hamiltonian, subag_ascent
from spinlab.points import sphere_point
from spinlab import rng

N = 64
m = pure(4)
h = sample_hamiltonian(m, N, seed=2024)
threshold = alg_sp(m)[0]
print(f"model: pure quartic at N={N}; asymptotic algorithmic value {threshold:.4f}\n")

x0 = sphere_point(rng.stream(0).standard_normal(N)) * 0.3
traj = gradient_ascent(h, x0, steps=150, lr=0.02)
print(f"gradient ascent     : energy/N = {traj.final_energy / N:.4f} after {len(traj.iterates) - 1} steps")

traj = subag_ascent(h, delta=0.05, mode="top_eig", seed=0)
norms = traj.norms_sq()
print(f"hessian radial walk : energy/N = {traj.final_energy / N:.4f}; "
      f"norm schedule exact to {max(abs(ns - (i + 1) * 0.05) for i, ns in enumerate(norms)):.1e}")

traj = subag_ascent(h, delta=0.05, mode="random_subspace", seed=0)
print(f"random subspace walk: energy/N = {traj.final_energy / N:.4f}")

traj = langevin(h, beta=4.0, horizon=1.0, dt=0.01, r=1.1, seed=0)
print(f"reflected langevin  : energy/N = {traj.final_energy / N:.4f}; "
      f"boundary hits {traj.params['boundary_hits']}")

print("\nper-step energies of the radial walk (every 4th):")
for i, e in enumerate(subag_ascent(h, 0.05, seed=1).energies):
    if i % 4 == 0:
        print(f"  step {i:2d}: |x|_N^2 = {(i + 1) * 0.05:.2f},  energy/N = {e / N:+.4f}")
