"""The two routes to the value function, cross-validated.

Route one: explicit monotone finite differences for
du/dt + <A x, Du> + G(D^2 u) = 0 backward from the terminal data.
Route two: the probabilistic representation, a policy supremum of Monte
Carlo means over mild-solution paths.  They must agree at interior probes
within noise plus discretization error.
"""

import math

import numpy as np

from gexpect import CovarianceSet
from gexpect.g_pde import (
    McControlSpec,
    MeshSpec,
    PdeProblem,
    mc_values,
    residual_check,
    solve_gheat,
    solve_gpde,
)

# Pure diffusion, one dimension: the classic convex/concave split.
band = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
for name, f in (("x^2", lambda p: p[..., 0] ** 2),
                ("-x^2", lambda p: -(p[..., 0] ** 2))):
    prob = PdeProblem(1, band, f, T=0.5, domain_box=((-3.0, 3.0),))
    sol = solve_gheat(prob, MeshSpec(nodes=121))
    print(f"diffusion-only, terminal {name:>4}: u(0, 0) = {sol.value_at(0.0, [0.0]):+.4f}"
          f"   (edges of the band: +0.5 / -0.125)")
print()

# Residual of the discrete solution in the strong form, kinks excluded.
prob_abs = PdeProblem(1, band, lambda p: np.abs(p[..., 0]), 0.5, ((-3.0, 3.0),))
sol_abs = solve_gheat(prob_abs, MeshSpec(nodes=121))
print(f"strong-form residual for |x| terminal (kink excluded): "
      f"{residual_check(sol_abs, prob_abs):.4f}\n")

# Full transported equation in two dimensions.
sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])], label="ordered-2d")
a = np.diag([-1.0, -2.0])
f = lambda p: 0.5 * p[..., 0] ** 2 + 0.3 * p[..., 1] ** 2
prob = PdeProblem(2, sigma, f, T=0.5, domain_box=((-2.4, 2.4), (-2.4, 2.4)), a_gen=a)
sol = solve_gpde(prob, MeshSpec(nodes=49))
h = sol.axes[0][1] - sol.axes[0][0]
print(f"2-d solve: grid spacing h={h:.3f}, dt={sol.dt:.4f}, "
      f"cfl ratio {sol.cfl_ratio:.2f}")

spec = McControlSpec(steps=64, n_paths=20_000, seed=6)
print(f"{'probe':>14} {'pde':>8} {'mc':>8} {'gap':>8} {'tol':>8}")
probes = ([0.0, 0.0], [0.5, -0.5], [-0.4, 0.3])
# one simulation per constant policy serves every probe
for probe, mc in zip(probes, mc_values(prob, probes, 0.0, spec)):
    pde = sol.value_at(0.0, probe)
    tol = 3.0 * mc.stderr + 10.0 * (h**2 + sol.dt)
    print(f"{str(probe):>14} {pde:8.4f} {mc.value:8.4f} "
          f"{abs(pde - mc.value):8.4f} {tol:8.4f}")

# Scalar mean-reverting case against the closed form.
lam, T, x0 = 0.8, 0.5, 0.5
prob1 = PdeProblem(1, band, lambda p: p[..., 0] ** 2, T, ((-3.0, 3.0),),
                   a_gen=np.array([[-lam]]))
sol1 = solve_gpde(prob1, MeshSpec(nodes=241))
want = math.exp(-2 * lam * T) * x0**2 + (1 - math.exp(-2 * lam * T)) / (2 * lam)
print(f"\nscalar mean-reverting value at x0={x0}: "
      f"pde {sol1.value_at(0.0, [x0]):.4f} vs closed form {want:.4f}")
