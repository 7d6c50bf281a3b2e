"""Moments and one-dimensional projections of the centered law.

The even moments of a single Gaussian factor N(0, q) are ``moment_upper`` of
the one-point set {q}, from an exact recursion; the set-level moment is the
supremum over extremes, sandwiched between trace powers.  Every direction h
carries a volatility band [down, up], and the static Monte Carlo evaluator
reproduces the band edge for quadratic payoffs.
"""

import numpy as np

from gexpect import CovarianceSet
from gexpect.g_normal import (
    GNormal,
    moment_bounds_check,
    moment_constant,
    moment_upper,
    project_band,
    sample_gaussian,
    static_upper_report,
)

print("Classical sanity: E X^2, E X^4, E X^6 for a unit 1-d Gaussian:")
print("  ", [moment_upper(GNormal(CovarianceSet([[[1.0]]])), m) for m in (1, 2, 3)])
print("Certified sandwich constants K_m, m = 1..5:",
      [moment_constant(m) for m in range(1, 6)], "\n")

sigma = CovarianceSet(
    [np.array([[1.0, 0.5], [0.5, 1.0]]), np.diag([2.0, 0.25])], label="demo-2d"
)
gn = GNormal(sigma)

print("Moment sandwich lower <= value <= K_m * upper per order:")
for m in (1, 2, 3):
    b = moment_bounds_check(gn, m)
    print(f"  m={m}: lower={b.lower:.3f} value={b.value:.3f} "
          f"upper={b.upper:.3f} ok={b.ok}")
print(f"Second moment equals sup Tr Q exactly: {moment_upper(gn, 1):.12f}\n")

print("Directional bands (up = best-case variance, down = worst case):")
for h in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
          np.array([1.0, 1.0]) / np.sqrt(2.0)):
    band = project_band(gn, h)
    print(f"  h={np.round(h, 3).tolist()}: "
          f"[{band.sigma_down_sq:.4f}, {band.sigma_up_sq:.4f}]")

# Per-measure sampling: the empirical covariance of one factor converges.
draws = sample_gaussian(sigma.matrices[0], 100_000, seed=7)
emp = draws.T @ draws / draws.shape[0]
print("\nempirical covariance of extreme 0 (100k draws):")
print(np.round(emp, 3))

# The static evaluator maxes Monte Carlo means over the extremes using one
# shared block of normals, so its algebra is exact, not just approximate.
h = np.array([1.0, 0.0])
est = static_upper_report(gn, lambda x: (x @ h) ** 2, n=100_000, seed=11)
band = project_band(gn, h)
print(f"\nstatic evaluator of <X,h>^2: {est.value:.4f} +- {est.stderr:.4f}"
      f"  vs band edge {band.sigma_up_sq:.4f}")
