"""Driving paths under adapted volatility policies.

Each step draws one standard normal block and pushes it through the factor
chosen by the policy.  The upper expectation of a terminal payoff is the
supremum of plain Monte Carlo means over a policy menu, evaluated with
common random numbers; the one-dimensional trinomial lattice supplies the
exact dynamic-programming benchmark.
"""

import math

import numpy as np

from gexpect import CovarianceSet, covset_scale
from gexpect.control_sim import (
    ControlPolicy,
    PolicyFamily,
    estimate_upper_expectation,
    lattice_1d,
    simulate_gbm,
)
from gexpect.g_normal import GNormal, VolatilityBand, project_band, static_upper_report

sigma = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
band = project_band(GNormal(sigma), [1.0])
print(f"volatility band: [{band.sigma_down_sq}, {band.sigma_up_sq}]\n")

# Constant policies give classical Wiener paths for one factor.
bundle = simulate_gbm(sigma, ControlPolicy.constant(0), n_paths=50_000,
                      steps=16, T=1.0, seed=1)
print(f"terminal variance under the top factor: {np.var(bundle.states[:, -1]):.4f}"
      "  (expect ~1.0)")
bundle_low = simulate_gbm(sigma, ControlPolicy.constant(1), 50_000, 16, 1.0, seed=1)
print(f"terminal variance under the low factor: {np.var(bundle_low.states[:, -1]):.4f}"
      "  (expect ~0.25)\n")

# A feedback policy switches factors on the sign of the running state.
flip = ControlPolicy.feedback(
    lambda t, s: np.where(s[:, 0] >= 0.0, 0, 1), name="bang[x>=0]"
)
flipped = simulate_gbm(sigma, flip, 50_000, 16, 1.0, seed=1)
print(f"terminal variance under the bang-bang policy: {np.var(flipped.states[:, -1]):.4f}\n")

# Upper expectation of payoffs: convex picks the top edge, concave the bottom.
family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0], bang_bang_name="x")
x0, T = 0.3, 1.0
for name, f_line in (("x^2", lambda x: x**2), ("-x^2", lambda x: -(x**2)),
                     ("cos", np.cos)):
    est = estimate_upper_expectation(
        sigma, lambda x, f=f_line: f(x[:, 0]), x0, T, 16, 50_000, family, seed=3
    )
    lat = lattice_1d(band, f_line, x0, T, steps=800)
    print(f"payoff {name:>5}: sup-MC {est.value:+.4f} +- {est.stderr:.4f}"
          f"  lattice {lat:+.4f}  achieved by {est.policy.describe()}")

# The static (constant-control) value never exceeds the dynamic one.  The
# law of B_T has the covariance set T * sigma.
static = static_upper_report(GNormal(covset_scale(sigma, math.sqrt(T))),
                             lambda x: np.cos(x0 + x[:, 0]), 50_000, seed=5)
dynamic = estimate_upper_expectation(
    sigma, lambda x: np.cos(x[:, 0]), x0, T, 16, 50_000, family, seed=5
)
print(f"\nstatic evaluator {static.value:.4f} <= dynamic {dynamic.value:.4f}"
      "  (lower bound, as it must be)")
