"""Covariance-set calculus from the ground up.

Takes symmetric matrices as plain arrays, reads the eigenvalues a set keeps,
evaluates the induced sublinear functional and an integrand norm, walks
through the set algebra (scaling, sums, conjugation), tests hull membership,
and round-trips a set through its JSON form (``json.dumps`` of ``to_dict``,
read back by ``from_json``).
"""

import json

import numpy as np

from gexpect import (
    CovarianceSet,
    covset_conjugate,
    covset_contains,
    covset_scale,
    covset_sum,
    g_eval,
    l2sigma_norm,
)

# Two extreme points with different shapes: an isotropic one and a spiked one.
sigma = CovarianceSet(
    [np.diag([1.0, 1.0]), np.diag([4.0, 0.0])], label="spread-2d"
)
a = np.eye(2)
print(f"G(I) = 1/2 max(Tr Q) = {g_eval(sigma, a):.4f}   (extremes have traces 2 and 4)")

b = np.diag([1.0, -1.0])
print(f"G(diag(1,-1)) = {g_eval(sigma, b):.4f}"
      "   -- the spiked extreme wins on this direction")
print(f"G(-diag(1,-1)) = {g_eval(sigma, -b):.4f}   -- sup is one-sided\n")

# The eigenvalues the set keeps per extreme, and the integrand norm of a test operator.
print("eigenvalues of the spiked extreme:", sigma.eigenvalues[1].tolist())
phi = np.array([[1.0, 0.5]])
print(f"||phi||_(set norm) = {l2sigma_norm(phi, sigma):.4f} for phi = {phi.tolist()}\n")

# Algebra: scaling squares the factor, sums are pairwise, conjugation maps Q.
print("scale by a=2 ->", covset_scale(sigma, 2.0).matrices[0].diagonal().tolist())
tiny = CovarianceSet([np.diag([0.1, 0.1])], label="tiny")
print("sum with tiny ->", [m.diagonal().tolist() for m in covset_sum(sigma, tiny).matrices])
s = np.diag([2.0, 1.0])
print("conjugate by diag(2,1) ->",
      [m.diagonal().tolist() for m in covset_conjugate(sigma, s).matrices], "\n")

# Membership: midpoints of extremes are inside, inflated points are not.
mid = 0.5 * (sigma.matrices[0] + sigma.matrices[1])
print("midpoint of extremes inside hull:", covset_contains(sigma, mid))
print("1.5 x spiked extreme inside hull:", covset_contains(sigma, 1.5 * sigma.matrices[1]))

# The factor of each extreme reproduces it: gamma gamma^T = Q.
gamma = sigma.roots[0]
print("factor check ||gamma gamma^T - Q|| =",
      float(np.linalg.norm(gamma @ gamma.T - sigma.matrices[0])), "\n")

# Serialization is bit-exact at double precision.
back = CovarianceSet.from_json(json.dumps(sigma.to_dict()))
print("JSON round trip exact:",
      all(np.array_equal(a_, b_) for a_, b_ in zip(sigma.matrices, back.matrices)))
