"""Covariance-set calculus.

A covariance set is stored by finitely many extreme points (symmetric PSD
trace-class operators); the convex hull is implicit.  Since the supremum of
any linear functional over a convex hull is attained at an extreme point,
evaluation of the induced sublinear functional (``g_eval(sigma, a)``), of
integrand norms and of all covariance-set algebra is exact for this class.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import nnls

from .operator_core import PsdOperator, as_matrix, psd_sqrt, trace_product

__all__ = [
    "DEDUP_TOL",
    "CovarianceSet",
    "g_eval",
    "l2sigma_norm",
    "covset_scale",
    "covset_sum",
    "covset_conjugate",
    "covset_contains",
]

# Frobenius distance under which two extremes are considered identical;
# keeps pairwise sums from blowing up.
DEDUP_TOL = 1e-12


class CovarianceSet:
    """Finite-extreme-point representation of a covariance set.

    Parameters
    ----------
    extremes : iterable of PsdOperator or matrix-like
        Extreme points, all of one dimension; deduplicated under Frobenius
        distance ``DEDUP_TOL`` (first occurrence kept).
    label : str
        Free-form identifier carried through the algebra.
    """

    __slots__ = ("extremes", "label", "_stack", "_roots")

    def __init__(self, extremes, label: str = ""):
        ops = [e if isinstance(e, PsdOperator) else PsdOperator(e) for e in extremes]
        if not ops:
            raise ValueError("a covariance set needs at least one extreme point")
        dim = ops[0].dim
        for op in ops:
            if op.dim != dim:
                raise ValueError("all extremes must share one dimension")
        kept: list[PsdOperator] = []
        for op in ops:
            if all(
                np.linalg.norm(op.entries - k.entries) > DEDUP_TOL for k in kept
            ):
                kept.append(op)
        stack = np.stack([op.entries for op in kept])
        stack.flags.writeable = False
        object.__setattr__(self, "extremes", tuple(kept))
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_roots", None)

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceSet is immutable")

    @property
    def dim(self) -> int:
        return self.extremes[0].dim

    def __len__(self) -> int:
        return len(self.extremes)

    @property
    def matrices(self) -> np.ndarray:
        """Extremes stacked as a read-only (k, N, N) array."""
        return self._stack

    @property
    def roots(self) -> np.ndarray:
        """Symmetric square roots of the extremes as a read-only (k, N, N) array.

        Computed on first use; each root ``g`` reproduces its extreme ``Q`` to
        ``||g @ g.T - Q||_F <= 1e-9``.
        """
        if self._roots is None:
            roots = np.stack([psd_sqrt(q).entries for q in self.extremes])
            for g, q in zip(roots, self._stack):
                if np.linalg.norm(g @ g.T - q) > 1e-9:
                    raise ValueError("square root does not reproduce its extreme")
            roots.flags.writeable = False
            object.__setattr__(self, "_roots", roots)
        return self._roots

    def max_trace(self) -> float:
        return float(max(np.trace(m) for m in self._stack))

    def spectral_radius(self) -> float:
        return float(
            max(np.max(np.abs(np.linalg.eigvalsh(m))) for m in self._stack)
        )

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "extremes": [m.reshape(-1).tolist() for m in self._stack],
            "label": self.label,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "CovarianceSet":
        n = int(doc["dim"])
        mats = [np.asarray(row, dtype=float).reshape(n, n) for row in doc["extremes"]]
        return cls(mats, label=doc.get("label", ""))

    @classmethod
    def from_json(cls, text: str) -> "CovarianceSet":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"CovarianceSet(dim={self.dim}, extremes={len(self)}, label={self.label!r})"


def g_eval(sigma: CovarianceSet, a) -> float:
    """Evaluate the sublinear functional G(a) = 1/2 max over extremes of Tr[a Q].

    G is fully determined by the covariance set; it is monotone, subadditive
    and positively homogeneous by construction (tested, not enforced).
    """
    m = as_matrix(a)
    if m.shape[0] != sigma.dim:
        raise ValueError(
            f"dimension mismatch in g_eval: {m.shape[0]} != {sigma.dim}"
        )
    traces = np.einsum("ij,qji->q", m, sigma.matrices)
    return 0.5 * float(traces.max())


def l2sigma_norm(phi, sigma: CovarianceSet) -> float:
    """Integrand norm sqrt(sup over extremes of Tr[phi Q phi^T]).

    ``phi`` may be rectangular (m x N); its column dimension must match the
    set.  Equals the largest Frobenius norm of phi @ sqrt(Q).
    """
    m = as_matrix(phi)
    if m.ndim != 2 or m.shape[1] != sigma.dim:
        raise ValueError(
            f"operator with {m.shape} columns does not act on dim {sigma.dim}"
        )
    vals = np.einsum("ij,qjk,ik->q", m, sigma.matrices, m)
    return float(np.sqrt(max(float(vals.max()), 0.0)))


def covset_scale(sigma: CovarianceSet, a: float) -> CovarianceSet:
    """Covariance set of a scaled variable: every extreme multiplied by a**2."""
    s = float(a) ** 2
    return CovarianceSet(
        [m * s for m in sigma.matrices], label=f"scale({sigma.label},{a:g})"
    )


def covset_sum(s1: CovarianceSet, s2: CovarianceSet) -> CovarianceSet:
    """Covariance set of a sum of independent variables: pairwise extreme sums."""
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch in covset_sum: {s1.dim} != {s2.dim}")
    sums = [q1 + q2 for q1 in s1.matrices for q2 in s2.matrices]
    return CovarianceSet(sums, label=f"sum({s1.label},{s2.label})")


def covset_conjugate(sigma: CovarianceSet, s) -> CovarianceSet:
    """Covariance set of a linearly mapped variable: extremes Q -> s Q s^T."""
    m = as_matrix(s)
    if m.ndim != 2 or m.shape[1] != sigma.dim:
        raise ValueError(
            f"operator with {m.shape} columns does not act on dim {sigma.dim}"
        )
    mapped = [m @ q @ m.T for q in sigma.matrices]
    return CovarianceSet(mapped, label=f"conj({sigma.label})")


def covset_contains(
    sigma: CovarianceSet, b, directions: int = 32, seed: int = 0
) -> bool:
    """Exact membership of a PSD operator in the convex hull of the extremes.

    Exact path: nonnegative least squares over simplex weights (the convex
    combination must reproduce ``b`` with residual ~ 0).  Certificate path:
    on ``directions`` random symmetric test directions A the support
    inequality 1/2 Tr[A b] <= g_eval(A) + 1e-9 must hold whenever the exact
    path says "inside"; a contradiction signals broken numerics and raises.

    Returns the exact-path verdict.
    """
    if directions < 1:
        raise ValueError("directions must be >= 1")
    op = b if isinstance(b, PsdOperator) else PsdOperator(b)
    if op.dim != sigma.dim:
        raise ValueError(
            f"dimension mismatch in covset_contains: {op.dim} != {sigma.dim}"
        )
    n = sigma.dim
    cols = sigma.matrices.reshape(len(sigma), n * n).T
    ones_scale = max(1.0, float(np.abs(cols).max()))
    a_mat = np.vstack([cols, np.full((1, len(sigma)), ones_scale)])
    target = np.concatenate([op.entries.reshape(-1), [ones_scale]])
    _, residual = nnls(a_mat, target)
    inside = residual <= 1e-9 * (1.0 + float(np.linalg.norm(target)))

    rng = np.random.default_rng(seed)
    for _ in range(directions):
        raw = rng.standard_normal((n, n))
        a_dir = (raw + raw.T) / 2.0
        slack = g_eval(sigma, a_dir) + 1e-9 - 0.5 * trace_product(a_dir, op.entries)
        if inside and slack < 0.0:
            raise RuntimeError(
                "support-function certificate contradicts membership verdict"
            )
    return bool(inside)
