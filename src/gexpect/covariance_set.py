"""Covariance-set calculus.

A covariance set is stored by finitely many extreme points (symmetric PSD
trace-class operators), validated once and held as read-only arrays: the
(k, N, N) matrices, their eigenvalues and their square roots.  The convex
hull is implicit.  Since the supremum of any linear functional over a convex
hull is attained at an extreme point, evaluation of the induced sublinear
functional (``g_eval(sigma, a)``), of integrand norms and of all
covariance-set algebra is exact for this class.
"""

from __future__ import annotations

import json

import numpy as np

from .operator_core import _mirror, _psd_power, _psd_stack, nnls

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

# Random symmetric test directions of the support-function certificate that
# ``covset_contains`` draws for a point it finds inside the hull.
CERTIFICATE_DIRECTIONS = 32


def _count(value):
    """A JSON integer: not a bool, no fractional part, at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"must be at least 1, got {value!r}")
    return int(value)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON number {token}")


class CovarianceSet:
    """Finite-extreme-point representation of a covariance set.

    Parameters
    ----------
    extremes : (k, N, N) array, or iterable of matrix-likes
        PSD extreme points of one dimension, validated (symmetric within
        ``SYMMETRY_TOL``, PSD drift clamped) in one stacked pass
        (``_psd_stack``); deduplicated under Frobenius distance
        ``DEDUP_TOL`` (first one kept).
    label : str
        Free-form identifier carried through the algebra.

    Held as read-only arrays: ``matrices``, ``eigenvalues`` and ``roots``,
    the last computed on first use.
    """

    __slots__ = ("matrices", "eigenvalues", "label", "_roots")

    def __init__(self, extremes, label: str = ""):
        stack, eigenvalues = _psd_stack(extremes)
        flat = stack.reshape(len(stack), -1)
        rows = max(1, 2**20 // flat.size)  # at most 2**20 differences in a block of rows
        dropped = set()
        for lo in range(1, len(flat), rows):
            diff = flat[lo : lo + rows, None] - flat[: lo + rows - 1]
            for i, j in zip(*(np.sqrt((diff * diff).sum(axis=2)) <= DEDUP_TOL).nonzero()):
                if j < lo + i and j not in dropped:  # near an earlier kept extreme
                    dropped.add(lo + i)
        if dropped:
            kept = [i for i in range(len(flat)) if i not in dropped]
            stack, eigenvalues = stack[kept], eigenvalues[kept]
        for name, arr in (("matrices", stack), ("eigenvalues", eigenvalues)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "_roots", None)

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceSet is immutable")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def roots(self) -> np.ndarray:
        """Symmetric square roots of the extremes as a read-only (k, N, N) array.

        Computed on first use; each root ``g`` reproduces its extreme ``Q`` to
        ``||g @ g.T - Q||_F <= 1e-9``.
        """
        if self._roots is None:
            roots = _psd_power(self.matrices, 0.5)
            errors = roots @ np.swapaxes(roots, 1, 2) - self.matrices
            if np.linalg.norm(errors, axis=(1, 2)).max() > 1e-9:
                raise ValueError("square root does not reproduce its extreme")
            roots.flags.writeable = False
            object.__setattr__(self, "_roots", roots)
        return self._roots

    def max_trace(self) -> float:
        return float(self.matrices.trace(axis1=1, axis2=2).max())

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "extremes": [m.reshape(-1).tolist() for m in self.matrices],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CovarianceSet":
        n = _count(doc["dim"])
        unknown = sorted(set(doc) - {"dim", "extremes", "label"})
        if unknown:
            raise ValueError(f"unknown key {unknown}; known: dim, extremes, label")
        mats = [np.asarray(row, dtype=float).reshape(n, n) for row in doc["extremes"]]
        return cls(mats, label=doc.get("label", ""))

    @classmethod
    def from_json(cls, text: str) -> "CovarianceSet":
        return cls.from_dict(json.loads(text, parse_constant=_reject_constant))

    def __repr__(self) -> str:
        return f"CovarianceSet(dim={self.dim}, extremes={len(self)}, label={self.label!r})"


def g_eval(sigma: CovarianceSet, a) -> float:
    """Evaluate the sublinear functional G(a) = 1/2 max over extremes of Tr[a Q].

    G is fully determined by the covariance set; it is monotone, subadditive
    and positively homogeneous by construction (tested, not enforced).
    """
    m = np.asarray(a, dtype=float)
    if m.shape != sigma.matrices.shape[1:]:
        raise ValueError(
            f"dimension mismatch in g_eval: {m.shape} != {sigma.matrices.shape[1:]}"
        )
    traces = np.einsum("ij,qji->q", m, sigma.matrices)
    return 0.5 * float(traces.max())


def l2sigma_norm(phi, sigma: CovarianceSet) -> float:
    """Integrand norm sqrt(sup over extremes of Tr[phi Q phi^T]).

    ``phi`` may be rectangular (m x N); its column dimension must match the
    set.  Equals the largest Frobenius norm of phi @ sqrt(Q).
    """
    m = np.asarray(phi, dtype=float)
    if m.ndim != 2 or m.shape[1] != sigma.dim:
        raise ValueError(
            f"operator with {m.shape} columns does not act on dim {sigma.dim}"
        )
    vals = np.einsum("ij,qjk,ik->q", m, sigma.matrices, m)
    return float(np.sqrt(max(float(vals.max()), 0.0)))


def covset_scale(sigma: CovarianceSet, a: float) -> CovarianceSet:
    """Covariance set of a scaled variable: every extreme multiplied by a**2."""
    s = float(a) ** 2
    return CovarianceSet(sigma.matrices * s, label=f"scale({sigma.label},{a:g})")


def covset_sum(s1: CovarianceSet, s2: CovarianceSet) -> CovarianceSet:
    """Covariance set of a sum of independent variables: pairwise extreme sums."""
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch in covset_sum: {s1.dim} != {s2.dim}")
    sums = (s1.matrices[:, None] + s2.matrices[None]).reshape(-1, s1.dim, s1.dim)
    return CovarianceSet(sums, label=f"sum({s1.label},{s2.label})")


def covset_conjugate(sigma: CovarianceSet, s) -> CovarianceSet:
    """Covariance set of a linearly mapped variable: extremes Q -> s Q s^T.

    One batched product over the stack, whose upper triangle is mirrored:
    ``s Q s^T`` rounds asymmetrically by an amount that grows with the
    norm of ``s``, so a map of any norm conjugates without a symmetry error.
    """
    m = np.asarray(s, dtype=float)
    if m.ndim != 2 or m.shape[1] != sigma.dim:
        raise ValueError(
            f"operator with {m.shape} columns does not act on dim {sigma.dim}"
        )
    mapped = _mirror(m @ sigma.matrices @ m.T)
    return CovarianceSet(mapped, label=f"conj({sigma.label})")


def covset_contains(sigma: CovarianceSet, b, seed: int = 0) -> bool:
    """Exact membership of a PSD operator in the convex hull of the extremes.

    Exact path: nonnegative least squares over simplex weights (the convex
    combination must reproduce ``b`` with residual ~ 0).  Certificate path:
    when the exact path says "inside", the support inequality
    1/2 Tr[A b] <= G(A) + 1e-9 must hold on ``CERTIFICATE_DIRECTIONS`` random
    symmetric test directions A; a contradiction signals broken numerics and
    raises.
    Outside the hull no certificate can fail, so none is drawn.

    Returns the exact-path verdict.
    """
    entries = _psd_stack([b])[0][0]
    if len(entries) != sigma.dim:
        raise ValueError(
            f"dimension mismatch in covset_contains: {len(entries)} != {sigma.dim}"
        )
    k, nn, point = len(sigma), entries.size, entries.reshape(-1)
    flat = sigma.matrices.reshape(k, nn)
    a_mat, target = np.empty((nn + 1, k)), np.empty(nn + 1)
    a_mat[:nn], target[:nn] = flat.T, point
    a_mat[nn] = target[nn] = max(1.0, float(np.abs(flat).max()))
    _, residual = nnls(a_mat, target)
    inside = residual <= 1e-9 * (1.0 + float(np.linalg.norm(target)))
    if inside:
        n = sigma.dim
        raw = np.random.default_rng(seed).standard_normal((CERTIFICATE_DIRECTIONS, n, n))
        # symmetric directions and extremes: Tr[A Q] is the flat dot product
        a_dir = ((raw + raw.swapaxes(1, 2)) / 2.0).reshape(CERTIFICATE_DIRECTIONS, nn)
        support = 0.5 * (a_dir @ flat.T).max(axis=1)
        value = 0.5 * (a_dir @ point)
        if (value > support + 1e-9).any():
            raise RuntimeError(
                "support-function certificate contradicts membership verdict"
            )
    return bool(inside)
