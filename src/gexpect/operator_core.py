"""Dense symmetric-operator kernel shared by every other module.

The ambient separable Hilbert space is truncated to R^N with the standard
basis, so operators are plain dense symmetric matrices and vectors are 1-d
arrays.  Everything here is immutable after construction.  Symmetric and PSD
validation and square roots each have one batched private routine, which
the operator classes and ``covariance_set`` share.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SYMMETRY_TOL",
    "PSD_EIGEN_TOL",
    "SymOperator",
    "PsdOperator",
    "as_matrix",
    "as_coords",
    "schatten_norm",
    "psd_sqrt",
    "outer",
    "trace_product",
]

# Asymmetry accepted at construction; storage is exactly symmetric afterwards.
SYMMETRY_TOL = 1e-12
# Eigenvalues in [-PSD_EIGEN_TOL, 0) are treated as floating-point drift and
# clamped to zero; anything below is rejected.
PSD_EIGEN_TOL = 1e-10


def _square(entries) -> np.ndarray:
    m = as_matrix(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@functools.lru_cache
def _upper(n: int) -> np.ndarray:
    """Read-only N x N mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def _symmetric(stack: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of a (k, N, N) stack: each upper triangle mirrored
    (``+ 0.0`` stores every zero as ``+0.0``)."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite")
    skew = np.max(np.abs(stack - np.swapaxes(stack, 1, 2)), axis=(1, 2))
    bad = np.flatnonzero(skew > SYMMETRY_TOL)
    if bad.size:
        raise ValueError(f"matrix is not symmetric (max asymmetry {skew[bad[0]]:.3e})")
    return np.where(_upper(stack.shape[-1]), stack, np.swapaxes(stack, 1, 2)) + 0.0


def _psd_stack(mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate k >= 1 matrix-likes of one dimension as PSD operators at once.

    Returns the exactly symmetric (k, N, N) stack with drift clamped, the
    ascending eigenvalues of each stored matrix as a (k, N) array, and each
    matrix's smallest eigenvalue before clamping.
    """
    squares = [_square(m) for m in mats]
    if not squares:
        raise ValueError("a covariance set needs at least one extreme point")
    if any(m.shape != squares[0].shape for m in squares):
        raise ValueError("all extremes must share one dimension")
    stack = _symmetric(np.stack(squares))
    eigenvalues = np.linalg.eigvalsh(stack)
    floor = eigenvalues[:, 0].copy()
    bad = np.flatnonzero(floor < -PSD_EIGEN_TOL)
    if bad.size:
        raise ValueError(
            f"operator is not PSD: smallest eigenvalue {floor[bad[0]]:.3e} "
            f"below -{PSD_EIGEN_TOL:g}"
        )
    drift = np.flatnonzero(floor < 0.0)
    if drift.size:
        stack[drift] = _psd_power(stack[drift], 1.0)
        eigenvalues[drift] = np.linalg.eigvalsh(stack[drift])
    return stack, eigenvalues, floor


def _psd_power(stack: np.ndarray, power: float) -> np.ndarray:
    """Symmetric Q^power of each matrix in a (k, N, N) stack, eigenvalues clipped
    at zero: power 1 clamps drift, power 0.5 gives the square roots."""
    vals, vecs = np.linalg.eigh(stack)
    vals = np.clip(vals, 0.0, None) ** power
    return _symmetric((vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2))


class SymOperator:
    """Real symmetric N x N matrix.

    The constructor accepts anything matrix-like whose asymmetry stays below
    ``SYMMETRY_TOL`` and stores the upper triangle mirrored, so
    ``entries == entries.T`` holds exactly afterwards.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        exact = _symmetric(_square(entries)[None])[0]
        exact.flags.writeable = False
        object.__setattr__(self, "entries", exact)

    def __setattr__(self, name, value):
        raise AttributeError("SymOperator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SymOperator":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymOperator":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def is_diagonal(self, tol: float = 1e-14) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.max(np.abs(off))) <= tol

    def __repr__(self) -> str:
        return f"SymOperator(dim={self.dim})"


class PsdOperator:
    """Symmetric positive-semidefinite operator.

    Validation finds the smallest eigenvalue: values in
    ``[-PSD_EIGEN_TOL, 0)`` are clamped to zero (the matrix is recomposed),
    anything smaller raises.  ``eigen_floor`` records the pre-clamp minimum.
    """

    __slots__ = ("entries", "eigen_floor")

    def __init__(self, base):
        stack, _, floor = _psd_stack([base])
        stack.flags.writeable = False
        object.__setattr__(self, "entries", stack[0])
        object.__setattr__(self, "eigen_floor", float(floor[0]))

    def __setattr__(self, name, value):
        raise AttributeError("PsdOperator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"PsdOperator(dim={self.dim}, eigen_floor={self.eigen_floor:.3e})"


def as_matrix(a) -> np.ndarray:
    """Coerce SymOperator / PsdOperator / array-like to a float ndarray."""
    if isinstance(a, (SymOperator, PsdOperator)):
        return a.entries
    return np.asarray(a, dtype=float)


def as_coords(h) -> np.ndarray:
    """Coerce an array-like to a 1-d float ndarray."""
    return np.asarray(h, dtype=float).reshape(-1)


def _check_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch in {what}: {a} != {b}")


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm of a symmetric operator via its eigenvalues.

    For finite p returns ``(sum |lambda_i|^p)^(1/p)``; ``p = inf`` returns the
    spectral radius.  Rejects p < 1 (not a norm there).
    """
    if p != math.inf and p < 1.0:
        raise ValueError(f"schatten_norm requires p >= 1, got {p}")
    op = a if isinstance(a, (SymOperator, PsdOperator)) else SymOperator(a)
    w = np.abs(np.linalg.eigvalsh(op.entries))
    if p == math.inf:
        return float(w.max())
    if p == 1.0:
        return float(w.sum())
    if p == 2.0:
        return float(np.sqrt(np.sum(w * w)))
    return float(np.sum(w**p) ** (1.0 / p))


def psd_sqrt(q) -> SymOperator:
    """Symmetric square root S of a PSD operator, S @ S == q.

    Input that is not a ``PsdOperator`` is validated (and clamped) like one.
    """
    stack = q.entries[None] if isinstance(q, PsdOperator) else _psd_stack([q])[0]
    return SymOperator(_psd_power(stack, 0.5)[0])


def outer(x, y) -> np.ndarray:
    """Rank-one operator mapping z to <z, y> x, i.e. the matrix x_i * y_j."""
    xc, yc = as_coords(x), as_coords(y)
    _check_same_dim(xc.size, yc.size, "outer")
    return np.outer(xc, yc)


def trace_product(a, b) -> float:
    """Tr[a @ b] = sum_ij a[i, j] * b[j, i]; symmetric in symmetric arguments."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma.shape[0], mb.shape[0], "trace_product")
    return float(np.sum(ma * mb.T))
