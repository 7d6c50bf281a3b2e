"""Dense symmetric-operator kernel shared by every other module.

The ambient separable Hilbert space is truncated to R^N with the standard
basis, so operators are plain dense symmetric matrices and vectors are 1-d
arrays.  Everything here is immutable after construction and safe to share
between concurrent workers.
"""

from __future__ import annotations

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
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


class SymOperator:
    """Real symmetric N x N matrix.

    The constructor accepts anything matrix-like whose asymmetry stays below
    ``SYMMETRY_TOL`` and stores the upper triangle mirrored, so
    ``entries == entries.T`` holds exactly afterwards.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = _square(entries)
        skew = float(np.max(np.abs(m - m.T)))
        if skew > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric (max asymmetry {skew:.3e})")
        exact = np.triu(m) + np.triu(m, 1).T
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

    __slots__ = ("base", "eigen_floor")

    def __init__(self, base):
        op = base if isinstance(base, SymOperator) else SymOperator(base)
        w = np.linalg.eigvalsh(op.entries)
        floor = float(w[0])
        if floor < -PSD_EIGEN_TOL:
            raise ValueError(
                f"operator is not PSD: smallest eigenvalue {floor:.3e} "
                f"below -{PSD_EIGEN_TOL:g}"
            )
        if floor < 0.0:
            vals, vecs = np.linalg.eigh(op.entries)
            vals = np.clip(vals, 0.0, None)
            op = SymOperator((vecs * vals) @ vecs.T)
        object.__setattr__(self, "base", op)
        object.__setattr__(self, "eigen_floor", floor)

    def __setattr__(self, name, value):
        raise AttributeError("PsdOperator is immutable")

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def dim(self) -> int:
        return self.base.dim

    def __repr__(self) -> str:
        return f"PsdOperator(dim={self.dim}, eigen_floor={self.eigen_floor:.3e})"


def as_matrix(a) -> np.ndarray:
    """Coerce SymOperator / PsdOperator / array-like to a float ndarray."""
    if isinstance(a, PsdOperator):
        return a.entries
    if isinstance(a, SymOperator):
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

    Input failing the PSD invariant is rejected by ``PsdOperator``.
    """
    op = q if isinstance(q, PsdOperator) else PsdOperator(q)
    vals, vecs = np.linalg.eigh(op.entries)
    vals = np.sqrt(np.clip(vals, 0.0, None))
    return SymOperator((vecs * vals) @ vecs.T)


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
