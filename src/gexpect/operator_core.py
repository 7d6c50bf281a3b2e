"""Dense symmetric-operator kernel shared by every other module.

The ambient separable Hilbert space is truncated to R^N with the standard
basis, so operators are plain dense symmetric matrices and vectors are 1-d
arrays; there are no operator classes.  Symmetric and PSD validation and
square roots each have one batched private routine: ``covariance_set``
reaches them for every set, and the few other modules that take a matrix
call them where it enters.  Hull membership and the PDE stencils share the
private nonnegative least squares ``nnls``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "SYMMETRY_TOL",
    "PSD_EIGEN_TOL",
    "as_coords",
]

# Asymmetry accepted at construction; storage is exactly symmetric afterwards.
SYMMETRY_TOL = 1e-12
# Eigenvalues in [-PSD_EIGEN_TOL * max(1, r), 0), r the matrix's spectral
# radius, are treated as floating-point drift and clamped to zero; anything
# below is rejected.
PSD_EIGEN_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _square(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@functools.lru_cache
def _upper(n: int) -> np.ndarray:
    """Read-only N x N mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def _mirror(stack: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of a (k, N, N) stack: each upper triangle mirrored
    (``+= 0.0`` stores every zero as ``+0.0``)."""
    exact = np.where(_upper(stack.shape[-1]), stack, stack.swapaxes(1, 2))
    exact += 0.0
    return exact


def _symmetric(stack: np.ndarray) -> np.ndarray:
    """``_mirror`` of a (k, N, N) stack, which must be finite and symmetric
    within ``SYMMETRY_TOL``.  The asymmetry is read off the copy, whose lower
    triangle differs from the stack's by it."""
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    exact = _mirror(stack)
    skew = np.abs(stack - exact)
    if skew.max() > SYMMETRY_TOL:
        per = skew.max(axis=(1, 2))
        worst = per[np.flatnonzero(per > SYMMETRY_TOL)[0]]
        raise ValueError(f"matrix is not symmetric (max asymmetry {worst:.3e})")
    return exact


def _psd_stack(mats) -> tuple[np.ndarray, np.ndarray]:
    """Validate k >= 1 matrices of one dimension as PSD operators in one pass.

    ``mats`` is a (k, N, N) array, taken as it is (converted to float only if
    it is not), or an iterable of square matrix-likes, which goes through one
    ``np.asarray``.  Returns a new exactly symmetric (k, N, N) stack with drift
    clamped and the ascending eigenvalues of each stored matrix as a (k, N)
    array.
    """
    if not isinstance(mats, np.ndarray):
        mats = [_square(m) for m in mats]
        if len({m.shape for m in mats}) > 1:
            raise ValueError("all extremes must share one dimension")
    stack = np.asarray(mats, dtype=float)
    if not len(stack):
        raise ValueError("a covariance set needs at least one extreme point")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
    stack = _symmetric(stack)
    eigenvalues = np.linalg.eigvalsh(stack)
    floor = eigenvalues[:, 0]
    if floor.min() < 0.0:
        bound = PSD_EIGEN_TOL * np.maximum(1.0, np.abs(eigenvalues).max(axis=1))
        bad = np.flatnonzero(floor < -bound)
        if bad.size:
            raise ValueError(
                f"operator is not PSD: smallest eigenvalue {floor[bad[0]]:.3e} below "
                f"-{bound[bad[0]]:.3g} (PSD_EIGEN_TOL x max(1, spectral radius))"
            )
        drift = np.flatnonzero(floor < 0.0)
        stack[drift] = _psd_power(stack[drift], 1.0)
        eigenvalues[drift] = np.linalg.eigvalsh(stack[drift])
    return stack, eigenvalues


def _psd_power(stack: np.ndarray, power: float) -> np.ndarray:
    """Symmetric Q^power of each matrix in a (k, N, N) stack, eigenvalues clipped
    at zero: power 1 clamps drift, power 0.5 gives the square roots.

    The recomposed product's upper triangle is mirrored without a symmetry
    check: the stack was checked already, and the product's rounding
    asymmetry grows with its norm, so an absolute tolerance would reject an
    exactly symmetric input of large norm."""
    vals, vecs = np.linalg.eigh(stack)
    vals = np.maximum(vals, 0.0) ** power
    return _mirror((vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2))


def as_coords(h) -> np.ndarray:
    """Coerce an array-like to a 1-d float ndarray."""
    return np.asarray(h, dtype=float).reshape(-1)


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _upper_solve(cols, rhs) -> list:
    """z with sum_k z_k cols[k] = rhs, for the columns of an upper triangle."""
    z = [0.0] * len(cols)
    for i in range(len(z) - 1, -1, -1):
        z[i] = (rhs[i] - sum(cols[k][i] * z[k] for k in range(i + 1, len(z)))) / cols[i][i]
    return z


def _fit(cols, b):
    """Least-squares weights of the list ``b`` on the lists ``cols`` and the
    residual, by Gram-Schmidt run twice over [cols | b]; None if a column is
    within rounding of the span of the ones before it."""
    qs, rs = [], []
    for col in cols + [b]:
        v, r = col, [0.0] * len(qs)
        for _ in range(2):
            for i, q in enumerate(qs):
                c = _dot(q, v)
                r[i] += c
                v = [s - c * t for s, t in zip(v, q)]
        if len(rs) == len(cols):
            return _upper_solve(rs, r), v
        norm = math.sqrt(_dot(v, v))
        if not norm > 100.0 * _EPS * math.sqrt(_dot(col, col)):
            return None
        qs.append([s / norm for s in v])
        rs.append(r + [norm])


def nnls(a, b) -> tuple[np.ndarray, float]:
    """x >= 0 minimising |a x - b|, and that norm, by Lawson and Hanson's
    active set (Solving Least Squares Problems, 1974, ch. 23): the column of
    largest gradient a^T (b - a x) enters, the lowest index on ties, unless
    it would get no positive weight, until no gradient is positive or the
    residual is within rounding of 0.  Fits are QRs (``_fit``), exact on
    nearly collinear columns.  A tall ``a`` is first replaced by the R of
    [a | b], which keeps the minimiser and the residual norm; an R of full
    rank with positive least-squares weights gives them at once."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[1]
    if a.shape[0] > n:  # LAPACK's packed QR of [a | b] holds R^T in its lower triangle
        rows = np.linalg.qr(np.column_stack([a, b]), mode="raw")[0][:, :n + 1].tolist()
        cols, b = [row[:j + 1] + [0.0] * (n - j) for j, row in enumerate(rows[:n])], rows[n]
        if all(abs(c[i]) > 100.0 * _EPS * math.sqrt(_dot(c, c)) for i, c in enumerate(cols)):
            z = _upper_solve(cols, b)
            if min(z) > 0.0:
                return np.array(z), abs(b[n])
    else:
        cols, b = a.T.tolist(), b.tolist()
    at, x, passive, fit = np.array(cols), [0.0] * n, [], (None, b)
    tol = 100.0 * _EPS * math.sqrt(_dot(b, b))
    for _ in range(3 * n):
        rnorm, w = math.sqrt(_dot(fit[1], fit[1])), (at @ fit[1]).tolist()
        for p in passive:
            w[p] = 0.0
        while True:  # the best column that would get a positive weight enters
            j = max(range(n), key=w.__getitem__)
            if rnorm <= tol or not w[j] > 0.0:
                return np.array(x), rnorm
            new = _fit([cols[p] for p in passive + [j]], b)
            if new and new[0][-1] > 0.0:
                break
            w[j] = 0.0
        passive, fit = passive + [j], new
        while min(fit[0], default=1.0) <= 0.0:  # back from x towards the fit to a 0
            alpha, out = min((x[p] / (x[p] - z), p) for p, z in zip(passive, fit[0]) if z <= 0.0)
            for p, z in zip(passive, fit[0]):
                x[p] = 0.0 if p == out else max(x[p] + alpha * (z - x[p]), 0.0)
            passive = [p for p in passive if x[p] > 0.0]
            fit = _fit([cols[p] for p in passive], b)
        for p, z in zip(passive, fit[0]):
            x[p] = z
    raise RuntimeError("nnls did not converge")
