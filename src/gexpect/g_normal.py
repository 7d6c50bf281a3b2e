"""Centered distributions driven by a covariance set.

Exact even-moment recursion for a single Gaussian factor, moment bounds for
the whole set, one-dimensional projection bands, per-measure sampling and the
static (supremum over extremes) upper-expectation evaluator.

The static evaluator is exact whenever the supremum over adapted volatility
controls is attained by a constant control (convex or concave payoffs in the
1-d projection); the general case lives in ``control_sim`` and dominates it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .covariance_set import CovarianceSet
from .operator_core import _psd_power, _psd_stack, as_coords

__all__ = [
    "GNormal",
    "VolatilityBand",
    "MomentBounds",
    "StaticEstimate",
    "split_seed",
    "gaussian_even_moment",
    "moment_constant",
    "moment_upper",
    "moment_bounds_check",
    "project_band",
    "sample_gaussian",
    "static_upper_expectation",
    "static_upper_report",
]

_MASK64 = (1 << 64) - 1
# Moment-bound constants are certified only this far; see README.
MOMENT_CONSTANT_MAX_ORDER = 5
MOMENT_CONSTANT_MAX_DIM = 8
MOMENT_SLACK = 1e-12  # relative rounding slack of each moment-sandwich inequality

# values per block of a Monte Carlo fold (512 KB of float64, about an L2
# cache): ``control_sim._policy_sup`` walks max(1, FOLD_ELEMENTS // N) paths
# at a time, so no estimator's arrays grow with n_paths.  The block size is
# part of the stream: a run of at most one block draws what one walk from its
# seed draws.  A ``GNormal`` keeps the samples of its last draw up to this size.
FOLD_ELEMENTS = 2**16


def split_seed(seed: int, index: int) -> int:
    """Derive an independent sub-seed from (seed, index).

    SplitMix64 finalizer over the pair; this is the documented rule for
    deriving the seed of each trial, policy or probe from one run seed.
    """
    z = ((int(seed) & _MASK64) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class GNormal:
    """Centered law with covariance set ``sigma``; the law of B_t is
    ``GNormal(covset_scale(sigma, sqrt(t)))``.

    The static evaluator reuses the law's last draw: see ``_samples``.
    """

    sigma: CovarianceSet
    # ((n, seed), samples) of the last draw kept by ``_samples``, swapped
    # whole, so that no key is read with another draw's samples
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.sigma.dim


@dataclass(frozen=True)
class VolatilityBand:
    """Directional variance band [sigma_down_sq, sigma_up_sq]."""

    sigma_up_sq: float
    sigma_down_sq: float

    def __post_init__(self):
        if not (self.sigma_up_sq >= self.sigma_down_sq >= 0.0):
            raise ValueError(
                f"band must satisfy up >= down >= 0, got "
                f"({self.sigma_up_sq}, {self.sigma_down_sq})"
            )


class MomentBounds(NamedTuple):
    lower: float
    value: float
    upper: float
    ok: bool


class StaticEstimate(NamedTuple):
    value: float
    stderr: float
    extreme_index: int


def _power_sums(eigenvalues, m: int) -> np.ndarray:
    """Row j - 1 is ``np.sum(w**j, axis=-1)``, j = 1..m, for the eigenvalues w
    clipped at zero: Tr[Q^j] for each Q whose eigenvalues are a row."""
    w = np.maximum(eigenvalues, 0.0)
    return np.array([(w**j).sum(axis=-1) for j in range(1, m + 1)])


def _moment(power_sums, m: int):
    """E ||X||^(2m) under N(0, Q) from ``power_sums[j - 1]`` = Tr[Q^j], j <= m,
    per entry when each is a row over a stack of Q's.

    Uses the exact recursion for the derivatives of
    F(eps) = det(1 - eps q)^(-1/2) at zero:

        F_r = (r-1)!/2 * sum_{j<r} F_j / j! * Tr[q^(r-j)],   F_0 = 1,

    and E ||X||^(2m) = 2^m * F_m.  m = 0 is rejected to keep the contract
    sharp.
    """
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    f = [1.0]
    for r in range(1, m + 1):
        acc = sum(f[j] / math.factorial(j) * power_sums[r - j - 1] for j in range(r))
        f.append(math.factorial(r - 1) / 2.0 * acc)
    return 2.0**m * f[m]


def gaussian_even_moment(q, m: int) -> float:
    """E ||X||^(2m) under N(0, q), q PSD; the recursion is ``_moment``."""
    return float(_moment(_power_sums(CovarianceSet([q]).eigenvalues[0], m), m))


@functools.lru_cache
def moment_constant(m: int) -> float:
    """Certified constant K_m for the moment sandwich, from the recursion.

    Equals the 2m-th absolute moment of a standard 1-d Gaussian (the rank-one
    worst case), i.e. the double factorial (2m-1)!!.  Certified for
    m <= MOMENT_CONSTANT_MAX_ORDER and dim <= MOMENT_CONSTANT_MAX_DIM.
    """
    return float(_moment(_power_sums(np.ones(1), m), m))


def moment_upper(gn: GNormal, m: int) -> float:
    """sup over extremes of E_Q ||X||^(2m); exact, no sampling.

    For m = 1 this is exactly sup Tr Q.
    """
    return float(_moment(_power_sums(gn.sigma.eigenvalues, m), m).max())


def moment_bounds_check(gn: GNormal, m: int) -> MomentBounds:
    """Sandwich sup Tr[Q^m] <= E||X||^(2m) <= K_m (sup Tr Q)^m.

    ``value`` is ``moment_upper(gn, m)``; it and ``lower`` read one array of
    power sums.  ``ok`` asserts lower <= value and value <= K_m * upper with
    the certified K_m of ``moment_constant``.  An order above
    ``MOMENT_CONSTANT_MAX_ORDER`` or a dimension above
    ``MOMENT_CONSTANT_MAX_DIM`` is not certified and raises ValueError.
    """
    if m > MOMENT_CONSTANT_MAX_ORDER or gn.dim > MOMENT_CONSTANT_MAX_DIM:
        raise ValueError(
            f"moment constants are certified up to order {MOMENT_CONSTANT_MAX_ORDER} "
            f"and dimension {MOMENT_CONSTANT_MAX_DIM}, got order {m} in dimension {gn.dim}")
    sums = _power_sums(gn.sigma.eigenvalues, m)
    # the recursion on each extreme's floats: on a few extremes the array
    # operations cost more than their arithmetic, and the values are the same
    value = float(max(_moment(col, m) for col in sums.T.tolist()))
    lower = float(sums[m - 1].max())
    upper = float(gn.sigma.max_trace() ** m)
    tol = 1.0 + MOMENT_SLACK
    ok = (lower <= value * tol) and (value <= moment_constant(m) * upper * tol)
    return MomentBounds(lower, value, upper, bool(ok))


def project_band(gn: GNormal, h) -> VolatilityBand:
    """Variance band of the 1-d projection <X, h>.

    Upper edge is the max over extremes of <Q h, h>, lower edge the
    minimum; the band ordering is guaranteed by construction.
    """
    hc = as_coords(h)
    if hc.size != gn.dim:
        raise ValueError(f"dimension mismatch in project_band: {hc.size} != {gn.dim}")
    quad = np.einsum("qij,i,j->q", gn.sigma.matrices, hc, hc)
    return VolatilityBand(
        sigma_up_sq=float(quad.max()),
        sigma_down_sq=float(max(quad.min(), 0.0)),
    )


def sample_gaussian(q, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of sqrt(q) @ Z, returned as an (n, N) array.

    Deterministic for a given seed; the empirical covariance converges to q.
    """
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    root = _psd_power(_psd_stack([q])[0], 0.5)[0]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, root.shape[0]))
    return z @ np.ascontiguousarray(root.T)


# Monte Carlo helpers shared by every estimator in the package.


def as_point(x0, dim: int) -> np.ndarray:
    """Start point in R^dim; a scalar is repeated in every coordinate."""
    return np.full(dim, float(x0)) if np.isscalar(x0) else as_coords(x0)


def evaluate_rows(f: Callable, x: np.ndarray) -> np.ndarray:
    """Payoff values ``f(x)`` of the n rows of x, checked to have shape (n,)."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != (x.shape[0],):
        raise ValueError(
            f"payoff must map (n, N) points to (n,) values, "
            f"got shape {vals.shape} for n={x.shape[0]}"
        )
    return vals


MC_Z = 3.0  # standard errors that one Monte Carlo comparison allows


def stderr(vals: np.ndarray) -> float:
    """Standard error of the mean of ``vals``; 0 for a single sample."""
    return float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0


def best_of(means) -> int:
    """Index of the largest mean, the first on ties; a NaN mean wins, never hidden."""
    return max(range(len(means)), key=lambda i: (math.isnan(means[i]), means[i]))


def static_upper_report(gn: GNormal, f: Callable, n: int, seed: int) -> StaticEstimate:
    """Static evaluator with the standard error of the achieving extreme.

    Common random numbers: one block of standard normals is pushed through
    every extreme's square root, which makes positive homogeneity,
    monotonicity and subadditivity of the estimate exact, not just within
    Monte Carlo noise.  The extreme is chosen by ``best_of``.
    """
    value, vals, best = _static_best(gn, f, n, seed)
    return StaticEstimate(value, stderr(vals), best)


def _samples(gn: GNormal, n: int, seed) -> list[np.ndarray]:
    """One block of n standard normals from ``seed`` pushed through every
    extreme's root: one (n, N) array per extreme.

    The law keeps the samples of its last draw when the seed is an integer
    and they hold at most ``FOLD_ELEMENTS`` values (k * n * N), so repeated
    calls with one ``(n, seed)``, as a battery on common random numbers makes
    them, draw once; they are the same bits a fresh draw gives.  A call with
    another ``(n, seed)`` draws afresh, and its samples replace the kept ones
    or, when they are not kept, drop them.  Kept samples are read-only.
    """
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    key = (n, int(seed)) if isinstance(seed, numbers.Integral) else None
    last = gn._last
    if key is not None and last is not None and last[0] == key:
        return last[1]
    object.__setattr__(gn, "_last", None)
    z = np.random.default_rng(seed).standard_normal((n, gn.dim))
    # a C-contiguous root^T keeps the product in BLAS
    xs = [z @ np.ascontiguousarray(root.T) for root in gn.sigma.roots]
    if key is not None and len(xs) * z.size <= FOLD_ELEMENTS:
        for x in xs:
            x.flags.writeable = False
        object.__setattr__(gn, "_last", (key, xs))
    return xs


def _static_best(gn: GNormal, f: Callable, n: int, seed: int):
    """The largest mean over the extremes, the payoff values behind it and
    its extreme's index.  ``f`` gets a writeable array of its own."""
    vals = [evaluate_rows(f, x if x.flags.writeable else x.copy())
            for x in _samples(gn, n, seed)]
    means = [float(v.mean()) for v in vals]
    best = best_of(means)
    return means[best], vals[best], best


def static_upper_expectation(gn: GNormal, f: Callable, n: int, seed: int) -> float:
    """max over extremes Q of the Monte Carlo average of f under N(0, Q).

    A lower bound for the dynamic (adapted-control) value; coincides with it
    when a constant control attains the supremum.  ``f`` must be vectorized
    over rows: it receives an (n, N) array of draws and returns (n,) values.
    The value of ``static_upper_report``, without its standard error.
    """
    return _static_best(gn, f, n, seed)[0]

