"""Controlled Gaussian path simulation and policy optimization.

A path of the driving process accrues, over each step, an increment
``gamma_k Z_k sqrt(dt)`` where the factor ``gamma_k`` is selected by an
adapted policy from the square roots of the covariance-set extremes.  The
upper expectation of a terminal functional is the supremum of classical
Monte Carlo means over an enumerated policy family (constant and bang-bang
feedback policies, or an explicit list that may hold time tables), evaluated
with common random numbers so that sup comparisons are low-variance and
positive homogeneity is exact.  One private kernel, ``_policy_sup``, takes
that supremum for every Monte Carlo estimator in the package.

``lattice_1d`` provides the exact one-dimensional benchmark: a trinomial
dynamic-programming lattice whose per-node quadrature matches mean and
variance for either edge of the volatility band and converges to the
viscosity solution of the one-dimensional fully nonlinear heat equation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .covariance_set import CovarianceSet
from .g_normal import (
    VolatilityBand, as_point, best_of, evaluate_rows, split_seed, stderr,
)

__all__ = [
    "ControlPolicy",
    "PolicyFamily",
    "PathBundle",
    "UpperEstimate",
    "simulate_gbm",
    "estimate_upper_expectation",
    "lattice_1d",
    "NestedSpec",
    "nested_expectation",
    "build_policies",
]

NESTED_ROWS = 256  # outer rows per payoff block in nested_expectation


@dataclass(frozen=True)
class ControlPolicy:
    """Adapted volatility-selection rule over the square roots of the extremes.

    ``kind`` is one of constant / time_table / feedback.  A feedback rule is
    called once per step with ``(t_k, states_k)`` where ``states_k`` is the
    (n_paths, N) array of positions already fixed at time t_k, and must
    return per-path factor indices; the simulator's call order is what
    enforces adaptedness.
    """

    kind: str
    index: int = 0
    table: tuple[int, ...] = ()
    rule: Callable | None = None
    name: str = ""

    @classmethod
    def constant(cls, index: int) -> "ControlPolicy":
        return cls(kind="constant", index=index, name=f"constant[{index}]")

    @classmethod
    def time_table(cls, table: Sequence[int]) -> "ControlPolicy":
        tab = tuple(int(i) for i in table)
        return cls(kind="time_table", table=tab, name=f"table{list(tab)}")

    @classmethod
    def feedback(cls, rule: Callable, name: str = "feedback") -> "ControlPolicy":
        return cls(kind="feedback", rule=rule, name=name)

    @property
    def reads_state(self) -> bool:
        """False for constant and time-table policies, whose choice is fixed."""
        return self.kind not in ("constant", "time_table")

    def _fixed_index(self, k, n_factors) -> int:
        """Factor index at step k of a policy that does not read the state."""
        index = int(self.index)
        if self.kind == "time_table":
            if k >= len(self.table):
                raise ValueError(
                    f"time-table policy covers {len(self.table)} steps, "
                    f"needed step {k}"
                )
            index = self.table[k]
        _check_index_range(index, index, n_factors)
        return index

    def select_indices(self, k, t, states, n_factors) -> np.ndarray:
        """Factor index per path for step k starting at time t."""
        n_paths = states.shape[0]
        if not self.reads_state:
            return np.full(n_paths, self._fixed_index(k, n_factors), dtype=int)
        if self.kind != "feedback":
            raise ValueError(f"unknown policy kind {self.kind!r}")
        raw = np.asarray(self.rule(t, states))
        idx = np.broadcast_to(raw.astype(int), (n_paths,)).copy()
        _check_index_range(idx.min(), idx.max(), n_factors)
        return idx

    def describe(self) -> str:
        return self.name or self.kind


@dataclass(frozen=True)
class PolicyFamily:
    """Enumeration spec for the policies competing in a supremum.

    One constant policy per factor; a scalar state statistic adds every
    ordered bang-bang pair (use factor i when the statistic is >= 0, factor j
    otherwise).  Time-table policies are passed as explicit policy lists.
    """

    bang_bang_stat: Callable | None = None
    bang_bang_name: str = "stat"

    def build(self, n_factors: int) -> list[ControlPolicy]:
        policies = [ControlPolicy.constant(i) for i in range(n_factors)]
        if self.bang_bang_stat is not None:
            policies += [
                ControlPolicy.feedback(_bang_bang_rule(self.bang_bang_stat, i, j),
                                       f"bang[{self.bang_bang_name}>=0:{i},else:{j}]")
                for i in range(n_factors) for j in range(n_factors) if i != j
            ]
        return policies


def _check_index_range(lowest, highest, n_factors) -> None:
    if lowest < 0 or highest >= n_factors:
        raise ValueError(f"policy produced factor index outside [0, {n_factors})")


def _bang_bang_rule(stat: Callable, i: int, j: int) -> Callable:
    def rule(t, states):
        return np.where(np.asarray(stat(states)) >= 0.0, i, j)

    return rule


class PathBundle:
    """Simulated paths on a uniform grid with their generating metadata.

    ``states`` has shape (n_paths, steps + 1, N) and ``increments`` shape
    (n_paths, steps, N).  ``simulate_gbm`` stores both time-major, as
    (steps + 1, n_paths, N) and (steps, n_paths, N) arrays, and hands them
    out as transposed views, so ``states[:, k, :]`` is one contiguous block.
    """

    __slots__ = ("times", "states", "increments", "seed", "policy", "sigma")

    def __init__(self, times, states, increments, seed, policy, sigma):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing with >= 2 points")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name, value):
        raise AttributeError("PathBundle is immutable")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]


class UpperEstimate(NamedTuple):
    value: float
    policy: ControlPolicy
    stderr: float
    # (name, mean, stderr) of every policy in the family, in family order
    per_policy: tuple[tuple[str, float, float], ...] = ()


def simulate_gbm(
    sigma: CovarianceSet,
    policy: ControlPolicy,
    n_paths: int,
    steps: int,
    T: float,
    seed: int,
    normals: np.ndarray | None = None,
) -> PathBundle:
    """Simulate paths started at zero under an adapted volatility policy.

    Each increment over ``[t_k, t_{k+1}]`` is ``gamma Z_k sqrt(dt)`` with the
    factor chosen by the policy from ``(t_k, states_k)``.  Deterministic for
    a given seed.  ``normals`` injects a pre-drawn (steps, n_paths, N) block
    of standard normals for common-random-number comparisons; it is only
    read.  By default the same block is drawn from the seed straight into
    ``increments``, and each step overwrites its own normals with its
    increment, so no separate normals block is held.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")

    gammas, n_factors, n = sigma.roots, len(sigma), sigma.dim
    dt = T / steps
    sqrt_dt = math.sqrt(dt)
    times = np.linspace(0.0, T, steps + 1)
    increments = np.empty((steps, n_paths, n))
    if normals is None:
        # drawn in place: step k overwrites its own normals with its increment
        # (np.matmul buffers an input that overlaps its output)
        normals = np.random.default_rng(seed).standard_normal(out=increments)
    elif normals.shape != (steps, n_paths, n):
        raise ValueError(
            f"normals must have shape {(steps, n_paths, n)}, got {normals.shape}"
        )

    states = np.empty((steps + 1, n_paths, n))
    states[0] = 0.0
    for k in range(steps):
        z, db = normals[k], increments[k]
        if policy.reads_state:
            idx = policy.select_indices(k, times[k], states[k], n_factors)
            lowest, highest = idx.min(), idx.max()
        else:
            lowest = highest = policy._fixed_index(k, n_factors)
        if lowest == highest:
            np.matmul(z, gammas[lowest].T, out=db)
            db *= sqrt_dt
        else:
            for i in np.unique(idx):
                mask = idx == i
                db[mask] = (z[mask] @ gammas[i].T) * sqrt_dt
        np.add(states[k], db, out=states[k + 1])
    return PathBundle(times, states.transpose(1, 0, 2), increments.transpose(1, 0, 2),
                      seed, policy, sigma)


def build_policies(policies, n_factors: int) -> list[ControlPolicy]:
    """Normalize a PolicyFamily or explicit policy list."""
    if isinstance(policies, PolicyFamily):
        return policies.build(n_factors)
    out = list(policies)
    if not out:
        raise ValueError("policy family is empty")
    return out


def _policy_sup(sigma, family, n_paths, steps, T, seed, payoff, threads=1):
    """Common-random-number supremum of Monte Carlo means over a policy family.

    One (steps, n_paths, N) block of standard normals is drawn from ``seed``
    and every policy of ``family`` is simulated on it.  ``payoff`` reduces a
    bundle to per-path values, shaped (n_paths,) or (rows, n_paths).  Returns
    one UpperEstimate per row: the largest mean by ``best_of`` (the first on
    ties; a NaN mean wins, so an undefined payoff is never hidden), the
    policy attaining it, its standard error and every member's entry.
    """
    policies = build_policies(family, len(sigma))
    normals = np.random.default_rng(seed).standard_normal((steps, n_paths, sigma.dim))

    def one(policy):
        bundle = simulate_gbm(sigma, policy, n_paths, steps, T, seed, normals=normals)
        return [(float(row.mean()), stderr(row)) for row in np.atleast_2d(payoff(bundle))]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, policies))
    else:
        results = [one(p) for p in policies]
    names, estimates = [pol.describe() for pol in policies], []
    for row in zip(*results):
        best = best_of([mean for mean, _ in row])
        per_policy = tuple((name, *entry) for name, entry in zip(names, row))
        estimates.append(UpperEstimate(row[best][0], policies[best], row[best][1],
                                       per_policy))
    return estimates


def estimate_upper_expectation(
    sigma: CovarianceSet,
    f: Callable,
    x0,
    T: float,
    steps: int,
    n_paths: int,
    policy_family,
    seed: int,
    threads: int = 1,
) -> UpperEstimate:
    """Supremum over the enumerated policy family of Monte Carlo means.

    Every policy sees the same underlying normal draws (common random
    numbers), so each member's estimate is dominated by the returned value
    exactly, and scaling the payoff scales the value exactly.  Returns the
    achieving policy, the standard error of its mean and every member's
    mean and standard error.  A member whose mean is NaN wins, so a payoff
    that is undefined along some policy's paths gives NaN, never a finite
    value from the other members.
    """
    x0 = as_point(x0, sigma.dim)
    return _policy_sup(sigma, policy_family, n_paths, steps, T, seed,
                       lambda bundle: evaluate_rows(f, x0 + bundle.terminal),
                       threads)[0]


def lattice_1d(band: VolatilityBand, f: Callable, x0: float, T: float, steps: int) -> float:
    """Backward dynamic programming on a trinomial lattice in one dimension.

    At each node the continuation value is the larger of the two three-point
    quadratures with variances ``band.sigma_down_sq * dt`` and
    ``band.sigma_up_sq * dt`` (moments 0 and variance matched exactly).  The
    value converges first order in 1/steps to the viscosity solution at
    (0, x0) and is monotone in the terminal data.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    up, down = band.sigma_up_sq, band.sigma_down_sq
    if up == 0.0:
        return float(np.asarray(f(np.array([x0])))[0])
    dt = T / steps
    # dx chosen so the top-volatility jump probability is 1/3 (monotone).
    dx = math.sqrt(1.5 * up * dt)
    p_up_vol = up * dt / (2.0 * dx * dx)
    p_dn_vol = down * dt / (2.0 * dx * dx)

    nodes = x0 + dx * np.arange(-steps, steps + 1)
    values = np.asarray(f(nodes), dtype=float)
    if values.shape != nodes.shape:
        raise ValueError("lattice payoff must map node array to value array")
    for _ in range(steps):
        mid = values[1:-1]
        jump = values[2:] + values[:-2]
        cand_hi = p_up_vol * jump + (1.0 - 2.0 * p_up_vol) * mid
        cand_lo = p_dn_vol * jump + (1.0 - 2.0 * p_dn_vol) * mid
        values = np.maximum(cand_hi, cand_lo)
    return float(values[0])


@dataclass(frozen=True)
class NestedSpec:
    """Horizon, discretization and policy family for one nesting level."""

    T: float = 1.0
    steps: int = 8
    n_paths: int = 2000
    family: PolicyFamily = field(default_factory=PolicyFamily)
    seed: int = 0


def nested_expectation(
    sigma: CovarianceSet,
    f2: Callable,
    inner_spec: NestedSpec,
    outer_spec: NestedSpec,
) -> float:
    """Nested evaluation of E[f2(X, Y)] with Y independent from X.

    The inner supremum is taken pointwise in the outer sample (Y independent
    from X; the reverse order would be a different quantity).  ``f2`` must
    broadcast: it is called with x of shape (n_outer, 1, N) and y of shape
    (1, n_inner, N) and must return an (n_outer, n_inner) array.
    """
    inner_samples = [
        simulate_gbm(
            sigma, pol, inner_spec.n_paths, inner_spec.steps, inner_spec.T,
            split_seed(inner_spec.seed, 1),
        ).terminal
        for pol in build_policies(inner_spec.family, len(sigma))
    ]

    def outer_payoff(bundle):
        x = bundle.terminal
        g_vals = np.empty(x.shape[0])
        # Row means do not depend on how the outer rows are blocked, so the
        # payoff is evaluated NESTED_ROWS outer rows at a time.
        for start in range(0, x.shape[0], NESTED_ROWS):
            rows = x[start:start + NESTED_ROWS]
            g_rows = None
            for y in inner_samples:
                vals = np.asarray(f2(rows[:, None, :], y[None, :, :]), dtype=float)
                if vals.shape != (rows.shape[0], y.shape[0]):
                    raise ValueError(
                        "f2 must broadcast (n_outer,1,N) x (1,n_inner,N) -> "
                        "(n_outer, n_inner)"
                    )
                mean_inner = vals.mean(axis=1)
                g_rows = mean_inner if g_rows is None else np.maximum(g_rows, mean_inner)
            g_vals[start:start + NESTED_ROWS] = g_rows
        return g_vals

    return _policy_sup(sigma, outer_spec.family, outer_spec.n_paths, outer_spec.steps,
                       outer_spec.T, split_seed(outer_spec.seed, 0), outer_payoff)[0].value
