"""Controlled Gaussian path simulation and policy optimization.

A path of the driving process accrues, over each step, an increment
``gamma_k Z_k sqrt(dt)`` where the factor ``gamma_k`` is selected by an
adapted policy from the square roots of the covariance-set extremes.  The
upper expectation of a terminal functional is the supremum of classical
Monte Carlo means over an enumerated policy family (constant and bang-bang
feedback policies, or an explicit list that may hold time tables), evaluated
with common random numbers so that sup comparisons are low-variance and
positive homogeneity is exact.  One private kernel, ``_policy_sup``, takes
that supremum for every Monte Carlo estimator over paths; the static
evaluator of ``g_normal`` keeps its one-draw maximum over the extremes, which
has no steps to walk and, at the law battery's size, takes about a third of
the time.

``lattice_1d`` provides the exact one-dimensional benchmark: a trinomial
dynamic-programming lattice whose per-node quadrature matches mean and
variance for either edge of the volatility band and converges to the
viscosity solution of the one-dimensional fully nonlinear heat equation.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .covariance_set import CovarianceSet
from .g_normal import (
    VolatilityBand, as_point, best_of, evaluate_rows, split_seed,
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

# values per block of a Monte Carlo fold (512 KB of float64, about an L2
# cache): ``_policy_sup`` walks max(1, FOLD_ELEMENTS // N) paths at a time, so
# no estimator's arrays grow with n_paths.  The block size is part of the
# stream: a run of at most one block draws what one walk from its seed draws.
FOLD_ELEMENTS = 2**16


@dataclass(frozen=True)
class ControlPolicy:
    """Adapted volatility-selection rule over the square roots of the extremes.

    ``kind`` is one of constant / time_table / feedback.  A feedback rule is
    called once per step with ``(t_k, states_k)`` where ``states_k`` is the
    (n_paths, N) array of positions already fixed at time t_k (a buffer that
    later steps overwrite), and must return per-path factor indices; the
    simulator's call order is what enforces adaptedness.
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

    def select_indices(self, k, t, states):
        """Factor index for step k starting at time t: one int for a constant or
        time-table policy, whose choice is fixed, else one index per path.
        ``_walk`` checks the range."""
        if self.kind == "feedback":
            raw = np.asarray(self.rule(t, states))
            idx = np.broadcast_to(raw.astype(int), (states.shape[0],)).copy()
        elif self.kind == "constant":
            idx = int(self.index)
        elif self.kind != "time_table":
            raise ValueError(f"unknown policy kind {self.kind!r}")
        elif k < len(self.table):
            idx = self.table[k]
        else:
            raise ValueError(
                f"time-table policy covers {len(self.table)} steps, needed step {k}"
            )
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


def _grid(steps, T, n_paths=1) -> np.ndarray:
    """The uniform time grid of a simulation, once its sizes are checked."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    return np.linspace(0.0, T, steps + 1)


def _walk(sigma, policy, n_paths, steps, T, seed, x0=0.0, rates=None, store=None):
    """The package's one path loop: paths from ``x0``, generated a step at a time.

    Yields ``(k, t_k, x_k, dx_k, x_{k+1})`` for each step k, with (n_paths, N)
    states and increment ``dx_k = gamma Z_k sqrt(dt)``, the factor chosen by
    the policy from ``(t_k, x_k)``.  The state steps as ``x_{k+1} = x_k +
    dx_k``, or given the ``rates`` of a diagonal A as the package's one live
    mild recursion ``x_{k+1} = exp(dt A) (x_k + dx_k)``: the convolution
    integral from 0, the mild state from ``x0``, so the policy reads the state
    it acts on.  Step k's normals are drawn from ``default_rng(seed)`` just
    before the step: the same stream as one (steps, n_paths, N) draw, so walks
    from one seed share their normals.  Two state buffers and one increment
    buffer are reused, so a yielded array is valid until the next step, unless
    ``store=(states, increments)`` gives time-major arrays for every step.
    ``_policy_sup`` bounds n_paths by its path blocks.  Sizes are checked at the call.
    """
    times = _grid(steps, T, n_paths)
    # C-contiguous gamma^T: matmul leaves BLAS for a transposed operand
    gammas_t = np.ascontiguousarray(sigma.roots.transpose(0, 2, 1))
    sqrt_dt = math.sqrt(T / steps)
    decay = None if rates is None else np.exp(T / steps * rates)
    # indices wrap, so without a store the buffers are reused
    states, increments = store or (np.zeros((2, n_paths, sigma.dim)),
                                   np.empty((1, n_paths, sigma.dim)))
    states[0] = x0

    def generate():
        rng = np.random.default_rng(seed)
        for k in range(steps):
            x, x_next = states[k % len(states)], states[(k + 1) % len(states)]
            dx = increments[k % len(increments)]
            rng.standard_normal(out=dx)
            idx = policy.select_indices(k, times[k], x)
            lowest, highest = np.min(idx), np.max(idx)
            if lowest < 0 or highest >= len(sigma):
                raise ValueError(f"policy produced factor index outside [0, {len(sigma)})")
            # the normals become the increment in place
            # (np.matmul buffers an input that overlaps its output)
            if lowest == highest:
                np.matmul(dx, gammas_t[lowest], out=dx)
                dx *= sqrt_dt
            else:
                for i in np.unique(idx):
                    mask = idx == i
                    dx[mask] = (dx[mask] @ gammas_t[i]) * sqrt_dt
            np.add(x, dx, out=x_next)
            if decay is not None:
                x_next *= decay
            yield k, times[k], x, dx, x_next

    return generate()


def _replay(paths: PathBundle):
    """A stored bundle as the stream of ``_walk``."""
    return ((k, paths.times[k], paths.states[:, k, :], paths.increments[:, k, :],
             paths.states[:, k + 1, :]) for k in range(paths.n_steps))


def _terminal(walk) -> np.ndarray:
    """The last state of a path stream, (n_paths, N)."""
    return deque(walk, maxlen=1)[0][-1]


def simulate_gbm(
    sigma: CovarianceSet,
    policy: ControlPolicy,
    n_paths: int,
    steps: int,
    T: float,
    seed: int,
) -> PathBundle:
    """Simulate and store paths started at zero under an adapted volatility policy.

    Each increment over ``[t_k, t_{k+1}]`` is ``gamma Z_k sqrt(dt)`` with the
    factor chosen by the policy from ``(t_k, states_k)``.  Deterministic for
    a given seed.  The "store all" consumer of ``_walk``, for callers that
    need whole paths; estimators that fold each path stream ``_walk``.
    """
    return _stored(sigma, policy, n_paths, steps, T, seed)


def _stored(sigma, policy, n_paths, steps, T, seed, x0=0.0, rates=None, t0=0.0):
    """``_walk`` run to the end with every state and increment kept: a
    PathBundle on the grid ``t0 + [0, T]``, holding nothing else."""
    times = _grid(steps, T, n_paths)
    states = np.empty((steps + 1, n_paths, sigma.dim))
    increments = np.empty((steps, n_paths, sigma.dim))
    for _ in _walk(sigma, policy, n_paths, steps, T, seed, x0, rates,
                   store=(states, increments)):
        pass
    return PathBundle(t0 + times, states.transpose(1, 0, 2), increments.transpose(1, 0, 2),
                      seed, policy, sigma)


def build_policies(policies, n_factors: int) -> list[ControlPolicy]:
    """Normalize a PolicyFamily or explicit policy list."""
    if isinstance(policies, PolicyFamily):
        return policies.build(n_factors)
    out = list(policies)
    if not out:
        raise ValueError("policy family is empty")
    return out


def _pool(row, n_a=0, mean_a=0.0, m2_a=0.0):
    """``row`` pooled into the fold (count, mean, sum of squared deviations) of
    earlier rows (Chan, Golub and LeVeque, 1983); with no such rows, the row's
    own fold, bit for bit the sums of ``row.mean()`` and ``stderr(row)``."""
    n_b, mean_b = row.size, row.mean()
    m2_b = np.sum((row - mean_b) ** 2)
    if not n_a:
        return n_b, mean_b, m2_b
    n, delta = n_a + n_b, mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _policy_sup(sigma, family, n_paths, steps, T, seed, payoff):
    """Common-random-number supremum of Monte Carlo means over a policy family.

    ``payoff(policy, walk)`` yields each policy of ``family`` its rows of
    per-path values, folded from the streams ``walk(x0=0.0, rates=None)`` of
    ``_walk``.  Paths are walked in blocks of max(1, FOLD_ELEMENTS // N), block
    0 from ``seed`` and block b >= 1 from ``[seed, b]``, so all policies see the
    same normals and memory grows with neither steps nor paths; ``_pool``
    pools each row over the blocks.  Returns one UpperEstimate per row: the
    largest mean by ``best_of`` (the first on ties; a NaN mean wins, so an
    undefined payoff is never hidden), the policy attaining it, its standard
    error and every member's entry.
    """
    _grid(steps, T, n_paths)
    policies, results = build_policies(family, len(sigma)), []
    block = max(1, FOLD_ELEMENTS // sigma.dim)
    for policy in policies:
        folds = {}
        for b, start in enumerate(range(0, n_paths, block)):
            walk = functools.partial(_walk, sigma, policy, min(block, n_paths - start),
                                     steps, T, [seed, b] if b else seed)
            for r, row in enumerate(payoff(policy, walk)):
                folds[r] = _pool(row, *folds.get(r, ()))
        results.append([(float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1
                         else 0.0) for n, mean, m2 in folds.values()])
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
) -> UpperEstimate:
    """Supremum over the enumerated policy family of Monte Carlo means.

    Every policy walks from ``x0`` on the same normal draws (common random
    numbers), so a feedback rule reads the true state, each member's
    estimate is dominated by the returned value exactly, and scaling the
    payoff scales the value exactly.  Returns the achieving policy, the
    standard error of its mean and every member's mean and standard error.
    A member whose mean is NaN wins, so a payoff that is undefined along
    some policy's paths gives NaN, never a finite value from the other
    members.
    """
    x0 = as_point(x0, sigma.dim)
    return _policy_sup(sigma, policy_family, n_paths, steps, T, seed,
                       lambda _, walk: [evaluate_rows(f, _terminal(walk(x0)))])[0]


def lattice_1d(band: VolatilityBand, f: Callable, x0: float, T: float, steps: int) -> float:
    """Backward dynamic programming on a trinomial lattice in one dimension.

    At each node the continuation value is the larger of the two three-point
    quadratures with variances ``band.sigma_down_sq * dt`` and
    ``band.sigma_up_sq * dt`` (moments 0 and variance matched exactly).  The
    value converges first order in 1/steps to the viscosity solution at
    (0, x0) and is monotone in the terminal data.
    """
    _grid(steps, T)
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
        _terminal(_walk(sigma, pol, inner_spec.n_paths, inner_spec.steps, inner_spec.T,
                        split_seed(inner_spec.seed, 1)))
        for pol in build_policies(inner_spec.family, len(sigma))
    ]

    def outer_payoff(policy, walk):
        x = _terminal(walk())
        g_vals = np.empty(x.shape[0])
        block = max(1, FOLD_ELEMENTS // inner_spec.n_paths)
        for start in range(0, x.shape[0], block):
            rows = x[start:start + block]
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
            g_vals[start:start + block] = g_rows
        return [g_vals]

    return _policy_sup(sigma, outer_spec.family, outer_spec.n_paths, outer_spec.steps,
                       outer_spec.T, split_seed(outer_spec.seed, 0), outer_payoff)[0].value
