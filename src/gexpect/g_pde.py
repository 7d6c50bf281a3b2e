"""Explicit monotone finite differences for the fully nonlinear equation

    du/dt + <A x, Du> + G(D^2 u) = 0,   u(T, .) = f,

in one to three truncated dimensions, plus the probabilistic side: mild-
solution paths of the associated linear SDE and the Monte Carlo value that
the solver is cross-validated against.

Backward time stepping u(t - dt) = u(t) + dt * (<A x, Du> + G(D^2 u)) with
centered second differences, first-order upwind transport, and a combined
diffusion/advection CFL bound; dt is ``CFL_SAFETY`` times that bound.
Boundary ghosts extend the solution linearly (odd reflection), so the scheme
sees no curvature at the box edge: affine profiles are invariant and
boundary pollution of curved solutions decays into the interior.  The update
is monotone only for diagonal extremes: for Q_ab != 0 the centred cross
difference gives two corner neighbours the weight -|Q_ab| / (4 h_a h_b) < 0
(see ROADMAP.md, item 2).  The transport generator is restricted to diagonal
nonpositive matrices, which keeps the semigroup explicit and the upwind
stencils inside the grid.

Each solve builds one stencil object that owns every buffer the steps use.
A step copies u into the interior of one (n + 2)^d padded buffer, writes the
ghosts in place and takes one forward-difference array per axis; the second,
cross, upwind and centered differences are all read from those.  The raw
second and cross differences are stacked in one (m, nodes) array, with
m = d + the number of correlated axis pairs, and G(D^2 u) is one matrix
product with the rows (Q_aa / 2 h_a^2, Q_ab / 4 h_a h_b) of each extreme Q
followed by a max over the extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .covariance_set import CovarianceSet
from .control_sim import PathBundle, PolicyFamily, _policy_sup, _replay, simulate_gbm
from .g_normal import as_point, evaluate_rows
from .operator_core import as_coords
from .stoch_integral import _convolve, _generator_diag, convolution_path

__all__ = [
    "PdeProblem",
    "MeshSpec",
    "GridSolution",
    "McControlSpec",
    "McValue",
    "solve_gheat",
    "solve_gpde",
    "residual_check",
    "ou_mild_path",
    "flow_property_discrepancy",
    "mc_value",
    "mc_values",
]

# Fraction of the CFL bound used as the time step.
CFL_SAFETY = 0.9


@dataclass(frozen=True)
class PdeProblem:
    """Terminal-value problem on a box, with covariance set ``sigma`` and an
    optional diagonal nonpositive transport generator ``a_gen``."""

    dim: int
    sigma: CovarianceSet
    terminal_f: Callable
    T: float
    domain_box: tuple
    a_gen: object = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.sigma.dim != self.dim:
            raise ValueError("covariance set dimension differs from problem dim")
        if not self.T > 0.0:
            raise ValueError("horizon must be positive")
        box = tuple((float(lo), float(hi)) for lo, hi in self.domain_box)
        if len(box) != self.dim or any(hi <= lo for lo, hi in box):
            raise ValueError("domain_box must give a nonempty interval per axis")
        object.__setattr__(self, "domain_box", box)
        _generator_diag(self.a_gen, self.dim)

    def generator_diag(self) -> np.ndarray:
        return _generator_diag(self.a_gen, self.dim)

    def has_transport(self) -> bool:
        return bool(np.any(self.generator_diag() != 0.0))


@dataclass(frozen=True)
class MeshSpec:
    """Spatial resolution: one node count for every axis or a per-axis tuple."""

    nodes: object = 61

    def nodes_per_axis(self, dim: int) -> tuple[int, ...]:
        if np.isscalar(self.nodes):
            counts = (int(self.nodes),) * dim
        else:
            counts = tuple(int(v) for v in self.nodes)
        if len(counts) != dim or any(c < 3 for c in counts):
            raise ValueError("need at least 3 nodes per axis")
        return counts


class GridSolution:
    """Backward-evolved value function on a space-time grid.

    ``values[k]`` is the slice at time ``times[k]``; index 0 is the initial
    time, the last index the terminal data.
    """

    __slots__ = ("axes", "dt", "values", "cfl_ratio")

    def __init__(self, axes, dt, values, cfl_ratio):
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("solution values must be finite everywhere")
        if cfl_ratio > 1.0:
            raise ValueError(f"unstable configuration: cfl_ratio {cfl_ratio} > 1")
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cfl_ratio", float(cfl_ratio))

    def __setattr__(self, name, value):
        raise AttributeError("GridSolution is immutable")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.dt

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def time_index(self, t: float) -> int:
        k = int(round(t / self.dt))
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > self.dt / 2 + 1e-12:
            raise ValueError(f"time {t} outside the solved range")
        return k

    def value_at(self, t: float, point) -> float:
        """Multilinear interpolation of the slice nearest to t."""
        k = self.time_index(t)
        interp = RegularGridInterpolator(self.axes, self.values[k])
        return float(interp(np.atleast_2d(as_coords(point)))[0])


class McValue(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class McControlSpec:
    """Discretization and policy family for the Monte Carlo value."""

    steps: int = 64
    n_paths: int = 20_000
    family: PolicyFamily = field(default_factory=PolicyFamily)
    seed: int = 0


class _Stencil:
    """The scheme's spatial operator on one grid, evaluated in reused buffers.

    The nodes plus one ghost layer live in a C-ordered ``(n + 2)^d`` buffer,
    read flat: a shift by one node along axis ``a`` is a shift by
    ``strides[a]``, so every difference is one contiguous operation over the
    flat range ``[lo, hi)`` that holds all nodes.  Entries of that range off
    the nodes are finite by-products that no node reads.
    """

    def __init__(self, axes, extremes, gen_diag):
        dim = len(axes)
        counts = tuple(ax.size for ax in axes)
        h = np.array([ax[1] - ax[0] for ax in axes])
        shape = tuple(c + 2 for c in counts)
        strides = [math.prod(shape[a + 1:]) for a in range(dim)]
        size = math.prod(shape)
        lo, hi = sum(strides), size - sum(strides)
        self._shape, self._lo, self._hi = shape, lo, hi
        self.padded = np.zeros(shape)
        flat = self.padded.reshape(-1)
        self._u = self.padded[(slice(1, -1),) * dim]

        # ghost slabs of axis a span the padded earlier axes and the nodes of later ones
        self._ghosts = []
        for a in range(dim):
            def roi(i, j, a=a):
                return self.padded[(slice(None),) * a + (slice(i, j),)
                                   + (slice(1, -1),) * (dim - a - 1)]
            self._ghosts += [(roi(0, 1), roi(1, 2), roi(2, 3)),
                             (roi(-1, None), roi(-2, -1), roi(-3, -2))]

        # forward differences d_a[p] = u[p + s_a] - u[p], valid for p < size - s_a
        self._fd = np.zeros((dim, size))
        self._fd_ops = [(flat[s:], flat[:size - s], self._fd[a, :size - s])
                        for a, s in enumerate(strides)]
        # centered differences c_a[p] = d_a[p] + d_a[p - s_a], one axis at a time
        self._c = np.zeros(size)
        self._centered_ops = [(self._fd[a, s:size - s], self._fd[a, :size - 2 * s],
                               self._c[s:size - s]) for a, s in enumerate(strides)]

        # raw second and cross differences, stacked for one contraction
        pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)
                 if any(q[a, b] != 0.0 for q in extremes)]
        self._entries = np.zeros((dim + len(pairs), size))
        self._seconds = [(self._fd[a, lo:hi], self._fd[a, lo - s:hi - s],
                          self._entries[a, lo:hi]) for a, s in enumerate(strides)]
        # cross (a, b) = c_a one node ahead along b minus c_a one node behind
        self._crosses = {}
        for row, (a, b) in enumerate(pairs, start=dim):
            s = strides[b]
            self._crosses.setdefault(a, []).append(
                (self._c[lo + s:hi + s], self._c[lo - s:hi - s],
                 self._entries[row, lo:hi]))
        self._coef = np.array([
            [q[a, a] / (2.0 * h[a] ** 2) for a in range(dim)]
            + [q[a, b] / (4.0 * h[a] * h[b]) for a, b in pairs]
            for q in extremes
        ])
        self._acc = np.zeros((len(extremes), size))
        self._rhs = np.zeros(size)

        # upwind transport: the generator is nonpositive and the axes ascend, so
        # v > 0 (forward difference) on a leading block of each axis and v <= 0
        # (backward difference) on the rest; each block is one slab product
        self._upwind, self._centered_rates = [], []
        self._t = np.zeros(size)
        fd_box = self._fd.reshape(dim, *shape)
        t_box = self._t.reshape(shape)
        for a in range(dim):
            if gen_diag[a] == 0.0:
                continue
            v = (gen_diag[a] * axes[a]).reshape((-1,) + (1,) * (dim - a - 1))
            n_pos = int(np.count_nonzero(v > 0.0))

            def along(arr, start, stop, a=a):
                return arr[(slice(None),) * a + (slice(start, stop),)]

            # padded index i is node i - 1; the backward difference at node
            # i - 1 is the forward difference stored at index i - 1
            self._upwind.append((
                (along(fd_box[a], 1, 1 + n_pos), v[:n_pos] / h[a],
                 along(t_box, 1, 1 + n_pos)),
                (along(fd_box[a], n_pos, counts[a]), v[n_pos:] / h[a],
                 along(t_box, 1 + n_pos, counts[a] + 1)),
            ))
            self._centered_rates.append((a, v / (2.0 * h[a])))

    def _nodes(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self._shape)[(slice(1, -1),) * len(self._shape)]

    def load(self, u: np.ndarray) -> None:
        """Copy u in, write the ghosts and take the forward differences.

        The ghosts are ``2 edge - next``, axis by axis over the region np.pad
        writes, so ``padded`` equals np.pad's odd reflection bit for bit.
        """
        self._u[...] = u
        for ghost, edge, nxt in self._ghosts:
            np.multiply(edge, 2.0, out=ghost)
            np.subtract(ghost, nxt, out=ghost)
        for ahead, here, out in self._fd_ops:
            np.subtract(ahead, here, out=out)

    def _centered(self, a: int) -> None:
        here, behind, out = self._centered_ops[a]
        np.add(here, behind, out=out)

    def g_of_hessian(self) -> np.ndarray:
        """Flat buffer holding 1/2 max over extremes of Tr[Q D^2 u] on [lo, hi)."""
        lo, hi = self._lo, self._hi
        for ahead, behind, out in self._seconds:
            np.subtract(ahead, behind, out=out)
        for a, ops in self._crosses.items():
            self._centered(a)
            for ahead, behind, out in ops:
                np.subtract(ahead, behind, out=out)
        np.matmul(self._coef, self._entries[:, lo:hi], out=self._acc[:, lo:hi])
        np.max(self._acc[:, lo:hi], axis=0, out=self._rhs[lo:hi])
        return self._rhs

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """<A x, Du> + G(D^2 u) at the nodes, with upwind transport.

        A view of a buffer that the next call overwrites.
        """
        self.load(u)
        rhs = self.g_of_hessian()
        lo, hi = self._lo, self._hi
        for slabs in self._upwind:
            for diff, rate, out in slabs:
                np.multiply(diff, rate, out=out)
            rhs[lo:hi] += self._t[lo:hi]
        return self._nodes(rhs)

    def residual_terms(self, u: np.ndarray):
        """G(D^2 u) plus centered transport, and the largest |raw second
        difference| over the axes, at the nodes."""
        self.load(u)
        terms = self._nodes(self.g_of_hessian()).copy()
        for a, rate in self._centered_rates:
            self._centered(a)
            terms += rate * self._nodes(self._c)
        dim = len(self._seconds)
        jumps = np.max(np.abs(self._entries[:dim]), axis=0)
        return terms, self._nodes(jumps)

    def march(self, values: np.ndarray, dt: float) -> None:
        """Fill values[k - 1] = u + dt * rhs(u), u = values[k], from the end back."""
        for k in range(values.shape[0] - 1, 0, -1):
            np.multiply(self.rhs(values[k]), dt, out=values[k - 1])
            values[k - 1] += values[k]


def _solve(problem: PdeProblem, mesh_spec: MeshSpec) -> GridSolution:
    dim = problem.dim
    counts = mesh_spec.nodes_per_axis(dim)
    axes = [
        np.linspace(lo, hi, c) for (lo, hi), c in zip(problem.domain_box, counts)
    ]
    h = np.array([ax[1] - ax[0] for ax in axes])
    gen_diag = problem.generator_diag()
    adv_rate = 0.0
    for a in range(dim):
        if gen_diag[a] != 0.0:
            adv_rate += float(np.max(np.abs(gen_diag[a] * axes[a]))) / h[a]

    lam = problem.sigma.spectral_radius()
    rate = 2.0 * dim * lam / float(np.min(h)) ** 2 + adv_rate
    dt_max = 1.0 / rate if rate > 0.0 else problem.T
    n_steps = max(1, math.ceil(problem.T / (CFL_SAFETY * dt_max)))
    dt = problem.T / n_steps

    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    terminal = np.asarray(problem.terminal_f(points), dtype=float)
    if terminal.shape != tuple(counts):
        raise ValueError(
            f"terminal data must map (...,{dim}) points to a {tuple(counts)} grid, "
            f"got {terminal.shape}"
        )

    values = np.empty((n_steps + 1, *counts))
    values[n_steps] = terminal
    _Stencil(axes, problem.sigma.matrices, gen_diag).march(values, dt)
    return GridSolution(axes, dt, values, cfl_ratio=dt / dt_max)


def solve_gheat(problem: PdeProblem, mesh_spec: MeshSpec = MeshSpec()) -> GridSolution:
    """Solve the pure-diffusion equation (zero transport generator)."""
    if problem.has_transport():
        raise ValueError("solve_gheat requires a zero transport generator")
    return _solve(problem, mesh_spec)


def solve_gpde(problem: PdeProblem, mesh_spec: MeshSpec = MeshSpec()) -> GridSolution:
    """Solve the full equation with diagonal nonpositive transport.

    A zero generator runs the identical stepping kernel as ``solve_gheat``.
    """
    return _solve(problem, mesh_spec)


def residual_check(solution: GridSolution, problem: PdeProblem) -> float:
    """Strong-form residual |u_t + <A x, Du> + G(D^2 u)| on smooth interior.

    Centered differences in space and time on interior nodes; nodes whose raw
    second difference jumps above ten times the slice median are treated as
    kinks and excluded.  Returns the maximum over sampled interior slices.
    """
    counts = solution.values.shape[1:]
    if any(c < 5 for c in counts):
        raise ValueError("residual check needs >= 3 interior nodes per axis")
    n_steps = solution.n_steps
    sample = range(1, n_steps)
    if n_steps > 41:
        sample = np.unique(np.linspace(1, n_steps - 1, 40).astype(int))

    stencil = _Stencil(solution.axes, problem.sigma.matrices, problem.generator_diag())
    interior = (slice(1, -1),) * problem.dim
    worst = 0.0
    for k in sample:
        terms, jumps = stencil.residual_terms(solution.values[k])
        u_t = (solution.values[k + 1] - solution.values[k - 1]) / (2.0 * solution.dt)
        resid = np.abs(u_t + terms)[interior]
        raw_jump = jumps[interior]
        smooth = raw_jump <= 10.0 * float(np.median(raw_jump))
        if np.any(smooth):
            worst = max(worst, float(resid[smooth].max()))
    return worst


def ou_mild_path(
    a_gen,
    sigma: CovarianceSet,
    policy,
    x0,
    t0: float,
    T: float,
    steps: int,
    n_paths: int,
    seed: int,
) -> PathBundle:
    """Mild-solution paths: semigroup flow of x0 plus the convolution integral.

    The same increments drive the flow decomposition at any intermediate
    time, so the pathwise flow property holds by construction (see
    ``flow_property_discrepancy``).
    """
    if not T > t0:
        raise ValueError(f"need T > t0, got t0={t0}, T={T}")
    diag = _generator_diag(a_gen, sigma.dim)
    raw = simulate_gbm(sigma, policy, n_paths, steps, T - t0, seed)
    conv = convolution_path(np.diag(diag), raw)
    flow = np.exp(np.outer(raw.times, diag)) * as_point(x0, sigma.dim)[None, :]
    states = conv + flow[None, :, :]
    return PathBundle(
        t0 + raw.times, states, raw.increments, seed, policy, sigma
    )


def flow_property_discrepancy(
    bundle: PathBundle, a_gen, split_index: int
) -> float:
    """Max pathwise gap between direct states and the split-restart flow.

    Restarts the mild recursion at ``split_index`` from the stored state and
    replays the retained increments; algebraically identical to the direct
    construction, so only rounding noise survives.
    """
    diag = _generator_diag(a_gen, bundle.dim)
    if not 0 <= split_index < bundle.n_steps:
        raise ValueError("split index must be an interior grid index")
    dt = float(bundle.times[1] - bundle.times[0])
    restart = _convolve(np.exp(dt * diag), _replay(bundle, split_index), 1,
                        bundle.states[:, split_index, :].copy())
    return max(float(np.max(np.abs(x - bundle.states[:, k, :]))) for k, x in restart)


def mc_value(
    problem: PdeProblem, x0, t0: float, control_spec: McControlSpec
) -> McValue:
    """Monte Carlo value sup over policies of mean terminal payoff.

    Policies share the seed (hence the driving noise); the returned standard
    error belongs to the achieving policy.
    """
    return mc_values(problem, [x0], t0, control_spec)[0]


def mc_values(
    problem: PdeProblem, probes, t0: float, control_spec: McControlSpec
) -> list[McValue]:
    """``mc_value`` at each probe, simulating every policy once for all probes.

    The mild terminal state at a probe x0 is the convolution of the driving
    paths, which does not depend on x0, plus the flow term exp((T - t0) A) x0,
    so each policy's convolution is computed once and shifted per probe.  A
    NaN mean wins a probe's supremum (see ``control_sim._policy_sup``).
    """
    if not 0.0 <= t0 < problem.T:
        raise ValueError(f"t0 must lie in [0, T), got {t0}")
    sigma, steps = problem.sigma, control_spec.steps
    x0s = [as_point(x0, sigma.dim) for x0 in probes]
    diag = _generator_diag(problem.a_gen, sigma.dim)
    flow_T = np.exp((problem.T - t0) * diag)
    n_paths, T = control_spec.n_paths, problem.T - t0

    def payoff(walk):
        # every=steps: the fold yields once, the terminal convolution
        [(_, conv_T)] = _convolve(np.exp(T / steps * diag), walk, steps,
                                  np.zeros((n_paths, sigma.dim)))
        rows = [evaluate_rows(problem.terminal_f, conv_T + flow_T * x0) for x0 in x0s]
        return np.reshape(rows, (len(x0s), n_paths))

    return [McValue(est.value, est.stderr) for est in _policy_sup(
        sigma, control_spec.family, n_paths, steps, T, control_spec.seed, payoff)]
