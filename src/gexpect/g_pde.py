"""Explicit monotone finite differences for the fully nonlinear equation

    du/dt + <A x, Du> + G(D^2 u) = 0,   u(T, .) = f,

in one to three truncated dimensions, plus the probabilistic side: mild-
solution paths of the associated linear SDE and the Monte Carlo value that
the solver is cross-validated against.

Backward time stepping u(t - dt) = u(t) + dt * (<A x, Du> + G(D^2 u)) with
centered second differences, first-order upwind transport, and a combined
diffusion/advection CFL bound with a safety factor.  Boundary ghosts extend
the solution linearly (odd reflection), so the scheme sees no curvature at
the box edge: affine profiles are invariant, the update stays monotone, and
boundary pollution of curved solutions decays into the interior.  The
transport generator is restricted to diagonal nonpositive matrices, which
keeps the semigroup explicit and the upwind stencils inside the grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .covariance_set import CovarianceSet
from .control_sim import (
    PathBundle,
    PolicyFamily,
    build_policies,
    simulate_gbm,
)
from .operator_core import as_coords
from .stoch_integral import _generator_diag, convolution_path

__all__ = [
    "PdeProblem",
    "MeshSpec",
    "GridSolution",
    "CflError",
    "McControlSpec",
    "McValue",
    "solve_gheat",
    "solve_gpde",
    "residual_check",
    "ou_mild_path",
    "flow_property_discrepancy",
    "mc_value",
    "mc_values",
    "write_slice_csv",
]


class CflError(ValueError):
    """Raised when a pinned time step violates the stability bound."""

    def __init__(self, dt: float, required_dt: float):
        self.required_dt = required_dt
        super().__init__(
            f"time step {dt:g} violates the CFL bound; need dt <= {required_dt:g}"
        )


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
    bc: str = "neumann"

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
    """Spatial resolution and optional pinned time step.

    ``nodes`` is one count for every axis or a per-axis tuple; ``dt`` of None
    picks ``safety`` times the CFL bound.
    """

    nodes: object = 61
    dt: float | None = None
    safety: float = 0.9

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
        if not np.all(np.isfinite(values)):
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


def _shifted(padded: np.ndarray, offsets) -> np.ndarray:
    return padded[
        tuple(
            slice(1 + off, size + 1 + off)
            for off, size in zip(offsets, np.array(padded.shape) - 2)
        )
    ]


def _pad_linear(u: np.ndarray) -> np.ndarray:
    return np.pad(u, 1, mode="reflect", reflect_type="odd")


def _hessian_entries(u: np.ndarray, h: np.ndarray, want_cross: bool):
    """Centered second differences, linear-extrapolation ghosts, all nodes."""
    dim = u.ndim
    padded = _pad_linear(u)
    zero = [0] * dim
    diag = []
    for a in range(dim):
        up, dn = zero.copy(), zero.copy()
        up[a], dn[a] = 1, -1
        diag.append(
            (_shifted(padded, up) - 2.0 * u + _shifted(padded, dn)) / h[a] ** 2
        )
    cross = {}
    if want_cross:
        for a in range(dim):
            for b in range(a + 1, dim):
                pp, mm, pm, mp = (zero.copy() for _ in range(4))
                pp[a], pp[b] = 1, 1
                mm[a], mm[b] = -1, -1
                pm[a], pm[b] = 1, -1
                mp[a], mp[b] = -1, 1
                cross[(a, b)] = (
                    _shifted(padded, pp)
                    + _shifted(padded, mm)
                    - _shifted(padded, pm)
                    - _shifted(padded, mp)
                ) / (4.0 * h[a] * h[b])
    return diag, cross


def _g_of_hessian(diag, cross, extremes: np.ndarray) -> np.ndarray:
    """Pointwise 1/2 sup over extremes of Tr[Q D^2 u]."""
    best = None
    for q in extremes:
        acc = q[0, 0] * diag[0]
        for a in range(1, len(diag)):
            acc = acc + q[a, a] * diag[a]
        for (a, b), val in cross.items():
            if q[a, b] != 0.0:
                acc = acc + 2.0 * q[a, b] * val
        best = acc if best is None else np.maximum(best, acc)
    return 0.5 * best


def _upwind_transport(u, h, velocities) -> np.ndarray:
    """Sum over axes of v_a * D_a u with the difference taken upwind.

    With a nonpositive diagonal generator the flow points inward, so the
    one-sided stencil always lands on interior neighbours; the linear ghosts
    cover the remaining (zero-velocity) boundary nodes harmlessly.
    """
    dim = u.ndim
    padded = _pad_linear(u)
    zero = [0] * dim
    acc = None
    for a, v in enumerate(velocities):
        if v is None:
            continue
        up, dn = zero.copy(), zero.copy()
        up[a], dn[a] = 1, -1
        forward = (_shifted(padded, up) - u) / h[a]
        backward = (u - _shifted(padded, dn)) / h[a]
        term = v * np.where(v > 0.0, forward, backward)
        acc = term if acc is None else acc + term
    return acc if acc is not None else np.zeros_like(u)


def _solve(problem: PdeProblem, mesh_spec: MeshSpec) -> GridSolution:
    dim = problem.dim
    counts = mesh_spec.nodes_per_axis(dim)
    axes = [
        np.linspace(lo, hi, c) for (lo, hi), c in zip(problem.domain_box, counts)
    ]
    h = np.array([ax[1] - ax[0] for ax in axes])
    gen_diag = problem.generator_diag()
    transport = problem.has_transport()

    velocities = None
    adv_rate = 0.0
    if transport:
        velocities = []
        for a in range(dim):
            if gen_diag[a] == 0.0:
                velocities.append(None)
                continue
            shape = [1] * dim
            shape[a] = counts[a]
            v = (gen_diag[a] * axes[a]).reshape(shape)
            velocities.append(v)
            adv_rate += float(np.max(np.abs(v))) / h[a]

    lam = problem.sigma.spectral_radius()
    rate = 2.0 * dim * lam / float(np.min(h)) ** 2 + adv_rate
    dt_max = 1.0 / rate if rate > 0.0 else problem.T
    if mesh_spec.dt is not None:
        if mesh_spec.dt > dt_max * (1.0 + 1e-12):
            raise CflError(mesh_spec.dt, dt_max)
        n_steps = max(1, math.ceil(problem.T / mesh_spec.dt - 1e-12))
    else:
        n_steps = max(1, math.ceil(problem.T / (mesh_spec.safety * dt_max)))
    dt = problem.T / n_steps

    extremes = problem.sigma.matrices
    want_cross = any(
        abs(q[a, b]) > 0.0
        for q in extremes
        for a in range(dim)
        for b in range(a + 1, dim)
    )

    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    terminal = np.asarray(problem.terminal_f(points), dtype=float)
    if terminal.shape != tuple(counts):
        raise ValueError(
            f"terminal data must map (...,{dim}) points to a {tuple(counts)} grid, "
            f"got {terminal.shape}"
        )

    values = np.empty((n_steps + 1, *counts))
    values[n_steps] = terminal
    for k in range(n_steps, 0, -1):
        u = values[k]
        diag, cross = _hessian_entries(u, h, want_cross)
        rhs = _g_of_hessian(diag, cross, extremes)
        if transport:
            rhs = _upwind_transport(u, h, velocities) + rhs
        values[k - 1] = u + dt * rhs
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
    dim = problem.dim
    axes = solution.axes
    h = np.array([ax[1] - ax[0] for ax in axes])
    gen_diag = problem.generator_diag()
    extremes = problem.sigma.matrices
    want_cross = any(
        abs(q[a, b]) > 0.0
        for q in extremes
        for a in range(dim)
        for b in range(a + 1, dim)
    )
    n_steps = solution.n_steps
    sample = range(1, n_steps)
    if n_steps > 41:
        sample = np.unique(np.linspace(1, n_steps - 1, 40).astype(int))

    interior = tuple(slice(1, -1) for _ in range(dim))
    grids = np.meshgrid(*axes, indexing="ij")
    if problem.has_transport():
        adv_velocities = [
            None if gen_diag[a] == 0.0 else gen_diag[a] * grids[a]
            for a in range(dim)
        ]

    worst = 0.0
    for k in sample:
        u = solution.values[k]
        u_t = (solution.values[k + 1] - solution.values[k - 1]) / (2.0 * solution.dt)
        diag, cross = _hessian_entries(u, h, want_cross)
        resid = u_t + _g_of_hessian(diag, cross, extremes)
        if problem.has_transport():
            padded = _pad_linear(u)
            zero = [0] * dim
            for a in range(dim):
                if adv_velocities[a] is None:
                    continue
                up, dn = zero.copy(), zero.copy()
                up[a], dn[a] = 1, -1
                centered = (_shifted(padded, up) - _shifted(padded, dn)) / (2.0 * h[a])
                resid = resid + adv_velocities[a] * centered
        resid = np.abs(resid)[interior]

        raw_jump = np.zeros_like(resid)
        for a in range(dim):
            raw_jump = np.maximum(
                raw_jump, np.abs(diag[a][interior]) * h[a] ** 2
            )
        median = float(np.median(raw_jump))
        smooth = raw_jump <= 10.0 * median
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
    x0c = as_coords(x0) if not np.isscalar(x0) else np.full(sigma.dim, float(x0))
    flow = np.exp(np.outer(raw.times, diag)) * x0c[None, :]
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
    decay = np.exp(dt * diag)
    x = bundle.states[:, split_index, :].copy()
    worst = 0.0
    for k in range(split_index, bundle.n_steps):
        x = (x + bundle.increments[:, k, :]) * decay
        gap = float(np.max(np.abs(x - bundle.states[:, k + 1, :])))
        worst = max(worst, gap)
    return worst


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
    """``mc_value`` at each probe, sharing simulations between probes.

    A policy that does not read the state drives the same convolution at
    every probe, which differs only in the flow term exp((T - t0) A) x0; it
    is simulated once.  A feedback policy is simulated once per probe.
    """
    if not 0.0 <= t0 < problem.T:
        raise ValueError(f"t0 must lie in [0, T), got {t0}")
    sigma, steps, n_paths = problem.sigma, control_spec.steps, control_spec.n_paths
    x0s = [
        as_coords(x0) if not np.isscalar(x0) else np.full(sigma.dim, float(x0))
        for x0 in probes
    ]
    diag = _generator_diag(problem.a_gen, sigma.dim)
    flow_T = np.exp((problem.T - t0) * diag)
    best = [(-math.inf, 0.0)] * len(x0s)
    for pol in build_policies(control_spec.family, len(sigma)):
        if pol.reads_state:
            terminals = (
                ou_mild_path(problem.a_gen, sigma, pol, x0, t0, problem.T, steps,
                             n_paths, control_spec.seed).terminal
                for x0 in x0s
            )
        else:
            raw = simulate_gbm(sigma, pol, n_paths, steps, problem.T - t0,
                               control_spec.seed)
            conv_T = convolution_path(np.diag(diag), raw, substeps=steps)[:, -1]
            del raw  # free the paths before the next policy is simulated
            terminals = (conv_T + flow_T * x0 for x0 in x0s)
        for i, terminal in enumerate(terminals):
            vals = np.asarray(problem.terminal_f(terminal), dtype=float)
            if vals.shape != (n_paths,):
                raise ValueError(
                    "terminal data must map (n, dim) states to (n,) values"
                )
            mean = float(vals.mean())
            if mean > best[i][0]:
                best[i] = (mean, float(vals.std(ddof=1) / math.sqrt(vals.size)))
    return [McValue(value, se) for value, se in best]


def write_slice_csv(solution: GridSolution, t: float, path) -> None:
    """Export the time slice nearest to t: one row per node, coords + value."""
    k = solution.time_index(t)
    grids = np.meshgrid(*solution.axes, indexing="ij")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(len(solution.axes))] + ["u"])
        flat = [g.reshape(-1) for g in grids] + [solution.values[k].reshape(-1)]
        for row in zip(*flat):
            writer.writerow([repr(float(v)) for v in row])
