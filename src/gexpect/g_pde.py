"""Explicit monotone finite differences for the fully nonlinear equation

    du/dt + <A x, Du> + G(D^2 u) = 0,   u(T, .) = f,

in one to three truncated dimensions, plus the probabilistic side: mild-
solution paths of the associated linear SDE and the Monte Carlo value that
the solver is cross-validated against.

Backward time stepping u(t - dt) = u(t) + dt * (<A x, Du> + G(D^2 u)).  The
diffusion is a wide directional stencil (Bonnans-Zidani 2003): each extreme
is written as Q_ab / (h_a h_b) = sum_j w_j v_j v_j^T with w >= 0 over integer
grid directions v_j, and Tr[Q D^2 u] is sum_j w_j (u(x + v_j) - 2 u(x) +
u(x - v_j)).  At a node where x + v_j or x - v_j leaves the grid, v_j adds no
curvature.  Transport is first-order upwind.  The update's centre weight is
1 - dt * rate with rate = max over extremes of sum_j w_j plus the upwind
rate, so dt = ``CFL_SAFETY`` / rate keeps every weight nonnegative: the
scheme is monotone and L-infinity stable for every extreme that has such a
decomposition within ``MAX_STENCIL_RADIUS``; an extreme without one is
rejected.  For diagonal extremes the directions are the axes and the rate is
sum_a Q_aa / h_a^2.  The transport generator is restricted to diagonal
nonpositive matrices, which keeps the semigroup explicit, and the box of a
transported axis must hold 0: the flow contracts toward 0, so every upwind
neighbour is a grid node and the truncation needs no boundary data.

Each solve builds one stencil object that owns every buffer the steps use.
The sums u(x + v_j) + u(x - v_j) and u itself are stacked in one
(J + 1, nodes) array, and G(D^2 u) is one matrix product with the rows
(w_q / 2, -sum_j w_qj) of the extremes followed by a max over the extremes.
The solve is one backward march over three rolling slices.  It keeps about
sqrt(n_steps) checkpoint slices (revolve-style checkpointing, Griewank-Walther
2000) and measures the strong-form residual on the way, from the G(D^2 u)
that each sampled step computes anyway; any other slice is re-marched from
the next checkpoint on demand, bitwise equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import nnls

from .covariance_set import CovarianceSet
from .control_sim import (
    PathBundle, PolicyFamily, _policy_sup, _replay, _terminal, simulate_gbm,
)
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
# Largest stencil radius max_a |v_a| searched for an extreme's directions.
MAX_STENCIL_RADIUS = 8


@dataclass(frozen=True)
class PdeProblem:
    """Terminal-value problem on a box, with covariance set ``sigma`` and an
    optional diagonal nonpositive transport generator ``a_gen``; the box of
    each axis with a nonzero rate holds 0."""

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
        for a, ((lo, hi), rate) in enumerate(zip(box, self.generator_diag())):
            if rate != 0.0 and not lo <= 0.0 <= hi:
                raise ValueError(f"the box [{lo}, {hi}] of transported axis {a} must "
                                 f"hold 0, where the upwind differences point")

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
    """Backward-evolved value function on a space-time grid, held as checkpoints.

    Slice k is the value at time ``times[k]``; index 0 is the initial time,
    ``n_steps`` the terminal data.  A solution keeps slice 0, the terminal
    slice and evenly spaced checkpoint slices between them, at most
    isqrt(n_steps) + 2 slices in all, and ``residual``, the strong-form
    residual measured during the solve (see ``residual_check``).  ``time_slice(k)``
    re-marches any other slice from the next checkpoint up, at most one
    segment, and ``values`` re-marches the whole (n_steps + 1, ...) array on
    every read; both use a fresh stencil, and the march is deterministic, so
    both are bitwise what the solve computed.
    """

    __slots__ = ("axes", "dt", "n_steps", "cfl_ratio", "residual", "_kept", "_spacing",
                 "_operator", "values")

    def __init__(self, axes, dt, kept, spacing, operator, cfl_ratio, residual):
        for name, value in (("axes", tuple(axes)), ("dt", float(dt)),
                            ("n_steps", max(kept)), ("cfl_ratio", float(cfl_ratio)),
                            ("residual", residual), ("_kept", kept),
                            ("_spacing", spacing), ("_operator", operator)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GridSolution is immutable")

    def __getattr__(self, name):
        # reached for ``values`` while its slot is unset: the array is never kept
        if name != "values":
            raise AttributeError(f"'GridSolution' object has no attribute {name!r}")
        top = self._kept[self.n_steps]
        values = np.empty((self.n_steps + 1, *top.shape))
        values[-1] = top
        for k, u, _ in _march(self._stencil(), top, self.n_steps, self.dt):
            values[k] = u
        return values

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def bytes_held(self) -> int:
        """Bytes of the stored checkpoint slices."""
        return sum(u.nbytes for u in self._kept.values())

    def time_index(self, t: float) -> int:
        k = int(round(t / self.dt))
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > self.dt / 2 + 1e-12:
            raise ValueError(f"time {t} outside the solved range")
        return k

    def time_slice(self, k: int) -> np.ndarray:
        """A copy of slice k: a stored checkpoint, or re-marched from the next
        one up."""
        if not 0 <= k <= self.n_steps:
            raise IndexError(f"slice {k} outside 0..{self.n_steps}")
        top = min(-(-k // self._spacing) * self._spacing, self.n_steps)
        u = self._kept[top]
        if top > k:
            for _, u, _ in _march(self._stencil(), u, top, self.dt, stop=k):
                pass
        return u.copy()

    def value_at(self, t: float, point) -> float:
        """Multilinear interpolation of the slice nearest to t."""
        interp = RegularGridInterpolator(self.axes, self.time_slice(self.time_index(t)))
        return float(interp(np.atleast_2d(as_coords(point)))[0])

    def _stencil(self) -> "_Stencil":
        return _Stencil(self.axes, *self._operator)


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


def _mesh_axes(problem: PdeProblem, mesh_spec: MeshSpec) -> list[np.ndarray]:
    counts = mesh_spec.nodes_per_axis(problem.dim)
    return [np.linspace(lo, hi, c) for (lo, hi), c in zip(problem.domain_box, counts)]


def _decompose(extremes, axes) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid directions and nonnegative weights for every extreme.

    Returns the directions v as the rows of a (J, d) integer array (first
    nonzero entry positive, gcd 1) and a (k, J) array w >= 0 with
    Q_ab / (h_a h_b) = sum_j w[q, j] v_ja v_jb for each of the k extremes Q.
    Each extreme takes the smallest radius max_a |v_a| at which ``nnls``
    leaves no residual.  Its columns are the unit-trace atoms v v^T / |v|^2,
    so the active set enters the direction of largest Rayleigh quotient
    first, the shortest one on ties: a diagonal extreme gets the axes alone.
    Raises ValueError for an extreme with no such weights within
    ``MAX_STENCIL_RADIUS`` (a rank-deficient extreme with an irrational
    kernel has none at any radius).
    """
    h = np.array([ax[1] - ax[0] for ax in axes])
    dim = h.size
    span = np.arange(-MAX_STENCIL_RADIUS, MAX_STENCIL_RADIUS + 1)
    grid = np.stack(np.meshgrid(*[span] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    dirs = grid[(lead > 0) & (np.gcd.reduce(grid, axis=1) == 1)]
    radius, length = np.max(np.abs(dirs), axis=1), np.sum(dirs * dirs, axis=1)
    order = np.lexsort((length, radius))
    dirs, radius, length = dirs[order], radius[order], length[order]
    rows, cols = np.triu_indices(dim)
    atoms = (dirs[:, rows] * dirs[:, cols] / length[:, None]).T

    weights = np.zeros((len(extremes), len(dirs)))
    for q, mat in enumerate(extremes):
        target = (mat / np.outer(h, h))[rows, cols]
        for r in range(1, MAX_STENCIL_RADIUS + 1):
            n = int(np.searchsorted(radius, r, side="right"))
            w, resid = nnls(atoms[:, :n], target)
            if resid <= 1e-12 * np.linalg.norm(target):
                weights[q, :n] = w / length[:n]
                break
        else:
            raise ValueError(
                f"extreme {q} {np.asarray(mat).tolist()} has no nonnegative weights "
                f"on integer grid directions of radius <= {MAX_STENCIL_RADIUS} "
                f"at spacing h = {h.tolist()}"
            )
    used = np.any(weights > 0.0, axis=0)
    return dirs[used], weights[:, used]


class _Stencil:
    """The scheme's spatial operator on one grid, evaluated in reused buffers.

    Every term reads the nodes flat in C order, where a direction v is a flat
    shift by s = |sum_a v_a n_a|, n_a the node strides.  For G(D^2 u), u(x +
    v) + u(x - v) is one contiguous sum over the flat range where both shifts
    stay in the array.  On the layers of nodes where x + v or x - v leaves the
    grid (there the flat shift wraps into another row) the sum is then set to
    2 u(x), so that v adds no curvature there.

    Transport and the residual's kink test read the forward differences
    d_a[p] = u[p + n_a] - u[p] of the same array, with no ghost layer.  The
    flow contracts toward 0 and ``PdeProblem`` makes a transported axis's
    box hold 0, so nodes with x_a < 0 read forward and are never last on
    the axis, and the others read backward (d_a one node behind) and are
    never first; a box starting at 0 puts that node, of velocity 0, with
    the forward ones.  Centred and second differences hold at interior
    nodes, all the residual reads; elsewhere they are finite by-products.
    """

    def __init__(self, axes, extremes, gen_diag):
        dim = len(axes)
        counts = tuple(ax.size for ax in axes)
        h = np.array([ax[1] - ax[0] for ax in axes])

        # sums u(x + v) + u(x - v) on the nodes, then u itself, stacked for one
        # contraction with the rows (w_q / 2, -sum_j w_qj): the last column of
        # _coef is minus the centre weight per unit dt
        dirs, weights = _decompose(extremes, axes)
        self._coef = np.hstack([weights / 2.0, -np.sum(weights, axis=1, keepdims=True)])
        nodes = math.prod(counts)
        node_strides = [math.prod(counts[a + 1:]) for a in range(dim)]
        self._entries = np.zeros((len(dirs) + 1, nodes))
        u_flat = self._entries[-1]
        self._rows = []
        for row, v in zip(self._entries, dirs):
            # k = 2 s, capped where v leaves the grid at every node (empty views)
            k = min(2 * abs(int(np.dot(v, node_strides))), nodes)
            box, u_box = row.reshape(counts), u_flat.reshape(counts)
            layers = []
            for a, width in enumerate(np.abs(v)):
                if width:
                    for layer in ((slice(None),) * a + (slice(None, width),),
                                  (slice(None),) * a + (slice(-width, None),)):
                        layers.append((u_box[layer], box[layer]))
            self._rows.append((u_flat[k:], u_flat[:nodes - k],
                               row[k // 2:k // 2 + nodes - k], layers))
        self._acc = np.zeros((len(extremes), nodes))
        self._g = np.zeros(nodes)
        self._g_nodes = self._g.reshape(counts)

        # forward differences d_a[p] = u[p + n_a] - u[p], valid for p < nodes - n_a
        self._fd = np.zeros((dim, nodes))
        self._fd_ops = [(u_flat[s:], u_flat[:nodes - s], self._fd[a, :nodes - s])
                        for a, s in enumerate(node_strides)]
        # d_a[p] and d_a[p - n_a] over the flat range that holds every interior
        # node: their sum is 2 h_a times the centred difference, their
        # difference the raw second difference
        lo = sum(node_strides)
        self._inner = slice(lo, nodes - lo)
        self._pairs = [(self._fd[a, self._inner], self._fd[a, lo - s:nodes - lo - s])
                       for a, s in enumerate(node_strides)]
        self._c = np.zeros(nodes)

        # upwind transport: one slab product for the leading block of each axis,
        # v > 0, and one for the rest, v <= 0; together they write every node
        self._upwind, self._centered_rates = [], [None] * dim
        self._t = np.zeros(counts)
        fd_box = self._fd.reshape(dim, *counts)
        adv_rate = 0.0
        for a in range(dim):
            if gen_diag[a] == 0.0:
                continue
            v = (gen_diag[a] * axes[a]).reshape((-1,) + (1,) * (dim - a - 1))
            n_pos = max(1, int(np.count_nonzero(v > 0.0)))
            adv_rate += float(np.max(np.abs(v))) / h[a]

            def along(arr, start, stop, a=a):
                return arr[(slice(None),) * a + (slice(start, stop),)]

            self._upwind.append((self._fd_ops[a], (
                (along(fd_box[a], 0, n_pos), v[:n_pos] / h[a], along(self._t, 0, n_pos)),
                (along(fd_box[a], n_pos - 1, counts[a] - 1), v[n_pos:] / h[a],
                 along(self._t, n_pos, counts[a])),
            )))
            self._centered_rates[a] = v / (2.0 * h[a])

        # the update's centre weight is 1 - dt * rate at worst
        self.rate = float(np.max(-self._coef[:, -1])) + adv_rate

    def g_of_hessian(self, u: np.ndarray) -> np.ndarray:
        """1/2 max over extremes of Tr[Q D^2 u] at the nodes, in a reused buffer.

        Also leaves u in the node array that the differences read.
        """
        np.copyto(self._entries[-1], u.reshape(-1))
        for ahead, behind, out, layers in self._rows:
            np.add(ahead, behind, out=out)
            for u_layer, layer in layers:
                np.multiply(u_layer, 2.0, out=layer)
        np.matmul(self._coef, self._entries, out=self._acc)
        np.max(self._acc, axis=0, out=self._g)
        return self._g_nodes

    def rhs(self, u: np.ndarray, keep=None) -> np.ndarray:
        """<A x, Du> + G(D^2 u) at the nodes, with upwind transport.

        A view of a buffer that the next call overwrites.  ``keep``, if given,
        receives a copy of G(D^2 u) before the transport is added.
        """
        rhs = self.g_of_hessian(u)
        if keep is not None:
            np.copyto(keep, rhs)
        for (ahead, here, diff), slabs in self._upwind:
            np.subtract(ahead, here, out=diff)
            for diff_slab, rate, out in slabs:
                np.multiply(diff_slab, rate, out=out)
            rhs += self._t
        return rhs

    def residual_terms(self, terms: np.ndarray):
        """G(D^2 u) plus centered transport, and the largest |raw second
        difference| over the axes, both exact at the interior nodes, for the
        u in the node array (the one ``g_of_hessian`` or ``rhs`` last read).

        ``terms`` holds G(D^2 u) on the nodes and receives the transport in
        place.
        """
        c, c_inner = self._c.reshape(terms.shape), self._c[self._inner]
        jumps = np.zeros(self._c.size)
        jumps_inner = jumps[self._inner]
        for (ahead, here, diff), (fwd, bwd), rate in zip(
                self._fd_ops, self._pairs, self._centered_rates):
            np.subtract(ahead, here, out=diff)
            if rate is not None:
                np.add(fwd, bwd, out=c_inner)
                np.multiply(c, rate, out=c)
                terms += c
            np.subtract(fwd, bwd, out=c_inner)
            np.abs(c_inner, out=c_inner)
            np.maximum(jumps_inner, c_inner, out=jumps_inner)
        return terms, jumps.reshape(terms.shape)


def _march(stencil, top, k_top, dt, stop=0, sample=frozenset()):
    """The scheme's one backward loop: u_{k-1} = u_k + dt * rhs(u_k), from
    u_{k_top} = ``top`` down to u_stop.

    Yields ``(k - 1, u_{k-1}, r_k)`` per step.  For k in ``sample`` (below
    k_top), r_k is the strong-form residual |u_t + G(D^2 u) + <A x, Du>| at
    slice k, centred in time and space, maximised over the interior nodes
    whose raw second difference stays within ten times the slice median
    (kinks are left out); it reuses the step's G(D^2 u_k), and is 0.0 where
    every node is a kink.  Otherwise r_k is None.  The slices rotate through
    three buffers, so a yielded one is overwritten two steps later.  Raises
    ValueError for an unstable step or a non-finite slice.
    """
    if dt * stencil.rate > 1.0:
        raise ValueError(f"unstable configuration: cfl_ratio {dt * stencil.rate} > 1")
    ring = np.empty((3, *top.shape))
    ring[k_top % 3] = top
    g = np.empty(top.shape)
    interior = (slice(1, -1),) * top.ndim
    _require_finite(top)
    for k in range(k_top, stop, -1):
        u, below = ring[k % 3], ring[(k - 1) % 3]
        measure = k in sample
        np.multiply(stencil.rhs(u, keep=g if measure else None), dt, out=below)
        below += u
        _require_finite(below)
        r_k = None
        if measure:
            terms, jumps = stencil.residual_terms(g)
            u_t = (ring[(k + 1) % 3] - below) / (2.0 * dt)
            resid = np.abs(u_t + terms)[interior]
            raw_jump = jumps[interior]
            smooth = raw_jump <= 10.0 * float(np.median(raw_jump))
            r_k = float(resid[smooth].max()) if np.any(smooth) else 0.0
        yield k - 1, below, r_k


def _require_finite(u: np.ndarray) -> None:
    if not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ValueError("solution values must be finite everywhere")


def _solve(problem: PdeProblem, mesh_spec: MeshSpec) -> GridSolution:
    axes = _mesh_axes(problem, mesh_spec)
    counts = tuple(ax.size for ax in axes)
    operator = (problem.sigma.matrices, problem.generator_diag())
    stencil = _Stencil(axes, *operator)
    dt_max = 1.0 / stencil.rate if stencil.rate > 0.0 else problem.T
    n_steps = max(1, math.ceil(problem.T / (CFL_SAFETY * dt_max)))
    dt = problem.T / n_steps

    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    terminal = np.array(problem.terminal_f(points), dtype=float)
    if terminal.shape != counts:
        raise ValueError(
            f"terminal data must map (...,{problem.dim}) points to a {counts} grid, "
            f"got {terminal.shape}"
        )

    # at most isqrt(n_steps) + 1 segments between the kept slices
    spacing = -(-n_steps // (math.isqrt(n_steps) + 1))
    kept = {n_steps: terminal}
    # the residual needs 3 interior nodes per axis; it is measured at every
    # interior slice up to 41 steps, at 40 evenly spread ones beyond
    residual, sample = None, frozenset()
    if min(counts) >= 5:
        residual = 0.0
        sample = frozenset(np.linspace(1, n_steps - 1, 40).astype(int).tolist()
                           if n_steps > 41 else range(1, n_steps))
    for k, u, resid in _march(stencil, terminal, n_steps, dt, sample=sample):
        if k % spacing == 0:
            kept[k] = u.copy()
        if resid is not None:
            residual = max(residual, resid)
    return GridSolution(axes, dt, kept, spacing, operator, dt / dt_max, residual)


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
    kinks and excluded.  Returns the maximum over the sampled interior slices
    (every one up to 41 steps, 40 evenly spread beyond), which the solve
    measured as it marched.  ``problem`` must have the extremes and the
    generator of the problem that was solved.
    """
    if any(ax.size < 5 for ax in solution.axes):
        raise ValueError("residual check needs >= 3 interior nodes per axis")
    extremes, gen_diag = solution._operator
    if not (np.array_equal(problem.sigma.matrices, extremes)
            and np.array_equal(problem.generator_diag(), gen_diag)):
        raise ValueError("the problem's extremes or generator differ from those "
                         "of the problem that was solved")
    return solution.residual


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
    """``mc_value`` at each probe, the supremum over the mild paths started there.

    A constant or time-table member's mild terminal state at a probe x0 is
    the convolution of its driving paths, which does not depend on x0, plus
    the flow term exp((T - t0) A) x0, so it walks once for all probes and its
    convolution is shifted per probe.  A feedback member's rule reads the
    mild state, which does depend on x0, so it walks once per probe, started
    there, as x_{k+1} = exp(dt A) (x_k + dx_k).  A NaN mean wins a probe's
    supremum (see ``control_sim._policy_sup``).
    """
    if not 0.0 <= t0 < problem.T:
        raise ValueError(f"t0 must lie in [0, T), got {t0}")
    sigma, steps = problem.sigma, control_spec.steps
    x0s = [as_point(x0, sigma.dim) for x0 in probes]
    diag = _generator_diag(problem.a_gen, sigma.dim)
    flow_T = np.exp((problem.T - t0) * diag)
    n_paths, T = control_spec.n_paths, problem.T - t0
    decay = np.exp(T / steps * diag)

    def payoff(policy, walk):
        if policy.kind == "feedback":
            ends = (_terminal(walk(x0, decay)) for x0 in x0s)
        else:
            # every=steps: the fold yields once, the terminal convolution
            [(_, conv_T)] = _convolve(decay, walk(), steps,
                                      np.zeros((n_paths, sigma.dim)))
            ends = (conv_T + flow_T * x0 for x0 in x0s)
        rows = [evaluate_rows(problem.terminal_f, x) for x in ends]
        return np.reshape(rows, (len(x0s), n_paths))

    return [McValue(est.value, est.stderr) for est in _policy_sup(
        sigma, control_spec.family, n_paths, steps, T, control_spec.seed, payoff)]
