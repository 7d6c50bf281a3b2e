"""Explicit monotone finite differences for the fully nonlinear equation

    du/dt + <A x, Du> + G(D^2 u) = 0,   u(T, .) = f,

in one to three truncated dimensions, plus the probabilistic side: mild-
solution paths of the associated linear SDE and the Monte Carlo value that
the solver is cross-validated against.

A is diagonal and nonpositive, and the solver works in the mild frame
(Da Prato-Zabczyk): u(t, x) = w(t, E(t) x) with E(t) = exp((T - t) A) cancels
the transport exactly, and w solves the G-heat equation dw/dt + G_t(D^2 w) =
0, w(T, .) = f, with extremes Q(t) = E(t) Q E(t).  Slice k of a solution is
w(t_k, .) on the grid, and u(t_k, x) is read at the node E(t_k) x.

Backward time stepping w(t - dt) = w(t) + dt * G_t(D^2 w).  The diffusion is
a wide directional stencil (Bonnans-Zidani 2003): each extreme is written as
Q_ab / (h_a h_b) = sum_j w_j v_j v_j^T with w >= 0 over integer grid
directions v_j, and Tr[Q D^2 u] is sum_j w_j (u(x + v_j) - 2 u(x) + u(x -
v_j)); where x + v_j or x - v_j leaves the grid, v_j adds no curvature.  The
centre weight is 1 - dt * rate with rate = max over extremes of sum_j w_j,
so dt * rate <= ``CFL_SAFETY`` makes the scheme monotone and L-infinity
stable.  A positive definite extreme with no decomposition within
``MAX_STENCIL_RADIUS`` takes Selling's longer directions, and a singular
one raises ``StencilError``.  The solve is one backward march over three
rolling slices that keeps about sqrt(n_steps) checkpoints (revolve-style,
Griewank-Walther 2000); Q(t) is frozen over each segment between them at its midpoint
time, which keeps the scheme second order, and n_steps is the fixed point at
which every segment's rate meets the bound.  The march measures the
strong-form residual on the way, with the extremes Q(t) of each sampled
time, and any other slice is re-marched over one segment, with its one
operator, bitwise equal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covariance_set import CovarianceSet
from .control_sim import (FOLD_ELEMENTS, McControlSpec, PathBundle, UpperEstimate,
                          _policy_sup, _stored, _terminal)
from .g_normal import as_point, evaluate_rows
from .operator_core import as_coords, nnls
from .stoch_integral import _generator_diag, convolution_path

__all__ = [
    "PdeProblem",
    "StencilError",
    "MeshSpec",
    "GridSolution",
    "solve_gheat",
    "solve_gpde",
    "residual_check",
    "ou_mild_path",
    "flow_property_discrepancy",
    "mc_values",
]

# Fraction of the CFL bound used as the time step.
CFL_SAFETY = 0.9
# Largest stencil radius max_a |v_a| searched for an extreme's directions.
MAX_STENCIL_RADIUS = 8


class StencilError(ValueError):
    """An extreme with no nonnegative weights on the grid's integer directions."""


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
        # rejects a generator that is not diagonal nonpositive
        object.__setattr__(self, "_rates", _generator_diag(self.a_gen, self.dim))

    def generator_diag(self) -> np.ndarray:
        return self._rates.copy()

    def flow(self, t: float) -> np.ndarray:
        """The diagonal of E(t) = exp((T - t) A), which maps x to the node
        E(t) x where the mild-frame value holds u(t, x)."""
        return np.exp((self.T - t) * self._rates)

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

    Slice k is the mild-frame value w(t_k, .) on the grid, t_k = k ``dt``:
    u(t_k, x) = w(t_k, E(t_k) x), E(t_k) the diagonal ``flow(k)``.  A
    solution keeps slice 0, the terminal slice ``n_steps`` and evenly spaced
    checkpoint slices between them, at most isqrt(n_steps) + 2 in all, and
    ``residual``, measured during the solve (see ``residual_check``).
    ``time_slice(k)`` re-marches any other slice over one segment from the
    next checkpoint up, and ``values`` the whole (n_steps + 1, ...) array on
    every read; the march is deterministic, so both are bitwise what the
    solve computed.
    """

    __slots__ = ("axes", "dt", "n_steps", "cfl_ratio", "residual", "_kept", "_segments",
                 "values")

    def __init__(self, segments, kept, cfl_ratio, residual):
        for name, value in (("axes", tuple(segments.axes)), ("dt", segments.dt),
                            ("n_steps", segments.n_steps), ("cfl_ratio", float(cfl_ratio)),
                            ("residual", residual), ("_kept", kept),
                            ("_segments", segments)):
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
        for k, u, _ in _march(self._segments, top, self.n_steps):
            values[k] = u
        return values

    @property
    def bytes_held(self) -> int:
        """Bytes of the stored checkpoint slices."""
        return sum(u.nbytes for u in self._kept.values())

    def flow(self, k) -> np.ndarray:
        """The diagonal of E(t_k): slice k holds u(t_k, x) at the node E(t_k) x."""
        return self._segments.flow(k)

    def time_slice(self, k: int) -> np.ndarray:
        """A copy of slice k: a stored checkpoint, or re-marched from the next
        one up."""
        if not 0 <= k <= self.n_steps:
            raise IndexError(f"slice {k} outside 0..{self.n_steps}")
        spacing = self._segments.spacing
        top = min(-(-k // spacing) * spacing, self.n_steps)
        u = self._kept[top]
        if top > k:
            for _, u, _ in _march(self._segments, u, top, stop=k):
                pass
        return u.copy()

    def value_at(self, t: float, point) -> float:
        """u at time t and ``point``: the slice nearest to t, interpolated
        multilinearly at E(t_k) ``point`` (ValueError off the grid), bitwise as
        scipy's RegularGridInterpolator, which weights a corner left to right
        in 2-d and by the product of its weights otherwise."""
        steps = t / self.dt
        k = int(round(steps)) if math.isfinite(steps) else -1  # inf and nan: off the range
        if not 0 <= k <= self.n_steps or abs(k * self.dt - t) > self.dt / 2 + 1e-12:
            raise ValueError(f"time {t} outside the solved range")
        u, x, corners = self.time_slice(k), self.flow(k) * as_coords(point), []
        for ax, xa in zip(self.axes, x, strict=True):
            if not ax[0] <= xa <= ax[-1]:
                raise ValueError(f"point {x.tolist()} outside the grid")
            i = min(int(np.searchsorted(ax, xa, side="right")) - 1, ax.size - 2)
            y = (xa - ax[i]) / (ax[i + 1] - ax[i])
            corners.append(((i, 1.0 - y), (i + 1, y)))
        value = 0.0
        for index, weights in (zip(*c) for c in itertools.product(*corners)):
            value += (math.prod((u[index],) + weights) if u.ndim == 2
                      else u[index] * math.prod(weights))
        return float(value)


@functools.lru_cache
def _directions(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only table of the integer directions of radius <= ``MAX_STENCIL_RADIUS``
    in dimension ``dim`` (first nonzero entry positive, gcd 1), ordered by
    radius max_a |v_a| and then by squared length: the (J, d) directions, their
    radii and squared lengths, and the (d (d + 1) / 2, J) upper-triangle
    entries of the unit-trace atoms v v^T / |v|^2."""
    span = np.arange(-MAX_STENCIL_RADIUS, MAX_STENCIL_RADIUS + 1)
    grid = np.stack(np.meshgrid(*[span] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    lead = grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)]
    dirs = grid[(lead > 0) & (np.gcd.reduce(grid, axis=1) == 1)]
    radius, length = np.max(np.abs(dirs), axis=1), np.sum(dirs * dirs, axis=1)
    order = np.lexsort((length, radius))
    dirs, radius, length = dirs[order], radius[order], length[order]
    rows, cols = np.triu_indices(dim)
    atoms = (dirs[:, rows] * dirs[:, cols] / length[:, None]).T
    for arr in (dirs, radius, length, atoms):
        arr.flags.writeable = False
    return dirs, radius, length, atoms


def _decompose(extremes, axes) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid directions and nonnegative weights for every extreme.

    Returns the directions v as the rows of a (J, d) integer array (first
    nonzero entry positive, gcd 1) and a (k, J) array w >= 0 with
    Q_ab / (h_a h_b) = sum_j w[q, j] v_ja v_jb for each of the k extremes Q.
    Each extreme takes the smallest radius max_a |v_a| at which ``nnls``
    leaves no residual.  Its columns are the unit-trace atoms v v^T / |v|^2,
    so the active set enters the direction of largest Rayleigh quotient
    first, the shortest one on ties: a diagonal extreme gets the axes alone.
    A positive definite extreme with no such weights within
    ``MAX_STENCIL_RADIUS`` takes Selling's directions (``_selling``), which
    reach further.  Raises StencilError for a singular one (a rank-deficient
    extreme with an irrational kernel has no weights at any radius).
    """
    h = np.array([ax[1] - ax[0] for ax in axes])
    dirs, radius, length, atoms = _directions(h.size)
    rows, cols = np.triu_indices(h.size)

    weights = np.zeros((len(extremes), len(dirs)))
    for q, mat in enumerate(extremes):
        scaled = mat / np.outer(h, h)
        target = scaled[rows, cols]
        for r in range(1, MAX_STENCIL_RADIUS + 1):
            n = int(np.searchsorted(radius, r, side="right"))
            w, resid = nnls(atoms[:, :n], target)
            if resid <= 1e-12 * np.linalg.norm(target):
                weights[q, :n] = w / length[:n]
                break
        else:
            wide = _selling(scaled)
            if wide is None:
                raise StencilError(
                    f"extreme {q} {np.asarray(mat).tolist()} has no nonnegative weights "
                    f"on integer grid directions of radius <= {MAX_STENCIL_RADIUS} "
                    f"at spacing h = {h.tolist()} and is not positive definite"
                )
            for v, w in zip(*wide):
                hit = np.flatnonzero(np.all(dirs == v, axis=1))
                if not hit.size:
                    dirs, weights = np.vstack([dirs, v]), np.pad(weights, ((0, 0), (0, 1)))
                weights[q, hit[0] if hit.size else -1] = w
    used = np.any(weights > 0.0, axis=0)
    return dirs[used], weights[:, used]


def _selling(target):
    """Directions and weights of a positive definite d x d ``target``, d = 2
    or 3, by Selling's reduction (Fehrenbach-Mirebeau 2014), or None.

    A superbase e_0..e_d (integer, summing to 0, unimodular) is flipped
    while some <e_i, D e_j> > 0, i != j, which lowers sum_i <e_i, D e_i>;
    then D = sum_{i<j} -<e_i, D e_j> v v^T with v the integer direction
    orthogonal to the e_m, m not in {i, j}.  None for a target whose
    smallest eigenvalue is below 1e-12 of its largest, or after 10^4 flips.
    """
    dim = len(target)
    eig = np.linalg.eigvalsh(target)
    if dim == 1 or not eig[0] > 1e-12 * eig[-1]:
        return None
    e = np.vstack([np.eye(dim, dtype=np.int64), -np.ones((1, dim), dtype=np.int64)])
    pairs = [(i, j) for i in range(dim + 1) for j in range(i + 1, dim + 1)]
    rest = lambda i, j: [m for m in range(dim + 1) if m not in (i, j)]
    for _ in range(10_000):
        gram = e @ target @ e.T
        i, j = max(pairs, key=lambda p: gram[p])
        if gram[i, j] <= 0.0:
            break
        e[rest(i, j)] += (4 - dim) * e[i]  # so that the flipped e still sums to 0
        e[i] = -e[i]
    else:
        return None
    # v_a = (-1)^a det(the e_m with column a left out): the cross product in
    # 3-d, e_m rotated by a right angle in 2-d
    dirs = [np.array([(-1) ** a * round(np.linalg.det(np.delete(e[rest(i, j)], a, axis=1)))
                      for a in range(dim)]) for i, j in pairs if gram[i, j] < 0.0]
    return ([v if v[np.argmax(v != 0)] > 0 else -v for v in dirs],
            [-gram[p] for p in pairs if gram[p] < 0.0])


class _Stencil:
    """G(D^2 u) for one set of extremes on one grid, evaluated in node tiles.

    Every term reads the nodes flat in C order, where a direction v is a flat
    shift by s = |sum_a v_a n_a|, n_a the node strides.  G(D^2 u) runs over
    tiles of about max(2, ``FOLD_ELEMENTS`` // (J + 1)) consecutive nodes
    for J directions, so its scratch does not grow with the grid.  A tile is
    a box: one index on the axes before a lead axis, a range on it and every
    node of the axes after it.  Its rows hold u(x + v) + u(x - v) per
    direction, one contiguous sum over the nodes where both flat shifts stay
    in the array, and u(x) + u(x) last.  On the nodes where x + v or x - v
    leaves the grid (there the flat shift wraps into another row) the sum is
    then set to 2 u(x), so that v adds no curvature there; tiles at the same
    distances from the edges share one index of those entries.  One matrix
    product with the rows (w_q / 2, -sum_j w_qj / 2) of the extremes and a
    max over them follow.  A BLAS product can round by the width of its call,
    but on every stencil tried the tiles changed no bit (the tests check
    tiles down to two nodes; one node alone would take a matrix-vector
    product).

    The residual reads the same flat u over the range that holds every
    interior node, with no ghost layer: the kink test the forward differences
    d_a[p] = u[p + n_a] - u[p], one axis at a time (d_a[p] - d_a[p - n_a] is
    the raw second difference), and ``retimed`` the centred Hessian.
    """

    def __init__(self, axes, dirs, weights):
        counts = tuple(ax.size for ax in axes)
        nodes = math.prod(counts)
        node_strides = [math.prod(counts[a + 1:]) for a in range(len(axes))]
        row_dirs = np.vstack([dirs, np.zeros(len(axes), dtype=int)])
        widths = np.abs(row_dirs)
        shifts = [abs(int(s)) for s in row_dirs @ node_strides]
        self._coef = np.hstack([weights, -np.sum(weights, axis=1, keepdims=True)]) / 2.0

        # tiles of whole index ranges on the lead axis, a last one-node tile
        # joined to the one before
        per_tile = max(2, FOLD_ELEMENTS // len(row_dirs))
        lead = next(a for a, n in enumerate(node_strides) if n <= per_tile)
        bounds = [*range(0, counts[lead], per_tile // node_strides[lead]), counts[lead]]
        if (bounds[-1] - bounds[-2]) * node_strides[lead] == 1:
            del bounds[-2]
        scratch = np.empty(len(row_dirs) * max(np.diff(bounds)) * node_strides[lead])
        self._acc = np.zeros((len(weights), nodes))
        self._g = np.zeros(nodes)
        self._g_nodes = self._g.reshape(counts)
        # each index's distance to the nearest edge, capped at the widest
        # direction along its axis: a tile's edge entries depend on no more
        dist = [np.minimum(np.minimum(np.arange(c), np.arange(c)[::-1]), r)
                for c, r in zip(counts, widths.max(axis=0))]
        edges, self._tiles = {}, []
        for index in itertools.product(*map(range, counts[:lead])):
            for i0, i1 in zip(bounds, bounds[1:]):
                spans = ([slice(i, i + 1) for i in index] + [slice(i0, i1)]
                         + [slice(0, c) for c in counts[lead + 1:]])
                first = sum(sp.start * n for sp, n in zip(spans, node_strides))
                box = [d[sp] for d, sp in zip(dist, spans)]
                size = math.prod(d.size for d in box)
                key = tuple(d.tobytes() for d in box[:lead + 1])
                if key not in edges:
                    near = np.zeros((len(row_dirs), *(d.size for d in box)), dtype=bool)
                    for a, d in enumerate(box):
                        shape = (-1,) + (1,) * a + (d.size,) + (1,) * (len(box) - a - 1)
                        near |= (d < widths[:, a:a + 1]).reshape(shape)
                    hit = np.flatnonzero(near)
                    edges[key] = hit, hit % size
                rows = scratch[:len(row_dirs) * size].reshape(len(row_dirs), size)
                sums = []
                for row, s in zip(rows, shifts):
                    lo, hi = max(first, s), min(first + size, nodes - s)
                    if lo < hi:
                        sums.append((row[lo - first:hi - first], slice(lo + s, hi + s),
                                     slice(lo - s, hi - s)))
                self._tiles.append((slice(first, first + size), sums, rows, *edges[key]))

        # d[p] = u[p + n_a] - u[p] for p < nodes - n_a, and d[p], d[p - n_a]
        # over the flat range that holds every interior node
        lo = sum(node_strides)
        self._inner = slice(lo, nodes - lo)
        self._fd = np.zeros(nodes)
        self._tmp = np.zeros(max(0, nodes - 2 * lo))
        self._jumps = np.zeros(nodes)
        self._axis_ops = [(s, self._fd[:nodes - s], self._fd[self._inner],
                           self._fd[lo - s:nodes - lo - s]) for s in node_strides]
        # 1/2 Q_ab / (h_a h_b) per extreme, doubled off the diagonal, from the
        # weights: the coefficient of the raw centred Hessian entry (a, b)
        halves = np.einsum("qj,ja,jb->abq", weights, dirs, dirs)
        self._pairs = [(node_strides[a], node_strides[b],
                        halves[a, b] * (0.5 if a == b else 1.0), a, b)
                       for a, b in zip(*np.triu_indices(len(axes))) if np.any(halves[a, b])]

        # the update's centre weight is 1 - dt * rate at worst
        self.rate = float(np.max(np.sum(weights, axis=1)))

    def g_of_hessian(self, u: np.ndarray) -> np.ndarray:
        """1/2 max over extremes of Tr[Q D^2 u] at the nodes, in a reused buffer.

        Keeps u, not a copy of it, as the array that the differences read.
        """
        self._u = u = u.reshape(-1)
        for tile, sums, rows, hit, col in self._tiles:
            for out, ahead, behind in sums:
                np.add(u[ahead], u[behind], out=out)
            rows.reshape(-1)[hit] = rows[-1, col]
            np.matmul(self._coef, rows, out=self._acc[:, tile])
            np.max(self._acc[:, tile], axis=0, out=self._g[tile])
        return self._g_nodes

    def jumps(self) -> np.ndarray:
        """The largest |raw second difference| over the axes at the nodes,
        exact at the interior ones, for the u that ``g_of_hessian`` last
        read, in a reused buffer."""
        u, inner, tmp = self._u, self._jumps[self._inner], self._tmp
        inner.fill(0.0)
        for s, diff, fwd, bwd in self._axis_ops:
            np.subtract(u[s:], u[:u.size - s], out=diff)
            np.abs(np.subtract(fwd, bwd, out=tmp), out=tmp)
            np.maximum(inner, tmp, out=inner)
        return self._jumps.reshape(self._g_nodes.shape)

    def retimed(self, scale) -> np.ndarray:
        """G(D^2 u) with every extreme Q replaced by S Q S, S = diag(``scale``),
        at the interior nodes, for the u that ``g_of_hessian`` last read: its
        per-extreme sums plus 1/2 Tr[(S Q S - Q) D^2 u], the Hessian in
        centred differences, in the buffers of ``jumps``.  Overwrites that G."""
        u, lo, hi = self._u, self._inner.start, self._inner.stop
        at = lambda shift: u[lo + shift:hi + shift]
        acc, raw, term = self._acc[:, self._inner], self._tmp, self._fd[:hi - lo]
        for s_a, s_b, halves, a, b in self._pairs:
            if a == b:
                np.add(np.subtract(at(s_a), np.multiply(at(0), 2.0, out=term), out=raw),
                       at(-s_a), out=raw)
            else:
                np.subtract(at(s_a + s_b), at(s_a - s_b), out=raw)
                np.subtract(raw, at(s_b - s_a), out=raw)
                np.divide(np.add(raw, at(-s_a - s_b), out=raw), 4.0, out=raw)
            for row, c in zip(acc, halves * (scale[a] * scale[b] - 1.0)):
                row += np.multiply(raw, c, out=term)
        np.max(acc, axis=0, out=self._g[self._inner])
        return self._g_nodes


class _Segments:
    """The operators of a march of ``n_steps`` steps over [0, T].

    Checkpoints sit at slice 0, at the terminal slice and at every multiple of
    ``spacing``, at most isqrt(n_steps) + 1 segments.  The step from slice k
    down to k - 1 uses Q(t) = E(t) Q E(t) at the midpoint time of the segment
    that holds it.  ``ops`` keeps each decomposition by its E, so a solve,
    its plan and its re-marches decompose every segment's extremes once."""

    def __init__(self, problem, axes, n_steps, ops):
        self.problem, self.axes, self.ops = problem, axes, ops
        self.n_steps, self.dt = n_steps, problem.T / n_steps
        self.spacing = -(-n_steps // (math.isqrt(n_steps) + 1))

    def flow(self, k) -> np.ndarray:
        """The diagonal of E(t) at t = k dt."""
        return self.problem.flow(k * self.dt)

    def at(self, flow):
        """(E, directions, weights, rate) of the extremes E Q E."""
        key = tuple(flow)
        if key not in self.ops:
            mats = self.problem.sigma.matrices * np.outer(flow, flow)
            dirs, weights = _decompose(mats, self.axes)
            self.ops[key] = flow, dirs, weights, float(np.max(np.sum(weights, axis=1)))
        return self.ops[key]

    def operator(self, k):
        """``at`` the midpoint of the segment of the step from slice k down."""
        lo = (k - 1) // self.spacing * self.spacing
        return self.at(self.flow((lo + min(lo + self.spacing, self.n_steps)) / 2))


def _plan(problem: PdeProblem, axes) -> tuple[_Segments, float]:
    """The segments of a solve and their largest rate, the centre weight per
    unit dt: n_steps starts from the terminal extremes' rate and grows until
    dt * rate <= ``CFL_SAFETY`` for the operator of every segment it makes."""
    ops = {}
    rate = _Segments(problem, axes, 1, ops).at(problem.flow(problem.T))[3]
    while True:
        n_steps = max(1, math.ceil(problem.T * rate / CFL_SAFETY))
        segments = _Segments(problem, axes, n_steps, ops)
        rate = max(segments.operator(lo + 1)[3] for lo in range(0, n_steps, segments.spacing))
        if math.ceil(problem.T * rate / CFL_SAFETY) <= n_steps:
            return segments, rate


def _march(segments, top, k_top, stop=0, sample=frozenset()):
    """The scheme's one backward loop: w_{k-1} = w_k + dt * G_k(D^2 w_k), from
    w_{k_top} = ``top`` down to w_stop, G_k the operator of the step's segment.

    A step whose operator differs from the last step's gets a new stencil,
    built once the last one is dropped.  Yields ``(k - 1, w_{k-1}, r_k)`` per
    step.  For k in ``sample`` (below k_top), r_k is the strong-form residual
    |w_t + G_{t_k}(D^2 w)| at slice k with the extremes Q(t_k) of t_k itself
    (``_Stencil.retimed``), centred in time and space, maximised over the
    interior nodes whose raw second difference stays within ten times the
    slice median (kinks are left out), and 0.0 where every node is a kink.
    Otherwise r_k is None.  The slices rotate through three buffers, so a
    yielded one is overwritten two steps later: a sampled step k takes
    |w_t + G| in the buffer of w_{k+1}, dead once w_t is formed.  Raises
    ValueError for an unstable step or a non-finite slice.
    """
    dt = segments.dt
    ring = np.empty((3, *top.shape))
    ring[k_top % 3] = top
    interior = (slice(1, -1),) * top.ndim
    _require_finite(top)
    op = None
    for k in range(k_top, stop, -1):
        if k == k_top or k % segments.spacing == 0:
            new = segments.operator(k)
            if new is not op:
                stencil = g = None  # one stencil alive at a time
                op = new
                stencil = _Stencil(segments.axes, op[1], op[2])
                if dt * stencil.rate > 1.0:
                    raise ValueError(f"unstable configuration: cfl_ratio {dt * stencil.rate} > 1")
        u, below = ring[k % 3], ring[(k - 1) % 3]
        g = stencil.g_of_hessian(u)
        np.multiply(g, dt, out=below)
        below += u
        _require_finite(below)
        r_k = None
        if k in sample:
            resid = ring[(k + 1) % 3]
            np.subtract(resid, below, out=resid)
            np.divide(resid, 2.0 * dt, out=resid)
            scale = segments.flow(k) / op[0]
            if np.any(scale != 1.0):
                g = stencil.retimed(scale)
            np.abs(np.add(resid, g, out=resid), out=resid)
            raw_jump = stencil.jumps()[interior]
            # the jumps are done with their scratch buffer, which holds the interior
            smooth = raw_jump <= 10.0 * _median(raw_jump, stencil._tmp)
            r_k = float(np.max(resid[interior], where=smooth, initial=0.0))
        yield k - 1, below, r_k


def _median(values: np.ndarray, scratch: np.ndarray) -> float:
    """``np.median(values)`` bit for bit, found by partitioning a copy in
    ``scratch`` (at least ``values.size`` long) at the middle index or two.
    np.median also places the largest value, to find a NaN; here one max
    does that."""
    part = scratch[:values.size]
    np.copyto(part.reshape(values.shape), values)
    half = values.size // 2
    part.partition([half - 1, half] if values.size % 2 == 0 else half)
    if np.isnan(part.max()):
        return math.nan
    return float(part[half]) if values.size % 2 else float((part[half - 1] + part[half]) / 2.0)


def _require_finite(u: np.ndarray) -> None:
    if not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ValueError("solution values must be finite everywhere")


def _solve(problem: PdeProblem, mesh_spec: MeshSpec) -> GridSolution:
    """Plan the segments, march once from the terminal data and keep the
    checkpoints and the sampled residual.  Besides them the march holds three
    slices and one stencil; the node coordinates are dropped once the
    terminal slice is made."""
    counts = mesh_spec.nodes_per_axis(problem.dim)
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(problem.domain_box, counts)]
    segments, rate = _plan(problem, axes)
    n_steps = segments.n_steps

    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    terminal = np.array(problem.terminal_f(points), dtype=float)
    del points
    if terminal.shape != counts:
        raise ValueError(
            f"terminal data must map (...,{problem.dim}) points to a {counts} grid, "
            f"got {terminal.shape}"
        )

    kept = {n_steps: terminal}
    # the residual needs 3 interior nodes per axis; it is measured at every
    # interior slice up to 41 steps, at 40 evenly spread ones beyond
    residual, sample = None, frozenset()
    if min(counts) >= 5:
        residual = 0.0
        sample = frozenset(np.linspace(1, n_steps - 1, 40).astype(int).tolist()
                           if n_steps > 41 else range(1, n_steps))
    for k, u, resid in _march(segments, terminal, n_steps, sample=sample):
        if k % segments.spacing == 0:
            kept[k] = u.copy()
        if resid is not None:
            residual = max(residual, resid)
    return GridSolution(segments, kept, segments.dt * rate, residual)


def solve_gheat(problem: PdeProblem, mesh_spec: MeshSpec = MeshSpec()) -> GridSolution:
    """Solve the pure-diffusion equation (zero transport generator)."""
    if problem.has_transport():
        raise ValueError("solve_gheat requires a zero transport generator")
    return _solve(problem, mesh_spec)


def solve_gpde(problem: PdeProblem, mesh_spec: MeshSpec = MeshSpec()) -> GridSolution:
    """Solve the full equation with diagonal nonpositive transport, in the
    mild frame; a zero generator runs the identical march as ``solve_gheat``.

    Raises StencilError when some segment's extremes Q(t) have no stencil.
    """
    return _solve(problem, mesh_spec)


def residual_check(solution: GridSolution, problem: PdeProblem) -> float:
    """Strong-form residual |w_t + G_t(D^2 w)| of the mild-frame value on
    smooth interior, with the extremes Q(t) of each sampled time: the frozen
    operator of its segment plus the change to Q(t) in centred differences.

    Centered differences in space and time on interior nodes; nodes whose raw
    second difference jumps above ten times the slice median are treated as
    kinks and excluded.
    Returns the maximum over the sampled interior slices (every one up to 41
    steps, 40 evenly spread beyond), which the solve measured as it marched.
    ``problem`` must have the extremes and the generator of the problem that
    was solved.
    """
    if any(ax.size < 5 for ax in solution.axes):
        raise ValueError("residual check needs >= 3 interior nodes per axis")
    segments = solution._segments
    if not (np.array_equal(problem.sigma.matrices, segments.problem.sigma.matrices)
            and np.array_equal(problem.generator_diag(), segments.problem.generator_diag())):
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
    """Mild-solution paths X_{k+1} = exp(dt A) (X_k + dB_k) from X_0 = x0,
    stored on [t0, T]: the walk of ``mc_values``, so a feedback policy reads
    the mild state (on a clock that starts at 0).  The states keep the
    semigroup identity that ``flow_property_discrepancy`` checks.
    """
    if not T > t0:
        raise ValueError(f"need T > t0, got t0={t0}, T={T}")
    return _stored(sigma, policy, n_paths, steps, T - t0, seed, as_point(x0, sigma.dim),
                   _generator_diag(a_gen, sigma.dim), t0)


def flow_property_discrepancy(
    bundle: PathBundle, a_gen, split_index: int
) -> float:
    """Max pathwise gap between the stored states and the semigroup identity
    X_k = exp((t_k - t_s) A) (X_s - I_s) + I_k for k >= s = ``split_index``,
    with I = ``convolution_path(a_gen, bundle)``, a fold apart from the walk:
    mild paths meet it to rounding, and states stepped any other way (say
    X_{k+1} = exp(dt A) X_k + dB_k) miss it.
    """
    diag = _generator_diag(a_gen, bundle.dim)
    if not 0 <= split_index < bundle.n_steps:
        raise ValueError("split index must be an interior grid index")
    conv = convolution_path(a_gen, bundle)[:, split_index:, :]
    states = bundle.states[:, split_index:, :]
    times = bundle.times[split_index:]
    flow = np.exp(np.outer(times - times[0], diag))
    restart = flow * (states[:, :1] - conv[:, :1]) + conv
    return float(np.max(np.abs(restart - states)))


def mc_values(
    problem: PdeProblem, probes, t0: float, control_spec: McControlSpec
) -> list[UpperEstimate]:
    """The Monte Carlo value at each probe, the supremum over policies of mean
    terminal payoff on the mild paths started there: one ``_policy_sup``
    estimate per probe (the value, the policy attaining it, its standard error
    and every member's entry), every member on the same driving noise.

    Each extreme Q walks with its exact step covariance per unit dt, Q~_ab =
    Q_ab (1 - exp(-(a_a + a_b) dt)) / ((a_a + a_b) dt) (Q_ab where a_a + a_b =
    0), so the left-point mild recursion x_{k+1} = exp(dt A) (x_k + dx_k)
    has the law of the OU step, int_0^dt e^{sA} Q e^{sA} ds, and every
    piecewise-constant control is exact in law.  A constant or time-table
    member's mild terminal state at a probe x0 is the convolution of its
    driving paths, which does not depend on x0, plus the flow term exp((T -
    t0) A) x0, so it walks once for all probes and its convolution is shifted
    per probe.  A feedback member's rule reads the mild state, which does
    depend on x0, so it walks once per probe, started there.  A NaN mean wins
    a probe's supremum (see ``control_sim._policy_sup``).
    """
    if not 0.0 <= t0 < problem.T:
        raise ValueError(f"t0 must lie in [0, T), got {t0}")
    sigma, steps = problem.sigma, control_spec.steps
    x0s = [as_point(x0, sigma.dim) for x0 in probes]
    diag, flow_T = problem.generator_diag(), problem.flow(t0)
    n_paths, T = control_spec.n_paths, problem.T - t0
    sums = np.add.outer(diag, diag) * (T / steps)
    inflation = np.divide(-np.expm1(-sums), sums, out=np.ones_like(sums),
                          where=sums != 0.0)
    step_sigma = CovarianceSet(sigma.matrices * inflation, label=sigma.label)

    def payoff(policy, walk):
        if policy.kind == "feedback":
            ends = (_terminal(walk(x0, diag)) for x0 in x0s)
        else:
            conv_T = _terminal(walk(0.0, diag))
            ends = (conv_T + flow_T * x0 for x0 in x0s)
        return (evaluate_rows(problem.terminal_f, x) for x in ends)

    return _policy_sup(step_sigma, control_spec.family, n_paths, steps, T,
                       control_spec.seed, payoff)
