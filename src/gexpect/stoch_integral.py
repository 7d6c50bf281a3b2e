"""Stochastic integration against controlled Gaussian paths.

Elementary integrands are piecewise constant over a partition, with blocks
that are either deterministic operator matrices or adapted per-path values
produced by a rule seeing only the state at the block's left endpoint.
Integration is the telescoping block sum; the module verifies the isometry
and moment inequalities empirically, computes the covariance set of
integrals with nonrandom integrands by quadrature, checks the finite-measure
integral interchange pathwise, and evaluates semigroup convolutions.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .covariance_set import CovarianceSet
from .control_sim import FOLD_ELEMENTS, PathBundle, _policy_sup, _replay
from .g_normal import MC_Z
from .operator_core import _square, _symmetric

__all__ = [
    "BDG_CONSTANTS",
    "ElementaryProcess",
    "IntegralResult",
    "BdgCheck",
    "FubiniCheck",
    "ConvolutionCondition",
    "integrate_elementary",
    "ito_isometry_check",
    "bdg_check",
    "sigma_of_integral",
    "fubini_check",
    "convolution_path",
    "convolution_condition",
]

# Moment-inequality constants, certified on the deterministic battery: for a
# Gaussian integral the p-th moment ratio is bounded by 1 (p in {1, 2}) and by
# the Gaussian fourth-moment factor 3 (p = 4).  An implementation certificate,
# not a quoted value; adapted-integrand tests use p = 2 only.
BDG_CONSTANTS = {1: 1.0, 2: 1.0, 4: 3.0}
FUBINI_TOL = 1e-10  # largest pathwise rounding difference that fubini_check accepts


class ElementaryProcess:
    """Piecewise-constant operator-valued integrand over a partition.

    Deterministic form: ``blocks[k]`` is the (m, N) operator on
    ``[t_k, t_{k+1})``.  Adapted form: ``block_rule(t_k, states_k)`` returns
    the block for that interval, either one (m, N) matrix or per-path
    (n_paths, m, N) values; it only ever receives the state at t_k, which is
    what makes the integrand adapted.
    """

    __slots__ = ("partition", "blocks", "block_rule", "out_dim", "in_dim")

    def __init__(self, partition, blocks=None, block_rule=None, out_dim=None, in_dim=None):
        part = np.asarray(partition, dtype=float)
        if part.ndim != 1 or part.size < 2 or np.any(np.diff(part) <= 0.0):
            raise ValueError("partition must be strictly increasing with >= 2 points")
        if (blocks is None) == (block_rule is None):
            raise ValueError("provide exactly one of blocks / block_rule")
        if blocks is not None:
            stack = np.stack([np.asarray(b, dtype=float) for b in blocks])
            if stack.ndim != 3 or stack.shape[0] != part.size - 1:
                raise ValueError(
                    f"need one block per interval: {part.size - 1}, got {stack.shape}"
                )
            out_dim, in_dim = stack.shape[1], stack.shape[2]
            stack.flags.writeable = False
            object.__setattr__(self, "blocks", stack)
        else:
            if out_dim is None or in_dim is None:
                raise ValueError("adapted form requires out_dim and in_dim")
            object.__setattr__(self, "blocks", None)
        part.flags.writeable = False
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "block_rule", block_rule)
        object.__setattr__(self, "out_dim", int(out_dim))
        object.__setattr__(self, "in_dim", int(in_dim))

    def __setattr__(self, name, value):
        raise AttributeError("ElementaryProcess is immutable")

    @classmethod
    def deterministic(cls, partition, blocks) -> "ElementaryProcess":
        return cls(partition, blocks=blocks)

    @classmethod
    def adapted(cls, partition, rule, out_dim, in_dim) -> "ElementaryProcess":
        return cls(partition, block_rule=rule, out_dim=out_dim, in_dim=in_dim)

    @property
    def n_blocks(self) -> int:
        return self.partition.size - 1

    def block_values(self, k: int, t: float, states_k: np.ndarray) -> np.ndarray:
        """Block for interval k, normalized to (m, N) or (n_paths, m, N)."""
        if self.blocks is not None:
            return self.blocks[k]
        val = np.asarray(self.block_rule(t, states_k), dtype=float)
        if val.shape == (self.out_dim, self.in_dim):
            return val
        if val.shape == (states_k.shape[0], self.out_dim, self.in_dim):
            return val
        raise ValueError(
            f"block rule returned shape {val.shape}, expected "
            f"{(self.out_dim, self.in_dim)} or per-path values"
        )


class IntegralResult(NamedTuple):
    values: np.ndarray
    n_paths: int
    integrand_sq_paths: np.ndarray


class BdgCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool
    cp_estimate: float
    stderr: float


class FubiniCheck(NamedTuple):
    diff_norm: float
    ok: bool


class ConvolutionCondition(NamedTuple):
    value: float
    finite: bool
    coarse: float
    tolerance: float


def _l2sigma_sq_per_path(block, roots: np.ndarray) -> np.ndarray | float:
    """sup over extremes of ||block sqrt(Q)||_F^2, per path if block is.

    A per-path (n, m, N) block takes one GEMM per root over its n * m rows.
    """
    if block.ndim == 2:
        prod = np.einsum("ij,qjk->qik", block, roots)
        return float(np.max(np.sum(prod * prod, axis=(1, 2))))
    rows = block.reshape(-1, block.shape[-1])
    per = [_row_sums((rows @ g).reshape(len(block), -1) ** 2) for g in roots]
    return np.max(per, axis=0)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=1)`` of an (n, L) array, bit for bit.

    numpy adds a row of fewer than eight values left to right, one short
    reduction per row; the same additions run here a column at a time.
    """
    if a.shape[1] >= 8:
        return np.sum(a, axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def integrate_elementary(phi: ElementaryProcess, paths: PathBundle) -> IntegralResult:
    """Blockwise integral sum Phi_k (B_{t_{k+1}} - B_{t_k}) per path.

    The partition must be a subset of the bundle's time grid.  Also returns,
    per path, the isometry right-hand quantity (time integral of the squared
    integrand norm).  Replays the paths through the fold of a streamed walk.
    """
    return _integrate(phi, paths.sigma, paths.times, _replay(paths))


def _integrate(phi, sigma, times, stream) -> IntegralResult:
    """``integrate_elementary`` folded over a path stream on the grid ``times``.

    A left state is copied only for a block of several steps: walks reuse it.
    ``values`` takes its rows from the first block's product, added to in
    place after, and while every block is deterministic the isometry quantity
    is one number, spread over the paths at the end.
    """
    if phi.in_dim != sigma.dim:
        raise ValueError(
            f"integrand acts on dim {phi.in_dim}, paths live in dim {sigma.dim}"
        )
    idx = np.clip(np.searchsorted(times, phi.partition), 0, times.size - 1)
    if np.any(np.abs(times[idx] - phi.partition) > 1e-12):
        raise ValueError("integrand partition is not a subset of the path grid")
    values = integrand_acc = 0.0
    k = 0
    for step, _, x, _, x_next in stream:
        if step == idx[k]:
            left = x if idx[k + 1] == step + 1 else x.copy()
        if step + 1 < idx[k + 1]:
            continue
        dt_k = phi.partition[k + 1] - phi.partition[k]
        block = phi.block_values(k, phi.partition[k], left)
        if block.ndim == 2:
            # C-contiguous block^T: matmul leaves BLAS for a transposed operand
            values += (x_next - left) @ np.ascontiguousarray(block.T)
        else:
            values += np.einsum("nij,nj->ni", block, x_next - left)
        integrand_acc = integrand_acc + dt_k * _l2sigma_sq_per_path(block, sigma.roots)
        k += 1
        if k == phi.n_blocks:
            break
    if np.ndim(integrand_acc) == 0:
        integrand_acc = np.full(len(values), integrand_acc)
    return IntegralResult(values, len(values), integrand_acc)


def _uniform_grid_of(phi: ElementaryProcess) -> tuple[float, int]:
    diffs = np.diff(phi.partition)
    if phi.partition[0] != 0.0 or not np.allclose(diffs, diffs[0], rtol=1e-12):
        raise ValueError("inequality checks need a uniform partition from 0")
    return float(phi.partition[-1]), phi.n_blocks


def ito_isometry_check(
    phi: ElementaryProcess,
    sigma: CovarianceSet,
    policies,
    n_paths: int,
    seed: int,
) -> BdgCheck:
    """Empirical second-moment (isometry) inequality for the elementary
    integral: ``bdg_check`` at p = 2, whose constant is one."""
    return bdg_check(phi, sigma, 2, policies, n_paths, seed)


def bdg_check(
    phi: ElementaryProcess,
    sigma: CovarianceSet,
    p: float,
    policies,
    n_paths: int,
    seed: int,
) -> BdgCheck:
    """p-th moment inequality with the certified constant table.

    lhs is the policy supremum of mean ||I||^p, rhs that of mean (int
    ||Phi||^2 dt)^(p/2), on common random numbers; ``stderr`` belongs to the
    lhs winner.  Supported p: 1, 2, 4 (p = 2 is the isometry check, constant
    one).  ``cp_estimate`` is lhs/rhs (zero when rhs vanishes); ok allows
    ``MC_Z`` standard errors on the lhs.
    """
    p = float(p)
    if p not in (1.0, 2.0, 4.0):
        raise ValueError(f"supported p values are 1, 2, 4; got {p}")
    c_p = BDG_CONSTANTS[int(p)]
    T, steps = _uniform_grid_of(phi)

    def payoff(policy, walk):
        res = _integrate(phi, sigma, phi.partition, walk())
        return (np.sum(res.values**2, axis=1) ** (p / 2.0),
                res.integrand_sq_paths ** (p / 2.0))

    moment, norm = _policy_sup(sigma, policies, n_paths, steps, T, seed, payoff)
    lhs, rhs, se = moment.value, norm.value, moment.stderr
    cp_estimate = lhs / rhs if rhs > 0.0 else 0.0
    return BdgCheck(lhs, rhs, bool(lhs <= c_p * rhs + MC_Z * se), cp_estimate, se)


def sigma_of_integral(
    phi_fn: Callable, sigma: CovarianceSet, T: float, quad_steps: int
) -> CovarianceSet:
    """Covariance set of the integral of a nonrandom integrand: its ``_integrals``."""
    return CovarianceSet(_integrals(phi_fn, sigma, T, quad_steps), f"integral({sigma.label})")


def _integrals(phi_fn: Callable, sigma: CovarianceSet, T: float, quad_steps: int):
    """Per extreme Q, in order, the composite-midpoint quadrature of Phi(t) Q Phi(t)^T
    over [0, T] (midpoint keeps it PSD), symmetrized against rounding drift; its
    terms are formed ``FOLD_ELEMENTS`` values at a time and summed in midpoint order."""
    if quad_steps < 1:
        raise ValueError(f"quad_steps must be >= 1, got {quad_steps}")
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    dt = T / quad_steps
    mids = (np.arange(quad_steps) + 0.5) * dt
    phis = np.array([np.asarray(phi_fn(t), dtype=float) for t in mids])
    rows = max(1, FOLD_ELEMENTS // (phis.shape[1] * max(phis.shape[1:])))
    out = []
    for q in sigma.matrices:
        acc = np.zeros((1, phis.shape[1], phis.shape[1]))
        for start in range(0, quad_steps, rows):
            part = phis[start:start + rows]
            terms = part @ q @ np.swapaxes(part, 1, 2)
            acc = np.cumsum(np.concatenate([acc, terms]), axis=0)[-1:]
        acc = acc[0] * dt
        out.append((acc + acc.T) / 2.0)
    return out


def fubini_check(
    phis: Sequence[ElementaryProcess], weights: Sequence[float], paths: PathBundle
) -> FubiniCheck:
    """Pathwise interchange of a finite weighted sum and the integral.

    Left side integrates each member then combines with the weights; right
    side integrates the weight-combined integrand.  Exact reassociation of a
    finite sum, so the difference must vanish to rounding (``FUBINI_TOL``).
    """
    phis = list(phis)
    w = [float(x) for x in weights]
    if len(phis) != len(w) or not phis:
        raise ValueError("need matching nonempty integrands and weights")
    base = phis[0].partition
    for p in phis[1:]:
        if p.partition.shape != base.shape or np.any(p.partition != base):
            raise ValueError("all integrands must share one partition")

    lhs = np.zeros((paths.n_paths, phis[0].out_dim))
    for weight, phi in zip(w, phis):
        lhs += weight * integrate_elementary(phi, paths).values

    def combined(t, states):
        k = int(np.searchsorted(base, t))
        total = None
        for weight, phi in zip(w, phis):
            term = weight * phi.block_values(k, t, states)
            total = term if total is None else total + term
        return total

    rhs = integrate_elementary(
        ElementaryProcess.adapted(base, combined, phis[0].out_dim, phis[0].in_dim), paths
    ).values
    diff = float(np.max(np.linalg.norm(lhs - rhs, axis=1))) if lhs.size else 0.0
    return FubiniCheck(diff, bool(diff <= FUBINI_TOL))


def _generator_diag(a_gen, dim: int) -> np.ndarray:
    """Spectrum of a diagonal nonpositive generator; None is the zero generator."""
    if a_gen is None:
        return np.zeros(dim)
    gen = _symmetric(_square(a_gen)[None])[0]
    if len(gen) != dim:
        raise ValueError(f"generator dim {len(gen)} != problem dim {dim}")
    diag = np.diag(gen)
    if np.abs(gen - np.diag(diag)).max() > 1e-12:
        raise ValueError("generator must be diagonal in the truncation basis")
    if np.any(diag > 1e-12):
        raise ValueError("generator spectrum must be nonpositive")
    # entries within the tolerance above 0 are 0: no flow away from the origin
    return np.minimum(diag, 0.0)


def convolution_path(a_gen, paths: PathBundle, substeps: int = 1) -> np.ndarray:
    """Semigroup convolution integral of the paths on a coarsened grid.

    Left-point elementary approximation on the bundle's (fine) grid: the
    stored increments folded by the mild recursion I_{k+1} = exp(dt A) (I_k +
    dB_k) from I_0 = 0, the step that ``control_sim._walk`` takes given the
    rates of A, so a walk from 0 with those rates yields these values bitwise.
    Values are returned on every ``substeps``-th grid time as an
    (n_paths, n_coarse + 1, N) view of time-major storage.  A zero generator
    returns the paths of a bundle started at 0 exactly.
    """
    diag = _generator_diag(a_gen, paths.dim)
    if substeps < 1 or paths.n_steps % substeps != 0:
        raise ValueError(
            f"substeps={substeps} does not divide the {paths.n_steps}-step grid"
        )
    decay = np.exp(float(paths.times[1] - paths.times[0]) * diag)
    out = np.zeros((paths.n_steps // substeps + 1, paths.n_paths, paths.dim))
    current = np.zeros((paths.n_paths, paths.dim))
    for k, dx in enumerate(paths.increments.transpose(1, 0, 2), 1):
        current += dx
        current *= decay
        if k % substeps == 0:
            out[k // substeps] = current
    return out.transpose(1, 0, 2)


def convolution_condition(
    a_gen, sigma: CovarianceSet, beta: float, T: float, quad_steps: int
) -> ConvolutionCondition:
    """Weighted integrability of the semigroup's squared integrand norm.

    Computes the integral of ||exp(tA)||^2 (in the set norm) times t^(-beta)
    over (0, T] with a graded substitution t = T u^(1/(1-beta)) that absorbs
    the endpoint singularity.  ``value`` takes twice the nodes of ``coarse``;
    ``finite`` reports |value - coarse| <= ``tolerance``, 1e-4 of |value|.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if quad_steps < 1:
        raise ValueError(f"quad_steps must be >= 1, got {quad_steps}")
    diag = _generator_diag(a_gen, sigma.dim)
    diags_q = np.stack([np.diag(q) for q in sigma.matrices])

    def integral(m: int) -> float:
        u = (np.arange(m) + 0.5) / m
        t = T * u ** (1.0 / (1.0 - beta))
        # sup_Q sum_d exp(2 lambda_d t) Q_dd, times the substitution factor
        weights = np.exp(2.0 * np.outer(t, diag))
        norm_sq = np.max(weights @ diags_q.T, axis=1)
        return float(np.sum(norm_sq) / m * T ** (1.0 - beta) / (1.0 - beta))

    coarse = integral(quad_steps)
    fine = integral(2 * quad_steps)
    tol = 1e-4 * max(abs(fine), 1e-12)
    return ConvolutionCondition(fine, abs(fine - coarse) <= tol, coarse, tol)

