"""The three benchmark workloads.

Each workload is built from the seed alone: the constructor generates every
input (config files, problems, random matrices) and a pass then runs a fixed
list of items through the public ``gexpect`` API and checks each output.
A pass returns a ``Checks`` tally; a failed check or an exception counts as
one failed check and the pass goes on.

- ``configs`` runs the ten shipped ``configs/*.json`` through
  ``experiment_cli.run`` with seeds derived from the benchmark seed: the
  real user path, dominated by big-batch Monte Carlo.
- ``pde_grid`` solves terminal-value problems in 1, 2 and 3 dimensions and
  checks them against closed forms and ``lattice_1d``; no Monte Carlo.
- ``small_calls`` makes thousands of small calls into the same layers, where
  per-call overhead (operator construction, validation) shows.

Functions are imported by name on purpose: the traced run must then replace
these bindings too, which its self-test checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

from gexpect.control_sim import ControlPolicy, PolicyFamily, lattice_1d, simulate_gbm
from gexpect.covariance_set import (
    CovarianceSet,
    covset_conjugate,
    covset_contains,
    covset_scale,
    covset_sum,
    g_eval,
    l2sigma_norm,
)
from gexpect.experiment_cli import run as run_experiment
from gexpect.g_normal import (
    GNormal,
    VolatilityBand,
    moment_bounds_check,
    split_seed,
    static_upper_expectation,
)
from gexpect.g_pde import MeshSpec, PdeProblem, residual_check, solve_gheat, solve_gpde
from gexpect.stoch_integral import (
    ElementaryProcess,
    bdg_check,
    fubini_check,
    ito_isometry_check,
    sigma_of_integral,
)

# Pinned tolerances, the same as the acceptance battery's.
C_DISC = 10.0  # discretization: C (h^2 + dt)
EXACT_TOL = 1e-12
LAW_TOL = 1e-9


class Checks:
    """Tally of checks attempted and failed in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.digest = hashlib.sha256()

    def expect(self, name, ok, *values):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        self.digest.update(repr((name, bool(ok)) + tuple(values)).encode())

    def guard(self, name, fn, *args):
        """Run ``fn(*args)``; an exception counts as one failed check."""
        try:
            fn(*args)
        except Exception as exc:  # a raising item must not abort the pass
            self.attempted += 1
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            self.digest.update(repr((name, type(exc).__name__)).encode())


def _derived_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _within(got, want, tol):
    return abs(got - want) <= tol


# -- configs -------------------------------------------------------------------


class Configs:
    """All shipped experiment configs through ``experiment_cli.run``."""

    def __init__(self, seed, root: Path, work: Path):
        sources = sorted((root / "configs").glob("*.json"))
        if len(sources) != 10:
            raise FileNotFoundError(f"expected 10 configs in {root / 'configs'}")
        (work / "configs").mkdir(parents=True, exist_ok=True)
        self.out_dir = work / "out"
        self.paths = []
        for i, src in enumerate(sources):
            doc = json.loads(src.read_text())
            doc["seed"] = _derived_seed(seed, i)
            doc["output_dir"] = str(self.out_dir / src.stem)
            dest = work / "configs" / src.name
            dest.write_text(json.dumps(doc, indent=2))
            self.paths.append(dest)

    def run_pass(self, checks: Checks):
        for path in self.paths:
            checks.guard(path.stem, self.run_one, checks, path)

    def run_one(self, checks, path):
        report, _ = run_experiment(path, threads=1)
        records = report["records"]
        checks.expect(f"{path.stem}.has-records", bool(records))
        for rec in records:
            checks.expect(f"{path.stem}.{rec['name']}", rec["ok"], rec["lhs"], rec["rhs"])

    def traced_peaks_mb(self, checks):
        """tracemalloc peak of each config run, in MiB; slows the runs."""
        peaks = {}
        for path in self.paths:
            tracemalloc.start()
            try:
                checks.guard(path.stem, self.run_one, checks, path)
                peaks[path.stem] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks

    def artifact_bytes(self):
        """Bytes of the artifacts written; report.json is left out because its
        timings change its length from run to run."""
        return sum(
            f.stat().st_size
            for f in self.out_dir.glob("*/*")
            if f.name != "report.json"
        )


# -- pde_grid ------------------------------------------------------------------


def _random_psd(rng, n, radius):
    """Correlated PSD matrix scaled to the given spectral radius."""
    raw = rng.standard_normal((n, n))
    q = raw @ raw.T + 0.2 * np.eye(n)
    return q * (radius / np.linalg.eigvalsh(q)[-1])


def _quadratic_offset(extremes, coeffs, rates, T, nodes=20_000):
    """c(0) for u = sum_i m_i(t) x_i^2 + c(t) under diagonal transport.

    m_i(s) = coeffs_i exp(2 rates_i (T - s)), c(0) = int_0^T max_Q sum_i
    m_i(s) Q_ii ds, by midpoint quadrature (error far below the pinned
    discretization tolerance).
    """
    s = (np.arange(nodes) + 0.5) * (T / nodes)
    m = coeffs[None, :] * np.exp(2.0 * rates[None, :] * (T - s)[:, None])
    diags = np.stack([np.diag(q) for q in extremes])
    return float(np.sum(np.max(m @ diags.T, axis=1)) * (T / nodes))


def _heat_item(rng, dim, nodes, T):
    """Correlated G-heat with an indefinite quadratic: u = f + (T - t) G(2B)."""
    sigma = CovarianceSet([_random_psd(rng, dim, 1.3) for _ in range(3)], label="corr")
    raw = rng.uniform(-0.5, 0.5, size=(dim, dim))
    b = (raw + raw.T) / 2.0
    offset = T * float(np.max(np.einsum("ij,qji->q", b, sigma.matrices)))
    problem = PdeProblem(dim, sigma, lambda p: np.einsum("...i,ij,...j->...", p, b, p),
                         T, ((-2.0, 2.0),) * dim)
    return (f"d{dim}-corr-heat", problem, MeshSpec(nodes=nodes),
            rng.uniform(-0.5, 0.5, size=(4, dim)), lambda x: float(x @ b @ x) + offset)


def _transport_item(rng, dim, nodes, T):
    """Correlated set, diagonal transport, u = sum_i m_i(t) x_i^2 + c(t)."""
    sigma = CovarianceSet([_random_psd(rng, dim, 1.3) for _ in range(3)], label="corr")
    rates = -0.5 * np.arange(1, dim + 1)
    coeffs = rng.uniform(0.2, 0.6, size=dim)
    offset = _quadratic_offset(sigma.matrices, coeffs, rates, T)
    m0 = coeffs * np.exp(2.0 * rates * T)
    problem = PdeProblem(dim, sigma, lambda p: (p**2) @ coeffs, T, ((-2.0, 2.0),) * dim,
                         a_gen=np.diag(rates))
    return (f"d{dim}-corr-ou", problem, MeshSpec(nodes=nodes),
            rng.uniform(-0.5, 0.5, size=(4, dim)), lambda x: float((x**2) @ m0) + offset)


class PdeGrid:
    """Monotone-scheme solves in 1, 2 and 3 dimensions with exact references."""

    T = 0.5

    def __init__(self, seed, root: Path, work: Path):
        rng = np.random.default_rng(seed)
        T = self.T
        band = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
        self.items = []

        # 1-d G-heat with a kink, against the trinomial lattice
        kink = PdeProblem(1, band, lambda p: np.abs(p[..., 0]), T, ((-3.0, 3.0),))
        self.items.append(("d1-abs-lattice", kink, MeshSpec(nodes=241),
                           rng.uniform(-0.6, 0.6, size=3), "lattice"))

        # 1-d transported (scalar OU) against the closed form
        lam = 0.8
        ou = PdeProblem(1, band, lambda p: p[..., 0] ** 2, T, ((-3.0, 3.0),),
                        a_gen=np.array([[-lam]]))
        decay = math.exp(-2.0 * lam * T)
        ou_ref = lambda x, decay=decay: decay * x[0] ** 2 + (1.0 - decay) / (2.0 * lam)
        self.items.append(("d1-ou-closed", ou, MeshSpec(nodes=241),
                           rng.uniform(-0.5, 0.5, size=(3, 1)), ou_ref))

        for dim, nodes in ((2, 81), (3, 41)):
            self.items.append(_heat_item(rng, dim, nodes, T))
            self.items.append(_transport_item(rng, dim, nodes, T))

    def run_pass(self, checks: Checks):
        for item in self.items:
            checks.guard(item[0], self._one, checks, *item)

    @staticmethod
    def _one(checks, name, problem, mesh, probes, reference):
        solve = solve_gpde if problem.has_transport() else solve_gheat
        sol = solve(problem, mesh)
        h = max(ax[1] - ax[0] for ax in sol.axes)
        tol = C_DISC * (h**2 + sol.dt)
        for i, x in enumerate(probes):
            got = sol.value_at(0.0, x)
            if reference == "lattice":
                steps = 800
                band = VolatilityBand(1.0, 0.25)
                want = lattice_1d(band, np.abs, float(x), PdeGrid.T, steps)
                ok = _within(got, want, tol + 6.0 / steps)
            else:
                want = reference(np.atleast_1d(x))
                ok = _within(got, want, tol)
            checks.expect(f"{name}.probe-{i}", ok, got, want)
        # Strong-form residual on the smooth interior, which reaches the nodes
        # next to the box edge.  The linear-extrapolation ghosts and the
        # upwind transport are first order in h, so the bound is C (h + dt).
        resid = residual_check(sol, problem)
        checks.expect(f"{name}.residual", resid <= C_DISC * (h + sol.dt), resid)


# -- small_calls ---------------------------------------------------------------


class SmallCalls:
    """Many small calls: law battery, set algebra, integral checks."""

    LAW_CASES = 200
    LAW_DRAWS = 2000
    ALGEBRA_CASES = 882  # fourteen periods of the size pattern below
    ISOMETRY_TRIALS = 24

    def __init__(self, seed, root: Path, work: Path):
        rng = np.random.default_rng(seed)
        self.law_sigma = CovarianceSet(
            [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)], label="corr-2d"
        )
        self.law_cases = [
            (rng.standard_normal(5), float(rng.uniform(0.0, 4.0)), split_seed(seed, case))
            for case in range(self.LAW_CASES)
        ]
        self.algebra = []
        # sizes cycle over a fixed pattern, so every seed does the same work
        for case in range(self.ALGEBRA_CASES):
            n, k1, k2 = 2 + case % 7, 1 + case % 3, 1 + (case // 3) % 3
            q1 = [_random_psd(rng, n, rng.uniform(0.5, 2.0)) for _ in range(k1)]
            q2 = [_random_psd(rng, n, rng.uniform(0.5, 2.0)) for _ in range(k2)]
            raw = rng.standard_normal((n, n))
            self.algebra.append({
                "q1": q1, "q2": q2,
                "a": (raw + raw.T) / 2.0,
                "s": rng.standard_normal((n, n)),
                "phi": rng.standard_normal((1 + case % n, n)),
                "scale": float(rng.uniform(0.2, 3.0)),
                "weights": rng.dirichlet(np.ones(k1)),
                "contains_seed": int(rng.integers(2**31)),
            })
        self.band = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
        self.nested = CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="nested-2d")
        self.isometry = [
            (rng.uniform(0.5, 2.0, size=2), split_seed(seed, 10_000 + t))
            for t in range(self.ISOMETRY_TRIALS)
        ]
        self.bdg_blocks = [rng.standard_normal((2, 2)) for _ in range(4)]
        self.bdg_seed = split_seed(seed, 20_000)
        self.sigma_rates = -rng.uniform(0.3, 1.5, size=2)
        self.fubini_blocks = [
            [rng.standard_normal((2, 2)) for _ in range(10)] for _ in range(3)
        ]
        self.fubini_seed = split_seed(seed, 30_000)

    def run_pass(self, checks: Checks):
        checks.guard("laws", self._laws, checks)
        for i, case in enumerate(self.algebra):
            checks.guard(f"algebra-{i}", self._algebra, checks, i, case)
        checks.guard("isometry", self._isometry, checks)
        checks.guard("bdg", self._bdg, checks)
        checks.guard("sigma-of-integral", self._sigma_of_integral, checks)
        checks.guard("fubini", self._fubini, checks)

    def _laws(self, checks):
        """Five sublinear-expectation laws under common random numbers."""
        gn = GNormal(self.law_sigma)
        n = self.LAW_DRAWS
        for case, (c, lam, seed) in enumerate(self.law_cases):
            f = lambda x, c=c: c[0] * x[:, 0] + c[1] * x[:, 1] ** 2 + c[2]
            g = lambda x, c=c: c[3] * x[:, 0] * x[:, 1] + c[4]
            vf = static_upper_expectation(gn, f, n, seed)
            vg = static_upper_expectation(gn, g, n, seed)
            f_up = lambda x, f=f: f(x) + 0.25 + 0.5 * x[:, 0] ** 2
            v_up = static_upper_expectation(gn, f_up, n, seed)
            checks.expect(f"law-{case}.monotone", v_up >= vf - EXACT_TOL, v_up, vf)
            v_sum = static_upper_expectation(gn, lambda x: f(x) + g(x), n, seed)
            checks.expect(f"law-{case}.subadditive", v_sum <= vf + vg + LAW_TOL, v_sum)
            v_lam = static_upper_expectation(gn, lambda x: lam * f(x), n, seed)
            checks.expect(f"law-{case}.homogeneous",
                          _within(v_lam, lam * vf, LAW_TOL * (1.0 + abs(vf))), v_lam)
            const = float(c[2])
            v_const = static_upper_expectation(
                gn, lambda x: np.full(x.shape[0], const), n, seed
            )
            checks.expect(f"law-{case}.constant",
                          _within(v_const, const, EXACT_TOL * (1.0 + abs(const))), v_const)
            v_fg = static_upper_expectation(gn, lambda x: f(x) * g(x), n, seed)
            v_f2 = static_upper_expectation(gn, lambda x: f(x) ** 2, n, seed)
            v_g2 = static_upper_expectation(gn, lambda x: g(x) ** 2, n, seed)
            checks.expect(f"law-{case}.cauchy-schwarz",
                          v_fg <= math.sqrt(max(v_f2, 0.0) * max(v_g2, 0.0)) + LAW_TOL, v_fg)

    def _algebra(self, checks, i, case):
        """Set algebra identities, exact up to rounding, and hull membership."""
        s1 = CovarianceSet(case["q1"], label="s1")
        s2 = CovarianceSet(case["q2"], label="s2")
        a, s, phi = case["a"], case["s"], case["phi"]
        rel = lambda v: LAW_TOL * (1.0 + abs(v))

        g1, g2 = g_eval(s1, a), g_eval(s2, a)
        g_sum = g_eval(covset_sum(s1, s2), a)
        checks.expect(f"algebra-{i}.sum", _within(g_sum, g1 + g2, rel(g1 + g2)), g_sum)
        scale = case["scale"]
        g_scaled = g_eval(covset_scale(s1, scale), a)
        checks.expect(f"algebra-{i}.scale",
                      _within(g_scaled, scale**2 * g1, rel(scale**2 * g1)), g_scaled)
        g_conj = g_eval(covset_conjugate(s1, s), a)
        g_pull = g_eval(s1, s.T @ a @ s)
        checks.expect(f"algebra-{i}.conjugate", _within(g_conj, g_pull, rel(g_pull)), g_conj)
        norm = l2sigma_norm(phi, s1)
        g_phi = 2.0 * g_eval(s1, phi.T @ phi)
        checks.expect(f"algebra-{i}.l2sigma", _within(norm**2, g_phi, rel(g_phi)), norm)

        inside = sum(w * q for w, q in zip(case["weights"], s1.matrices))
        widest = max(s1.matrices, key=np.trace)
        seed = case["contains_seed"]
        checks.expect(f"algebra-{i}.contains-inside",
                      covset_contains(s1, inside, seed=seed))
        checks.expect(f"algebra-{i}.contains-outside",
                      not covset_contains(s1, 1.5 * widest, seed=seed))
        gn = GNormal(s1)
        for m in (1, 2, 3):
            checks.expect(f"algebra-{i}.moments-m{m}", moment_bounds_check(gn, m).ok)

    def _isometry(self, checks):
        """Isometry inequality for adapted integrands under the policy supremum."""
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        part = np.linspace(0.0, 1.0, 9)
        for trial, (c, seed) in enumerate(self.isometry):
            sigma = self.band if trial % 2 == 0 else self.nested
            dim = sigma.dim

            def rule(t, states, c=c, dim=dim):
                scale = c[0] + c[1] * np.tanh(states[:, 0])
                return scale[:, None, None] * np.eye(dim)[None]

            phi = ElementaryProcess.adapted(part, rule, out_dim=dim, in_dim=dim)
            chk = ito_isometry_check(phi, sigma, family, 3000, seed)
            checks.expect(f"isometry-{trial}", chk.ok, chk.lhs, chk.rhs)

    def _bdg(self, checks):
        phi = ElementaryProcess.deterministic(np.linspace(0.0, 1.0, 5), self.bdg_blocks)
        for p in (1, 2, 4):
            chk = bdg_check(phi, self.nested, p, PolicyFamily(), 3000, self.bdg_seed + p)
            checks.expect(f"bdg-p{p}", chk.ok, chk.lhs, chk.rhs)

    def _sigma_of_integral(self, checks):
        """Quadrature of a semigroup integrand against its closed form (1e-6)."""
        rates, T = self.sigma_rates, 1.0
        phi_fn = lambda t: np.diag(np.exp((T - t) * rates))
        got = sigma_of_integral(phi_fn, self.nested, T, 2000)
        total = rates[:, None] + rates[None, :]
        factors = (np.exp(total * T) - 1.0) / total
        for i, q in enumerate(self.nested.matrices):
            closed = q * factors
            diff = float(np.linalg.norm(got.matrices[i] - closed))
            scale = max(1.0, float(np.linalg.norm(closed)))
            checks.expect(f"sigma-of-integral-{i}", diff <= 1e-6 * scale, diff)

    def _fubini(self, checks):
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])], label="diag-2d")
        bundle = simulate_gbm(sigma, ControlPolicy.constant(0), 200, 10, 1.0,
                              self.fubini_seed)
        phis = [ElementaryProcess.deterministic(bundle.times, blocks)
                for blocks in self.fubini_blocks]
        chk = fubini_check(phis, [0.2, 0.3, 0.5], bundle)
        checks.expect("fubini", chk.ok, chk.diff_norm)


WORKLOADS = {"configs": Configs, "pde_grid": PdeGrid, "small_calls": SmallCalls}


def warm_up():
    """Tiny calls into every layer, so lazy set-up is not timed in a pass."""
    sigma = CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="warm-up")
    simulate_gbm(sigma, ControlPolicy.constant(0), 8, 2, 1.0, 0)
    static_upper_expectation(GNormal(sigma), lambda x: x[:, 0], 8, 0)
    covset_contains(sigma, 0.5 * np.eye(2))
    band = CovarianceSet([[[1.0]], [[0.25]]])
    sol = solve_gheat(PdeProblem(1, band, lambda p: p[..., 0] ** 2, 0.1, ((-1.0, 1.0),)),
                      MeshSpec(nodes=11))
    sol.value_at(0.0, [0.0])
