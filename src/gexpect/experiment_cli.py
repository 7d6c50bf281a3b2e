"""Reproducible experiment runner.

``gexpect run config.json`` executes one named experiment deterministically
for the configured seed and writes a JSON report plus CSV artifacts;
``gexpect plot report.json --series NAME`` flattens a recorded series to
plot-ready CSV.  Exit codes: 0 all checks pass, 1 a check failed (report
still written), 2 usage error.  The runner only formats numbers produced by
the library modules; every record and artifact goes through one sink,
``_Report``.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .covariance_set import CovarianceSet, _count, _reject_constant, covset_scale
from .control_sim import (
    ControlPolicy,
    McControlSpec,
    PolicyFamily,
    _policy_sup,
    _walk,
    estimate_upper_expectation,
    lattice_1d,
    nested_expectation,
    simulate_gbm,
)
from .g_normal import (
    MC_Z,
    MOMENT_CONSTANT_MAX_ORDER,
    MOMENT_SLACK,
    GNormal,
    moment_bounds_check,
    moment_constant,
    moment_upper,
    project_band,
    sample_gaussian,
    split_seed,
    static_upper_report,
)
from .g_pde import (
    MeshSpec,
    PdeProblem,
    StencilError,
    flow_property_discrepancy,
    mc_values,
    ou_mild_path,
    solve_gheat,
    solve_gpde,
)
from .stoch_integral import (
    BDG_CONSTANTS,
    FUBINI_TOL,
    ElementaryProcess,
    _integrals,
    _integrate,
    bdg_check,
    convolution_condition,
    fubini_check,
    ito_isometry_check,
)

__all__ = ["ExperimentConfig", "run", "emit_plotdata", "main", "KINDS"]

SEED_OVERRIDE_ENV = "GEXPECT_SEED_OVERRIDE"


class UsageError(Exception):
    pass


@contextmanager
def _bad_params(kind, *keys):
    """Report a value these params of a ``kind`` run give as a usage error."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        names = ", ".join(repr(k) for k in keys)
        raise UsageError(f"param {names} of a {kind!r} run: {exc}") from exc


def _flag(value):
    """A JSON ``true`` or ``false``; any other value is rejected."""
    if not isinstance(value, bool):
        raise TypeError(f"must be true or false, got {value!r}")
    return value


def _real(value):
    """A finite JSON number, not a bool."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value):
    if not _real(value) > 0.0:
        raise ValueError(f"must be positive, got {value!r}")
    return float(value)


def _items(cast):
    """A cast to a nonempty JSON list, each item cast by ``cast``."""
    def cast_items(value):
        if not isinstance(value, (list, tuple)) or not value:
            raise TypeError(f"expected a nonempty list, got {value!r}")
        return [cast(v) for v in value]
    return cast_items


def _floats(value):
    """One JSON number per coordinate of the set; ``_kwargs`` checks the length."""
    return np.array(_items(_real)(value))


def _one_of(*known):
    """A cast to a string that names one of ``known``."""
    def cast(value):
        if value not in known:
            raise ValueError(f"unknown value {value!r}; known: {', '.join(sorted(known))}")
        return value
    return cast


def _powers(value):
    """Distinct BDG powers, each with a certified constant."""
    powers = _items(_count)(value)
    if not set(powers) <= BDG_CONSTANTS.keys():
        raise ValueError(f"supported powers are 1, 2, 4; got {powers}")
    if len(set(powers)) < len(powers):
        raise ValueError(f"each power names one record, got a repeat in {powers}")
    return powers


def _moment_order(value):
    """A moment order up to ``MOMENT_CONSTANT_MAX_ORDER``, the last certified one."""
    if _count(value) > MOMENT_CONSTANT_MAX_ORDER:
        raise ValueError(f"moment constants are certified up to order "
                         f"{MOMENT_CONSTANT_MAX_ORDER}, got {value!r}")
    return int(value)


def _samples(value):
    """A Monte Carlo sample size: a count of at least 2, the fewest draws
    with a standard error."""
    if _count(value) < 2:
        raise ValueError(f"must be at least 2, got {value!r}")
    return int(value)


def _mesh(value):
    """A node count of at least 3 per axis, as a MeshSpec."""
    mesh = MeshSpec(nodes=_count(value))
    mesh.nodes_per_axis(1)
    return mesh


def _out_dir(path) -> Path:
    """``path`` as an output directory; a usage error if it holds a NUL
    character or a file is in its way."""
    path = Path(path)
    if "\0" in str(path):
        raise UsageError(f"output path {str(path)!r} holds a NUL character")
    if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
        raise UsageError(f"output path {str(path)!r} is a file or lies under one")
    return path


def _write_csv(dest, header, rows):
    """Write one CSV artifact: a header line, then one line per row."""
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _Report:
    """The one sink of a run: check records, plot-ready tables, artifact files.

    A non-finite number is stored as None (JSON null): reports stay strict JSON.
    """

    def __init__(self, cfg, out_dir):
        self.cfg, self.out_dir = cfg, out_dir
        self.records, self.series, self.artifacts = [], {}, []

    def mc_tol(self, se, slack=0.0, family=1):
        """Tolerance of a Monte Carlo check: z standard errors ``se`` plus ``slack``
        (a discretization bound).  z is ``MC_Z`` for one comparison; a family of
        ``family`` comparisons that must all hold takes the Bonferroni z =
        Phi^-1(1 - alpha / (2 family)), alpha = 2 Phi(-MC_Z), so that it fails by
        chance no more often than one comparison."""
        tail = 0.5 * math.erfc(MC_Z / math.sqrt(2.0))  # Phi(-MC_Z)
        z = MC_Z if family == 1 else -NormalDist().inv_cdf(tail / family)
        return z * se + slack

    def check(self, name, lhs, rhs, tol, side="two", n_paths=None):
        """Record a check and its ``side``, which alone decides ``ok``: ``"two"``
        is |lhs - rhs| <= tol, ``"le"`` lhs <= rhs + tol, ``"ge"`` lhs >= rhs - tol.

        A non-finite ``lhs``, ``rhs`` or ``tol`` fails the check.  A Monte
        Carlo check (``n_paths`` given) also records the config seed.
        """
        lhs, rhs, tol = float(lhs), float(rhs), float(tol)
        ok = {"two": abs(lhs - rhs) <= tol, "le": lhs <= rhs + tol,
              "ge": lhs >= rhs - tol}[side]
        rec = {"name": str(name), "side": side, "ok": ok}
        for key, value in (("lhs", lhs), ("rhs", rhs), ("tolerance", tol)):
            rec[key] = value if math.isfinite(value) else None
            rec["ok"] = rec["ok"] and rec[key] is not None
        if n_paths is not None:
            rec["n_paths"] = int(n_paths)
            rec["seed"] = int(self.cfg.seed)
        self.records.append(rec)

    def table(self, name, columns, rows):
        self.series[name] = {"columns": columns, "rows": [
            [None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
            for row in rows
        ]}

    def file(self, name):
        """Path of an artifact next to the report; the report lists its name."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts.append(name)
        return self.out_dir / name

    def csv(self, name, header, rows):
        _write_csv(self.file(name), header, rows)

    def slice(self, name, sol):
        """The t = 0 slice of a PDE solution, one row per node: the point x
        whose value u(0, x) the node holds (the node is E(0) x), then the value."""
        points = (ax / e for ax, e in zip(sol.axes, sol.flow(0)))
        grids = [*np.meshgrid(*points, indexing="ij"), sol.time_slice(0)]
        self.csv(name, [f"x{i}" for i in range(len(sol.axes))] + ["u"],
                 ([repr(float(v)) for v in row]
                  for row in zip(*(g.reshape(-1) for g in grids))))

    def solver(self, solves):
        """The ``solver`` table: one row of grid diagnostics per named PDE solve,
        with the bytes its checkpoint slices hold and its measured residual."""
        columns = ["solve", "n_steps", "dt", "h", "cfl_ratio", "bytes_held", "residual"]
        self.table("solver", columns, [
            [name, sol.n_steps, sol.dt, max(float(ax[1] - ax[0]) for ax in sol.axes),
             sol.cfl_ratio, sol.bytes_held, sol.residual]
            for name, sol in solves])


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    kind: str
    sigma: CovarianceSet
    params: dict
    seed: int
    output_dir: Path

    @classmethod
    def load(cls, path, out_override=None) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            raise UsageError(f"malformed JSON config: {exc}") from exc
        required = ("name", "kind", "sigma", "seed")
        if not isinstance(doc, dict):
            raise UsageError(f"config must be a JSON object with keys {required}")
        for key in required:
            if key not in doc:
                raise UsageError(f"config is missing required key {key!r}")
        known = {*required, "params", "output_dir"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise UsageError(f"unknown config key {', '.join(map(repr, unknown))}; "
                             f"known: {', '.join(sorted(known))}")
        if not isinstance(doc["kind"], str) or doc["kind"] not in KINDS:
            raise UsageError(
                f"unknown kind {doc['kind']!r}; known: {', '.join(sorted(KINDS))}"
            )
        sigma_doc = doc["sigma"]
        try:
            if isinstance(sigma_doc, str):
                sigma_path = (path.parent / sigma_doc).resolve()
                if not sigma_path.is_file():
                    raise UsageError(f"covariance-set file not found: {sigma_path}")
                sigma = CovarianceSet.from_json(sigma_path.read_text())
            else:
                sigma = CovarianceSet.from_dict(sigma_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"invalid sigma: {exc!r}") from exc
        if not isinstance(doc.get("params", {}), dict):
            raise UsageError("params must be a JSON object")
        seed, source = doc["seed"], "seed"
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise UsageError("seed must be an integer (no implicit randomness)")
        override = os.environ.get(SEED_OVERRIDE_ENV)
        if override is not None:
            try:
                seed, source = int(override), SEED_OVERRIDE_ENV
            except ValueError as exc:
                raise UsageError(
                    f"{SEED_OVERRIDE_ENV} must be an integer, got {override!r}"
                ) from exc
        if seed < 0:
            raise UsageError(f"{source} must be a nonnegative integer, got {seed}")
        out_dir = doc.get("output_dir", "gexpect-out")
        if not isinstance(out_dir, str):
            raise UsageError(f"output_dir must be a string, got {out_dir!r}")
        out_dir = _out_dir(out_override or out_dir)
        return cls(name=str(doc["name"]), kind=doc["kind"], sigma=sigma,
                   params=dict(doc.get("params", {})), seed=seed, output_dir=out_dir)

    def echo(self) -> dict:
        return {"name": self.name, "kind": self.kind, "sigma": self.sigma.to_dict(),
                "params": self.params, "seed": self.seed}


def _unit_directions(dim, count, seed):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _run_moments(cfg, rep, *, m_max: _moment_order = 3, n_samples: _samples = 100_000,
                 dump_samples: _flag = False):
    gn = GNormal(cfg.sigma)
    with _bad_params(cfg.kind, "sigma"):  # a dimension past the certified one
        bounds = [moment_bounds_check(gn, m) for m in range(1, m_max + 1)]
    rows = []
    for m, b in enumerate(bounds, 1):
        k_upper = moment_constant(m) * b.upper
        rep.check(f"moment-bounds-m{m}", b.value, k_upper, MOMENT_SLACK * k_upper, "le")
        rep.check(f"moment-lower-m{m}", b.lower, b.value, MOMENT_SLACK * b.value, "le")
        rows.append([m, b.lower, b.value, b.upper])
    exact = moment_upper(gn, 1)
    rep.check("second-moment-exact", exact, cfg.sigma.max_trace(), 1e-12)
    est = static_upper_report(gn, lambda x: np.sum(x * x, axis=1), n_samples, cfg.seed)
    rep.check("second-moment-mc", est.value, exact, rep.mc_tol(est.stderr),
              n_paths=n_samples)
    rep.table("moments", ["m", "lower", "value", "upper"], rows)
    if dump_samples:
        draws = sample_gaussian(cfg.sigma.matrices[0], min(n_samples, 10_000), cfg.seed)
        rep.csv("samples.csv", [f"x{i}" for i in range(draws.shape[1])], draws.tolist())


def _run_band(cfg, rep, *, n_directions: _count = 4, n_samples: _samples = 50_000):
    gn = GNormal(cfg.sigma)
    dirs = _unit_directions(cfg.sigma.dim, n_directions, split_seed(cfg.seed, 991))
    rows = []
    for i, h in enumerate(dirs):
        band = project_band(gn, h)
        est = static_upper_report(gn, lambda x, h=h: (x @ h) ** 2, n_samples, cfg.seed)
        rep.check(f"band-mc-up-{i}", est.value, band.sigma_up_sq, rep.mc_tol(est.stderr),
                  n_paths=n_samples)
        rep.check(f"band-order-{i}", band.sigma_down_sq, band.sigma_up_sq, 0.0, "le")
        rows.append([i, band.sigma_up_sq, band.sigma_down_sq, est.value, est.stderr])
    rep.table("band", ["direction", "up", "down", "mc_up", "stderr"], rows)


# the policy menu of the Monte Carlo suprema: constants plus bang-bang on x1
_FAMILY = PolicyFamily(bang_bang_stat=lambda s: s[:, 0], bang_bang_name="x1")


def _run_isometry(cfg, rep, *, T: _positive = 1.0, steps: _count = 8,
                  n_paths: _samples = 4000, trials: _count = 5,
                  mode: _one_of("adapted", "deterministic") = "adapted"):
    part = np.linspace(0.0, T, steps + 1)
    rng = np.random.default_rng(split_seed(cfg.seed, 17))
    dim = cfg.sigma.dim
    for trial in range(trials):
        if mode == "deterministic":
            blocks = [rng.standard_normal((dim, dim)) for _ in range(steps)]
            phi = ElementaryProcess.deterministic(part, blocks)
        else:
            c = rng.uniform(0.5, 2.0, size=2)

            def rule(t, states, c=c):
                scale = c[0] + c[1] * np.tanh(states[:, 0])
                return scale[:, None, None] * np.eye(dim)[None]

            phi = ElementaryProcess.adapted(part, rule, out_dim=dim, in_dim=dim)
        chk = ito_isometry_check(phi, cfg.sigma, _FAMILY, n_paths,
                                 split_seed(cfg.seed, trial))
        rep.check(f"isometry-{mode}-{trial}", chk.lhs, chk.rhs, rep.mc_tol(chk.stderr),
                  "le", n_paths=n_paths)


def _run_bdg(cfg, rep, *, T: _positive = 1.0, steps: _count = 4,
             n_paths: _samples = 20_000, p_values: _powers = (1, 2, 4)):
    rng = np.random.default_rng(split_seed(cfg.seed, 29))
    dim = cfg.sigma.dim
    blocks = [rng.standard_normal((dim, dim)) for _ in range(steps)]
    phi = ElementaryProcess.deterministic(np.linspace(0.0, T, steps + 1), blocks)
    for pv in p_values:
        chk = bdg_check(phi, cfg.sigma, pv, PolicyFamily(), n_paths,
                        split_seed(cfg.seed, pv))
        rep.check(f"bdg-p{pv}", chk.lhs, BDG_CONSTANTS[pv] * chk.rhs,
                  rep.mc_tol(chk.stderr), "le", n_paths=n_paths)


def _run_sigma_integral(cfg, rep, *, a_diag: _floats = (-0.5, -1.0),
                        T: _positive = 1.0, quad_steps: _count = 2000,
                        steps: _count = 32, n_paths: _samples = 20_000):
    phi_fn = lambda t: np.diag(np.exp((T - t) * a_diag))
    # each input extreme's own integral: a set would merge equal ones
    integrals = _integrals(phi_fn, cfg.sigma, T, quad_steps)
    # closed form per extreme: entry (i, j) integrates exp((T-t)(a_i + a_j))
    rates = a_diag[:, None] + a_diag[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(rates == 0.0, T, (np.exp(rates * T) - 1.0) / rates)
    for i, (q, integral) in enumerate(zip(cfg.sigma.matrices, integrals)):
        closed = q * factors
        scale = max(1.0, float(np.linalg.norm(closed)))
        diff = float(np.linalg.norm(integral - closed))
        rep.check(f"closed-form-extreme-{i}", diff, 0.0, 1e-6 * scale)
    part = np.linspace(0.0, T, steps + 1)
    phi = ElementaryProcess.deterministic(part, [phi_fn(t) for t in part[:-1]])
    def products(_, walk):  # the products I_a I_b of the integral's coordinates
        cols = _integrate(phi, cfg.sigma, part, walk()).values.T
        return (col_a * col_b for col_a in cols for col_b in cols)
    for i in range(len(cfg.sigma)):
        ests = _policy_sup(cfg.sigma, [ControlPolicy.constant(i)], n_paths, steps, T,
                           split_seed(cfg.seed, i), products)
        emp = np.reshape([est.value for est in ests], (cfg.sigma.dim,) * 2)
        diff = float(np.linalg.norm(emp - integrals[i]))
        rep.check(f"empirical-extreme-{i}", diff, 0.0, 0.05, n_paths=n_paths)
    rows = []
    prev = _integrals(phi_fn, cfg.sigma, T, 64)
    for m in (128, 256, 512):
        cur = _integrals(phi_fn, cfg.sigma, T, m)
        change = max(float(np.linalg.norm(a - b)) for a, b in zip(cur, prev))
        rows.append([m, change])
        prev = cur
    rep.table("quad-convergence", ["quad_steps", "change"], rows)


def _run_fubini(cfg, rep, *, steps: _count = 6, weights: _items(_real) = (0.5, 0.5),
                n_paths: _count = 50):
    dim = cfg.sigma.dim
    bundle = simulate_gbm(cfg.sigma, ControlPolicy.constant(0), n_paths, steps, 1.0,
                          cfg.seed)
    part = np.linspace(0.0, 1.0, steps + 1)
    rng = np.random.default_rng(split_seed(cfg.seed, 3))
    phis = [
        ElementaryProcess.deterministic(
            part, [rng.standard_normal((dim, dim)) for _ in range(steps)]
        )
        for _ in weights
    ]
    chk = fubini_check(phis, weights, bundle)
    rep.check("fubini-interchange", chk.diff_norm, 0.0, FUBINI_TOL, n_paths=n_paths)


# gheat terminal payoffs of one coordinate, vectorized over a line of points
_TERMINALS = {"square": lambda x: x**2, "neg_square": lambda x: -(x**2),
              "abs": np.abs, "cos": np.cos}


def _run_gheat(cfg, rep, *, terminal: _one_of(*_TERMINALS) = "square",
               T: _positive = 0.5, x0: _real = 0.3, nodes: _mesh = 121,
               lattice_steps: _count = 600, steps: _count = 16, n_paths: _samples = 20_000):
    f = _TERMINALS[terminal]
    prob = PdeProblem(1, cfg.sigma, lambda p: f(p[..., 0]), T, ((-3.0, 3.0),))
    lo, hi = prob.domain_box[0]
    if not lo <= x0 <= hi:
        raise UsageError(f"param 'x0': {x0} lies outside the box [{lo}, {hi}]")
    sol = solve_gheat(prob, nodes)
    h = sol.axes[0][1] - sol.axes[0][0]
    disc = 2.0 * (h**2 + sol.dt)
    band = project_band(GNormal(cfg.sigma), [1.0])
    lat = lattice_1d(band, f, x0, T, lattice_steps)
    pde = sol.value_at(0.0, [x0])
    est = estimate_upper_expectation(cfg.sigma, lambda x: f(x[:, 0]), x0, T, steps,
                                     n_paths, _FAMILY, cfg.seed)
    lat_tol = 6.0 / lattice_steps
    rep.check("pde-vs-lattice", pde, lat, disc + lat_tol)
    rep.check("pde-vs-mc", pde, est.value, rep.mc_tol(est.stderr, disc), n_paths=n_paths)
    rep.check("lattice-vs-mc", lat, est.value, rep.mc_tol(est.stderr, lat_tol),
              n_paths=n_paths)
    if terminal == "square":
        rep.check("closed-form", pde, x0**2 + band.sigma_up_sq * T, disc)
    rep.slice("gheat_slice.csv", sol)
    rep.table("profile", ["x", "u0"],
              [[float(x), float(u)] for x, u in zip(sol.axes[0], sol.time_slice(0))])
    rep.solver([("gheat", sol)])
    rep.table("policy-sweep", ["policy", "value", "stderr"],
              [list(row) for row in est.per_policy])


def _run_gpde(cfg, rep, *, a_diag: _floats = (-1.0, -2.0),
              quad_coeffs: _floats = (0.5, 0.3), T: _positive = 0.5, nodes: _mesh = 49,
              steps: _count = 64, n_paths: _samples = 20_000, n_probes: _count = 10):
    c_disc = 10.0  # the C of the pinned discretization tolerance C (h^2 + dt)

    f = lambda pts: quad_coeffs[0] * pts[..., 0] ** 2 + quad_coeffs[1] * pts[..., 1] ** 2
    box = (-2.4, 2.4)
    with _bad_params(cfg.kind, "a_diag"):
        prob = PdeProblem(2, cfg.sigma, f, T, (box, box), a_gen=np.diag(a_diag))
    try:
        sol = solve_gpde(prob, nodes)
    except StencilError as exc:
        raise UsageError(f"param 'sigma': {exc}") from exc
    # at a quarter of the half-width, E(0) x stays in the box: E(0) <= 1
    probes = _unit_directions(2, n_probes, split_seed(cfg.seed, 5)) * (0.25 * box[1])
    h = sol.axes[0][1] - sol.axes[0][0]
    disc = c_disc * (h**2 + sol.dt)
    spec = McControlSpec(steps=steps, n_paths=n_paths, seed=cfg.seed)
    rows = []
    mcs = mc_values(prob, probes, 0.0, spec)
    for i, (probe, mc) in enumerate(zip(probes, mcs)):
        pde = sol.value_at(0.0, probe)
        rep.check(f"probe-{i}", pde, mc.value, rep.mc_tol(mc.stderr, disc), n_paths=n_paths)
        rows.append([i, float(probe[0]), float(probe[1]), pde, mc.value, mc.stderr])

    # u = sum_i m_i(t) x_i^2 + c(t), m_i(t) = q_i exp(2 a_i (T - t)), when one
    # extreme's diagonal weighted by q dominates every other's entrywise, so
    # it attains G at every t: then c(0) = sum_i Q_ii q_i (e^{2 a_i T} - 1) / (2 a_i)
    weighted = np.diagonal(cfg.sigma.matrices, axis1=1, axis2=2) * quad_coeffs
    top = weighted[np.argmax(weighted.sum(axis=1))]
    if np.all(weighted <= top):
        rates = 2.0 * prob.generator_diag()
        growth = np.divide(np.expm1(rates * T), rates, out=np.full(2, T), where=rates != 0.0)
        for i, probe in enumerate(probes):
            exact = float(np.sum(quad_coeffs * np.exp(rates * T) * probe**2 + top * growth))
            rep.check(f"closed-form-{i}", sol.value_at(0.0, probe), exact, disc)

    lam = 0.8
    band1 = CovarianceSet([[[1.0]], [[0.25]]], label="unit-band")
    prob1 = PdeProblem(1, band1, lambda q: q[..., 0] ** 2, T, ((-3.0, 3.0),),
                       a_gen=np.array([[-lam]]))
    sol1 = solve_gpde(prob1, MeshSpec(nodes=241))
    want = math.exp(-2 * lam * T) * 0.25 + (1 - math.exp(-2 * lam * T)) / (2 * lam)
    got = sol1.value_at(0.0, [0.5])
    h1 = sol1.axes[0][1] - sol1.axes[0][0]
    tol1 = c_disc * (h1**2 + sol1.dt) + 2.0 * h1
    rep.check("scalar-ou-closed-form", got, want, tol1)
    rep.slice("gpde_slice.csv", sol)
    rep.table("probes", ["probe", "x1", "x2", "pde", "mc", "stderr"], rows)
    rep.solver([("gpde", sol), ("scalar-ou", sol1)])


def _run_ou(cfg, rep, *, a_diag: _floats = lambda dim: (-1.0,) * dim,
            T: _positive = 1.0, steps: _count = 200, n_paths: _samples = 20_000,
            substeps: _count = 10, beta: _real = 0.5):
    if steps % substeps:
        raise UsageError(f"param 'substeps': {substeps} does not divide "
                         f"'steps' = {steps}")
    a_mat = np.diag(a_diag)
    with _bad_params(cfg.kind, "a_diag", "beta"):
        cond = convolution_condition(a_mat, cfg.sigma, beta, T, 2000)

    times, dt = np.linspace(0.0, T, steps + 1), T / steps
    # from 0 with the rates, the walk's state is the convolution integral
    walk = _walk(cfg.sigma, ControlPolicy.constant(0), n_paths, steps, T, cfg.seed,
                 rates=a_diag)
    family = steps // substeps * cfg.sigma.dim  # every coordinate at every record
    q0 = np.diag(cfg.sigma.matrices[0])
    # names carry the fewest digits, at least 3, that tell the record times apart
    stamps = times[substeps::substeps]
    digits = next(d for d in range(3, 18)
                  if len({f"{t:.{d}g}" for t in stamps}) == len(stamps))
    rows = []
    for k, _, _, _, conv in islice(walk, substeps - 1, None, substeps):
        t = times[k + 1]
        # exact covariance of the discrete left-point recursion
        m = np.arange(1, k + 2)
        exact = np.array([q0[d] * dt * np.sum(np.exp(2.0 * a_diag[d] * m * dt))
                          for d in range(cfg.sigma.dim)])
        emp = np.var(conv, axis=0)
        tol = rep.mc_tol(exact * math.sqrt(2.0 / n_paths), family=family)
        d = np.argmax(np.abs(emp - exact) - tol)  # furthest over its tolerance
        rep.check(f"variance-t{t:.{digits}g}", emp[d], exact[d], tol[d], n_paths=n_paths)
        rows.append([float(t)] + [float(v) for v in emp] + [float(v) for v in exact])

    mild = ou_mild_path(a_mat, cfg.sigma, ControlPolicy.constant(0),
                        np.ones(cfg.sigma.dim), 0.0, T, steps, min(n_paths, 500),
                        split_seed(cfg.seed, 2))
    gap = flow_property_discrepancy(mild, a_mat, steps // 3)
    rep.check("flow-property", gap, 0.0, 1e-10)

    rep.check("convolution-condition", cond.value, cond.coarse, cond.tolerance)
    n_out = min(mild.n_paths, 20)
    rep.csv("ou_paths.csv", ["path", "coord"] + [f"t={t:.10g}" for t in mild.times],
            ([i, d] + [repr(float(v)) for v in mild.states[i, :, d]]
             for i in range(n_out) for d in range(mild.dim)))
    meta = {"seed": int(mild.seed), "policy": mild.policy.describe(),
            "sigma_label": mild.sigma.label, "n_paths": int(n_out),
            "steps": int(mild.n_steps), "t0": float(mild.times[0]),
            "T": float(mild.times[-1])}
    rep.file("ou_paths.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    cols = (["t"] + [f"emp{d}" for d in range(cfg.sigma.dim)]
            + [f"exact{d}" for d in range(cfg.sigma.dim)])
    rep.table("variance", cols, rows)


def _run_nested(cfg, rep, *, form: _one_of("sum", "product", "constant") = "sum",
                T: _positive = 1.0, steps: _count = 8, n_paths: _samples = 4000):
    inner = McControlSpec(steps=steps, n_paths=n_paths, seed=split_seed(cfg.seed, 1))
    outer = McControlSpec(steps=steps, n_paths=n_paths, seed=split_seed(cfg.seed, 2))
    band = project_band(GNormal(covset_scale(cfg.sigma, math.sqrt(T))),
                        [1.0] + [0.0] * (cfg.sigma.dim - 1))
    if form == "sum":
        f2 = lambda x, y: x[..., 0] ** 2 + 2.0 * y[..., 0] ** 2
        want = band.sigma_up_sq + 2.0 * band.sigma_up_sq
        # the standard deviation of x^2 + 2 y^2 is at most 3 sqrt(2) sigma_up^2
        se = 3.0 * band.sigma_up_sq * math.sqrt(2.0 / n_paths)
    elif form == "product":
        f2 = lambda x, y: x[..., 0] * y[..., 0]
        want = 0.0  # four-term product formula with centered projections
        se = band.sigma_up_sq / math.sqrt(n_paths)
    else:
        f2 = lambda x, y: np.ones((x.shape[0], y.shape[1]))
        want, se = 1.0, 0.0
    v = nested_expectation(cfg.sigma, f2, T, inner, outer)
    rep.check(f"nested-{form}", v, want, rep.mc_tol(se), n_paths=n_paths)


KINDS = {
    "moments": _run_moments,
    "band": _run_band,
    "isometry": _run_isometry,
    "bdg": _run_bdg,
    "sigma_integral": _run_sigma_integral,
    "fubini": _run_fubini,
    "gheat": _run_gheat,
    "gpde": _run_gpde,
    "ou": _run_ou,
    "nested": _run_nested,
}


def _kwargs(cfg):
    """The runner's keyword-only params are its kind's params: each takes the
    config's value or its default (a callable one of the set's dimension), cast
    by its annotation before the run; an array has one number per coordinate."""
    dim = cfg.sigma.dim
    need = {"gheat": 1, "gpde": 2}.get(cfg.kind, dim)
    if dim != need:
        raise UsageError(f"a {cfg.kind!r} run needs a {need}-dimensional "
                         f"covariance set, got dimension {dim}")
    signature = inspect.signature(KINDS[cfg.kind], eval_str=True)
    params = [p for p in signature.parameters.values() if p.kind is p.KEYWORD_ONLY]
    unknown = sorted(set(cfg.params) - {p.name for p in params})
    if unknown:
        raise UsageError(f"param {', '.join(map(repr, unknown))}: unknown to a "
                         f"{cfg.kind!r} run; known: "
                         f"{', '.join(sorted(p.name for p in params))}")
    kwargs = {}
    for p in params:
        default = p.default(dim) if callable(p.default) else p.default
        with _bad_params(cfg.kind, p.name):
            value = kwargs[p.name] = p.annotation(cfg.params.get(p.name, default))
            if isinstance(value, np.ndarray) and value.size != dim:
                raise ValueError(f"needs {dim} numbers, one per coordinate, "
                                 f"got {value.size}")
    return kwargs


def run(config_path, out_override=None, threads: int = 1) -> tuple[dict, Path]:
    """Execute the configured experiment; returns (report dict, report path)."""
    # runs are serial; ``threads`` is kept until perfbench stops passing threads=1
    if threads != 1:
        raise ValueError(f"runs are serial: threads must be 1, got {threads!r}")
    cfg = ExperimentConfig.load(config_path, out_override)
    kwargs = _kwargs(cfg)
    rep = _Report(cfg, cfg.output_dir)
    t0 = time.perf_counter()
    KINDS[cfg.kind](cfg, rep, **kwargs)
    elapsed = time.perf_counter() - t0
    if not rep.records:
        raise UsageError(f"a {cfg.kind!r} run with these params records no check")
    report = {"config": cfg.echo(), "records": rep.records,
              "ok": all(r["ok"] for r in rep.records), "series": rep.series,
              "artifacts": rep.artifacts, "timings": {"total_s": elapsed}}
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    report_path = cfg.output_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
                           + "\n")
    return report, report_path


def emit_plotdata(report: dict, series_name: str, out_dir) -> Path:
    """Flatten one recorded series to ``out_dir``/<name>.csv; raises UsageError if
    it is malformed or unknown, its name is not one plain file name or a file
    is in the way of ``out_dir``."""
    name = f"{series_name}.csv"
    if Path(name).name != name:
        raise UsageError(f"series name {series_name!r} is not one plain file name")
    series = report.get("series", {}) if isinstance(report, dict) else None
    if not isinstance(series, dict):
        raise UsageError("report must be a JSON object whose key 'series' is an object")
    if series_name not in series:
        known = ", ".join(sorted(series)) or "(none)"
        raise UsageError(f"unknown series {series_name!r}; report has: {known}")
    spec = series[series_name]
    rows = spec.get("rows") if isinstance(spec, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and isinstance(spec.get("columns"), list)):
        raise UsageError(f"series {series_name!r} needs a list 'columns' and a "
                         f"list of lists 'rows'")
    out_dir = _out_dir(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = out_dir / name
    _write_csv(dest, spec["columns"], rows)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gexpect", description="Reproducible sublinear-expectation experiments."
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None, help="output directory override")
    plot_p = sub.add_parser("plot", help="flatten a report series to CSV")
    plot_p.add_argument("report", help="path to a report.json")
    plot_p.add_argument("--series", required=True, help="series name to export")
    plot_p.add_argument("--out", default=".", help="output directory")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "run":
            report, report_path = run(args.config, args.out)
            status = "ok" if report["ok"] else "CHECK FAILED"
            print(f"{status}: {len(report['records'])} records -> {report_path}")
            return 0 if report["ok"] else 1
        report_path = Path(args.report)
        if not report_path.is_file():
            raise UsageError(f"report file not found: {report_path}")
        try:
            report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            raise UsageError(f"malformed report JSON: {exc}") from exc
        dest = emit_plotdata(report, args.series, args.out)
        print(f"wrote {dest}")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
