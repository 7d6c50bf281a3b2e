"""Acceptance battery: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion (including its runtime against the budget).
Every tolerance is pinned here, not calibrated elsewhere.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from gexpect import CovarianceSet, covset_scale
from gexpect.control_sim import (
    ControlPolicy,
    McControlSpec,
    PolicyFamily,
    estimate_upper_expectation,
    lattice_1d,
    simulate_gbm,
)
from gexpect.g_normal import (
    GNormal,
    moment_upper,
    project_band,
    sample_gaussian,
    split_seed,
    static_upper_expectation,
    static_upper_report,
)
from gexpect.g_pde import (
    MeshSpec,
    PdeProblem,
    flow_property_discrepancy,
    mc_values,
    ou_mild_path,
    solve_gheat,
    solve_gpde,
)
from gexpect.stoch_integral import (
    BDG_CONSTANTS,
    ElementaryProcess,
    bdg_check,
    fubini_check,
    integrate_elementary,
    ito_isometry_check,
    sigma_of_integral,
)
from gexpect.experiment_cli import run as run_experiment


@contextlib.contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} ({name}): PASS  [{elapsed:.1f}s < {limit_s}s]")
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeded the {limit_s}s budget"


def _random_psd(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n)) * scale
    return raw @ raw.T / n


def test_criterion_01_moment_identity():
    """moment_upper(m=1) == sup Tr Q exactly; MC within 3 SE at 1e5 draws."""
    with criterion(1, "moment identity", 10.0):
        rng = np.random.default_rng(1001)
        sets = [
            (CovarianceSet([[[1.0]], [[0.25]]], label="band-1d"), 1.0),
            (CovarianceSet([[[0.7]]], label="single-1d"), 2.0),
            (CovarianceSet([np.diag([1.0, 1.0]), np.diag([4.0, 0.0])],
                           label="spread-2d"), 1.0),
            (CovarianceSet([np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)],
                           label="corr-2d"), 0.5),
            (CovarianceSet([_random_psd(rng, 4), _random_psd(rng, 4)],
                           label="random-4d"), 1.0),
        ]
        for i, (sigma, scale) in enumerate(sets):
            gn = GNormal(covset_scale(sigma, math.sqrt(scale)))
            exact = moment_upper(gn, 1)
            want = scale * sigma.max_trace()
            assert abs(exact - want) <= 1e-12 * max(1.0, want)
            est = static_upper_report(
                gn, lambda x: np.sum(x * x, axis=1), 10**5, seed=1100 + i
            )
            assert abs(est.value - exact) <= 3.0 * est.stderr, sigma.label


def test_criterion_02_moment_recursion():
    """Classical Gaussian moments to 1e-10; Monte Carlo to 1% at 1e6."""
    with criterion(2, "moment recursion", 30.0):
        for sigma_sq in (1.0, 0.6):
            j2 = moment_upper(GNormal(CovarianceSet([[[sigma_sq]]])), 2)
            j3 = moment_upper(GNormal(CovarianceSet([[[sigma_sq]]])), 3)
            assert abs(j2 - 3.0 * sigma_sq**2) <= 1e-10
            assert abs(j3 - 15.0 * sigma_sq**3) <= 1e-10
        draws = sample_gaussian(np.array([[1.0]]), 10**6, seed=2002).ravel()
        assert abs(np.mean(draws**4) - 3.0) / 3.0 < 0.01
        assert abs(np.mean(draws**6) - 15.0) / 15.0 < 0.01
        q = _random_psd(np.random.default_rng(2003), 3)
        norms_sq = np.sum(sample_gaussian(q, 10**6, seed=2004) ** 2, axis=1)
        for m in (1, 2, 3):
            exact = moment_upper(GNormal(CovarianceSet([q])), m)
            assert abs(np.mean(norms_sq**m) - exact) / exact < 0.01


def test_criterion_03_sublinear_laws():
    """Five expectation laws, 200 randomized cases each, zero violations."""
    with criterion(3, "sublinear-expectation laws", 60.0):
        sigma = CovarianceSet(
            [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)], label="corr-2d"
        )
        gn = GNormal(sigma)
        rng = np.random.default_rng(3001)
        n = 2000
        for case in range(200):
            c = rng.standard_normal(5)
            lam = float(rng.uniform(0.0, 4.0))
            seed = split_seed(3100, case)
            f = lambda x, c=c: c[0] * x[:, 0] + c[1] * x[:, 1] ** 2 + c[2]
            g = lambda x, c=c: c[3] * x[:, 0] * x[:, 1] + c[4]
            vf = static_upper_expectation(gn, f, n, seed)
            vg = static_upper_expectation(gn, g, n, seed)
            # monotonicity against a pointwise dominating payoff
            f_up = lambda x, f=f: f(x) + 0.25 + 0.5 * x[:, 0] ** 2
            assert static_upper_expectation(gn, f_up, n, seed) >= vf - 1e-12
            # subadditivity (exact under common random numbers)
            v_sum = static_upper_expectation(gn, lambda x: f(x) + g(x), n, seed)
            assert v_sum <= vf + vg + 1e-9
            # positive homogeneity
            v_lam = static_upper_expectation(gn, lambda x: lam * f(x), n, seed)
            assert abs(v_lam - lam * vf) <= 1e-9 * (1.0 + abs(vf))
            # constant preservation
            const = float(c[2])
            v_const = static_upper_expectation(
                gn, lambda x: np.full(x.shape[0], const), n, seed
            )
            assert abs(v_const - const) <= 1e-12 * (1.0 + abs(const))
            # Cauchy-Bunyakovsky-Schwarz
            v_fg = static_upper_expectation(gn, lambda x: f(x) * g(x), n, seed)
            v_f2 = static_upper_expectation(gn, lambda x: f(x) ** 2, n, seed)
            v_g2 = static_upper_expectation(gn, lambda x: g(x) ** 2, n, seed)
            assert v_fg <= math.sqrt(max(v_f2, 0.0) * max(v_g2, 0.0)) + 1e-9


def test_criterion_04_ito_isometry():
    """Inequality on 20 adapted integrands; equality for deterministic ones."""
    with criterion(4, "Ito isometry", 60.0):
        band = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
        nested = CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="nested-2d")
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        part = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(4001)
        for trial in range(20):
            sigma = band if trial % 2 == 0 else nested
            dim = sigma.dim
            c = rng.uniform(0.5, 2.0, size=2)

            def rule(t, states, c=c, dim=dim):
                scale = c[0] + c[1] * np.tanh(states[:, 0])
                return scale[:, None, None] * np.eye(dim)[None]

            phi = ElementaryProcess.adapted(part, rule, out_dim=dim, in_dim=dim)
            chk = ito_isometry_check(phi, sigma, family, 4000, split_seed(4100, trial))
            assert chk.ok, f"trial {trial}: lhs={chk.lhs} rhs={chk.rhs}"
        # equality case: deterministic blocks, ordered extremes, the
        # achieving constant policy alone
        for trial in range(5):
            blocks = [rng.standard_normal((2, 2)) for _ in range(8)]
            phi = ElementaryProcess.deterministic(part, blocks)
            chk = ito_isometry_check(
                phi, nested, [ControlPolicy.constant(0)], 60_000,
                split_seed(4200, trial),
            )
            assert abs(chk.lhs - chk.rhs) <= 3.0 * chk.stderr, trial


def test_criterion_05_bdg():
    """p=2 ratio <= 1 + noise; p=4 ratio below the certified constant."""
    with criterion(5, "BDG inequality", 60.0):
        rng = np.random.default_rng(5001)
        sets = [
            CovarianceSet([[[0.7]]], label="single-1d"),
            CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="nested-2d"),
        ]
        for i, sigma in enumerate(sets):
            dim = sigma.dim
            part = np.linspace(0.0, 1.0, 5)
            blocks = [rng.standard_normal((dim, dim)) for _ in range(4)]
            phi = ElementaryProcess.deterministic(part, blocks)
            chk2 = bdg_check(phi, sigma, 2, PolicyFamily(), 50_000, 5100 + i)
            assert chk2.ok
            assert chk2.lhs <= chk2.rhs + 3.0 * chk2.stderr
            chk4 = bdg_check(phi, sigma, 4, PolicyFamily(), 50_000, 5200 + i)
            assert chk4.ok
            assert chk4.cp_estimate <= BDG_CONSTANTS[4] * 1.05
            chk1 = bdg_check(phi, sigma, 1, PolicyFamily(), 50_000, 5300 + i)
            assert chk1.ok


def test_criterion_06_sigma_of_integral():
    """Semigroup integrand: quadrature vs closed form (1e-6) and empirical
    covariance per constant policy (0.05 Frobenius at 1e5 paths)."""
    with criterion(6, "integral covariance set", 120.0):
        sigma = CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="nested-2d")
        a_diag = np.array([-0.5, -1.0])
        T = 1.0
        phi_fn = lambda t: np.diag(np.exp((T - t) * a_diag))
        sigma_i = sigma_of_integral(phi_fn, sigma, T, quad_steps=10_000)
        rates = a_diag[:, None] + a_diag[None, :]
        factors = (np.exp(rates * T) - 1.0) / rates
        for got, q in zip(sigma_i.matrices, sigma.matrices):
            closed = q * factors
            scale = max(1.0, float(np.linalg.norm(closed)))
            assert np.linalg.norm(got - closed) <= 1e-6 * scale
        steps, n_paths = 50, 10**5
        part = np.linspace(0.0, T, steps + 1)
        phi = ElementaryProcess.deterministic(part, [phi_fn(t) for t in part[:-1]])
        for i in range(len(sigma)):
            bundle = simulate_gbm(sigma, ControlPolicy.constant(i), n_paths,
                                  steps, T, seed=6100 + i)
            vals = integrate_elementary(phi, bundle).values
            emp = vals.T @ vals / n_paths
            assert np.linalg.norm(emp - sigma_i.matrices[i]) < 0.05, i


def test_criterion_07_gheat_representation():
    """1-d battery {x^2, -x^2, |x|}: solver, lattice and Monte Carlo agree."""
    with criterion(7, "G-heat representation", 120.0):
        sigma = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
        band = project_band(GNormal(sigma), [1.0])
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        x0, T = 0.3, 0.5
        battery = {
            "square": (lambda p: p[..., 0] ** 2, lambda x: x**2),
            "neg-square": (lambda p: -(p[..., 0] ** 2), lambda x: -(x**2)),
            "abs": (lambda p: np.abs(p[..., 0]), np.abs),
        }
        for i, (name, (f_grid, f_line)) in enumerate(battery.items()):
            prob = PdeProblem(1, sigma, f_grid, T, ((-3.0, 3.0),))
            sol = solve_gheat(prob, MeshSpec(nodes=121))
            h = sol.axes[0][1] - sol.axes[0][0]
            disc = 2.0 * (h**2 + sol.dt)
            pde = sol.value_at(0.0, [x0])
            lat = lattice_1d(band, f_line, x0, T, steps=800)
            est = estimate_upper_expectation(
                sigma, lambda x, f=f_line: f(x[:, 0]), x0, T, 16, 30_000,
                family, seed=7100 + i,
            )
            mc, se3 = est.value, 3.0 * est.stderr
            assert abs(pde - lat) <= se3 + disc, name
            assert abs(pde - mc) <= se3 + disc, name
            assert abs(lat - mc) <= se3 + disc, name
            if name == "square":
                want = band.sigma_up_sq * T + x0**2
                assert abs(pde - want) <= se3 + disc
                assert abs(mc - want) <= se3 + disc


def test_criterion_08_full_p_representation():
    """n=2 transported problem vs Monte Carlo at 10 probes; scalar closed form."""
    with criterion(8, "full equation representation", 300.0):
        c_disc = 10.0  # pinned discretization constant
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])],
                              label="ordered-2d")
        a = np.diag([-1.0, -2.0])
        f = lambda p: 0.5 * p[..., 0] ** 2 + 0.3 * p[..., 1] ** 2
        prob = PdeProblem(2, sigma, f, 0.5, ((-2.4, 2.4), (-2.4, 2.4)), a_gen=a)
        sol = solve_gpde(prob, MeshSpec(nodes=49))
        h = sol.axes[0][1] - sol.axes[0][0]
        spec = McControlSpec(steps=64, n_paths=20_000, seed=8001)
        rng = np.random.default_rng(8002)
        probes = rng.uniform(-0.6, 0.6, size=(10, 2))
        for probe, mc in zip(probes, mc_values(prob, probes, 0.0, spec)):
            pde = sol.value_at(0.0, probe)
            tol = 3.0 * mc.stderr + c_disc * (h**2 + sol.dt)
            assert abs(pde - mc.value) <= tol, (probe, pde, mc.value)
        # scalar transported problem against the closed form
        lam, T, x0 = 0.8, 0.5, 0.5
        band = CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")
        prob1 = PdeProblem(1, band, lambda p: p[..., 0] ** 2, T, ((-3.0, 3.0),),
                           a_gen=np.array([[-lam]]))
        sol1 = solve_gpde(prob1, MeshSpec(nodes=241))
        h1 = sol1.axes[0][1] - sol1.axes[0][0]
        want = math.exp(-2 * lam * T) * x0**2 + (1 - math.exp(-2 * lam * T)) / (2 * lam)
        assert abs(sol1.value_at(0.0, [x0]) - want) <= c_disc * (h1**2 + sol1.dt)


def test_criterion_09_scheme_monotonicity():
    """Pointwise comparison of solutions for 20 ordered terminal pairs."""
    with criterion(9, "scheme monotonicity", 60.0):
        rng = np.random.default_rng(9001)
        sigma1 = CovarianceSet([[[1.0]], [[0.25]]])
        sigma2 = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])])
        for case in range(20):
            c = rng.standard_normal(3)
            if case % 2 == 0:
                f = lambda p, c=c: c[0] * p[..., 0] + c[1] * np.sin(p[..., 0]) + c[2]
                g = lambda p, f=f: f(p) + 0.4 * (1.0 + np.cos(2.0 * p[..., 0]))
                prob_f = PdeProblem(1, sigma1, f, 0.3, ((-2.0, 2.0),))
                prob_g = PdeProblem(1, sigma1, g, 0.3, ((-2.0, 2.0),))
                spec = MeshSpec(nodes=41)
            else:
                f = lambda p, c=c: c[0] * p[..., 0] + c[1] * np.cos(p[..., 1]) + c[2]
                g = lambda p, f=f: f(p) + 0.3 * (1.5 + np.sin(p[..., 0] + p[..., 1]))
                prob_f = PdeProblem(2, sigma2, f, 0.3, ((-2.0, 2.0), (-2.0, 2.0)))
                prob_g = PdeProblem(2, sigma2, g, 0.3, ((-2.0, 2.0), (-2.0, 2.0)))
                spec = MeshSpec(nodes=21)
            sf = solve_gheat(prob_f, spec)
            sg = solve_gheat(prob_g, spec)
            assert np.all(sf.values <= sg.values + 1e-12), case


def test_criterion_10_fubini_and_flow():
    """Interchange below 1e-10 on a weighted battery; pathwise flow identity."""
    with criterion(10, "Fubini and flow property", 30.0):
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])],
                              label="diag-2d")
        bundle = simulate_gbm(sigma, ControlPolicy.constant(0), 200, 10, 1.0,
                              seed=10_001)
        part = bundle.times.copy()
        rng = np.random.default_rng(10_002)
        batteries = [
            ([0.5, 0.5], 2), ([0.2, 0.3, 0.5], 3), ([1.0], 1), ([0.0, 0.0], 2),
        ]
        for weights, count in batteries:
            phis = [
                ElementaryProcess.deterministic(
                    part, [rng.standard_normal((2, 2)) for _ in range(10)]
                )
                for _ in range(count)
            ]
            chk = fubini_check(phis, weights, bundle)
            assert chk.ok and chk.diff_norm <= 1e-10
        # adapted member in the mix
        rule = lambda t, states: (1.0 + np.tanh(states))[:, None, :] * np.eye(2)[None]
        phis = [
            ElementaryProcess.adapted(part, rule, out_dim=2, in_dim=2),
            ElementaryProcess.deterministic(
                part, [rng.standard_normal((2, 2)) for _ in range(10)]
            ),
        ]
        assert fubini_check(phis, [0.4, 0.6], bundle).ok

        a = np.diag([-1.0, -2.0])
        mild = ou_mild_path(a, sigma, ControlPolicy.constant(1), [0.5, -1.0],
                            0.0, 1.5, 48, 500, seed=10_003)
        for split in (12, 24, 36):
            assert flow_property_discrepancy(mild, a, split) < 1e-10


def test_criterion_11_determinism(tmp_path):
    """Identical configs and seeds give byte-identical reports (no timings)."""
    with criterion(11, "report determinism", 10.0):
        config = {
            "name": "determinism-probe",
            "kind": "moments",
            "sigma": {"dim": 2, "extremes": [[1, 0, 0, 1], [4, 0, 0, 0]],
                      "label": "spread-2d"},
            "params": {"m_max": 3, "n_samples": 20_000},
            "seed": 11_001,
            "output_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        blobs = []
        for _ in range(2):
            report, _ = run_experiment(cfg_path)
            stripped = {k: v for k, v in report.items() if k != "timings"}
            blobs.append(json.dumps(stripped, sort_keys=True).encode())
        assert blobs[0] == blobs[1]
