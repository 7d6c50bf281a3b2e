import math
import warnings

import numpy as np
import pytest

from gexpect import CovarianceSet
from gexpect.control_sim import ControlPolicy, PolicyFamily, lattice_1d
from gexpect.g_normal import VolatilityBand
from gexpect.g_pde import (
    GridSolution,
    McControlSpec,
    MeshSpec,
    PdeProblem,
    flow_property_discrepancy,
    mc_value,
    mc_values,
    ou_mild_path,
    residual_check,
    solve_gheat,
    solve_gpde,
)
from gexpect.g_pde import _Stencil


def band_problem(f, T=0.5, box=((-3.0, 3.0),), a_gen=None):
    sigma = CovarianceSet([[[1.0]], [[0.25]]], label="band")
    return PdeProblem(1, sigma, f, T, box, a_gen=a_gen)


def f_square(p):
    return p[..., 0] ** 2


class TestGHeat:
    def test_linear_terminal_is_invariant(self):
        # linear data has zero Hessian: u(t, x) = f(x) for all t
        prob = band_problem(lambda p: 2.0 * p[..., 0] - 1.0)
        sol = solve_gheat(prob, MeshSpec(nodes=41))
        want = 2.0 * sol.axes[0] - 1.0
        assert np.max(np.abs(sol.values[0] - want)) < 1e-12
        assert residual_check(sol, prob) < 1e-10

    def test_quadratic_band_closed_form(self):
        # u(0, 0) = sigma_up^2 * T for f = x^2 (lattice as oracle)
        prob = band_problem(f_square, T=0.5)
        sol = solve_gheat(prob, MeshSpec(nodes=121))
        tol = 2.0 * ((sol.axes[0][1] - sol.axes[0][0]) ** 2 + sol.dt)
        assert sol.value_at(0.0, [0.0]) == pytest.approx(0.5, abs=tol)
        lattice = lattice_1d(VolatilityBand(1.0, 0.25), lambda x: x**2, 0.0, 0.5, 400)
        assert sol.value_at(0.0, [0.0]) == pytest.approx(lattice, abs=tol)

    def test_classical_heat_kernel_oracle(self):
        # singleton set: E cos(x0 + N(0, s2 T)) = cos(x0) e^{-s2 T/2}
        s2 = 0.49
        sigma = CovarianceSet([[[s2]]])
        prob = PdeProblem(1, sigma, lambda p: np.cos(p[..., 0]), 1.0, ((-3.0, 3.0),))
        sol = solve_gheat(prob, MeshSpec(nodes=161))
        h = sol.axes[0][1] - sol.axes[0][0]
        exact = math.cos(0.2) * math.exp(-s2 / 2.0)
        assert sol.value_at(0.0, [0.2]) == pytest.approx(exact, abs=2.0 * (h**2 + sol.dt))

    def test_refinement_order_at_least_1p8(self):
        s2 = 0.49
        sigma = CovarianceSet([[[s2]]])
        errors = []
        for nodes in (41, 81):
            prob = PdeProblem(1, sigma, lambda p: np.cos(p[..., 0]), 1.0, ((-3.0, 3.0),))
            sol = solve_gheat(prob, MeshSpec(nodes=nodes))
            exact = math.cos(0.2) * math.exp(-s2 / 2.0)
            errors.append(abs(sol.value_at(0.0, [0.2]) - exact))
        order = math.log2(errors[0] / errors[1])
        assert order >= 1.8

    def test_lattice_battery_agreement(self):
        # 1-d battery: PDE and lattice agree within combined tolerances
        fns = {
            "square": (f_square, lambda x: x**2),
            "neg-square": (lambda p: -f_square(p), lambda x: -(x**2)),
            "abs": (lambda p: np.abs(p[..., 0]), np.abs),
            "cos": (lambda p: np.cos(p[..., 0]), np.cos),
        }
        band = VolatilityBand(1.0, 0.25)
        for name, (f_grid, f_line) in fns.items():
            prob = band_problem(f_grid, T=0.5)
            sol = solve_gheat(prob, MeshSpec(nodes=121))
            h = sol.axes[0][1] - sol.axes[0][0]
            lat = lattice_1d(band, f_line, 0.3, 0.5, 600)
            pde = sol.value_at(0.0, [0.3])
            assert abs(pde - lat) < 2.0 * (h**2 + sol.dt) + 6.0 / 600 + 0.01, name

    def test_rejects_transport_problem(self):
        prob = band_problem(f_square, a_gen=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            solve_gheat(prob)

    def test_monotone_in_terminal_data_1d(self):
        rng = np.random.default_rng(17)
        prob_of = lambda f: band_problem(f, T=0.3)
        spec = MeshSpec(nodes=31)
        for _ in range(10):
            c = rng.standard_normal(3)
            f = lambda p, c=c: c[0] * p[..., 0] + c[1] * np.sin(p[..., 0]) + c[2]
            g = lambda p, f=f: f(p) + 0.4 * (1.0 + np.cos(p[..., 0]))
            sf = solve_gheat(prob_of(f), spec)
            sg = solve_gheat(prob_of(g), spec)
            assert np.all(sf.values[0] <= sg.values[0] + 1e-12)

    def test_monotone_in_terminal_data_2d(self):
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])])
        rng = np.random.default_rng(18)
        spec = MeshSpec(nodes=21)
        for _ in range(10):
            c = rng.standard_normal(3)
            f = lambda p, c=c: c[0] * p[..., 0] + c[1] * np.cos(p[..., 1]) + c[2]
            g = lambda p, f=f: f(p) + 0.3 * (1.5 + np.sin(p[..., 0]))
            prob_f = PdeProblem(2, sigma, f, 0.3, ((-2.0, 2.0), (-2.0, 2.0)))
            prob_g = PdeProblem(2, sigma, g, 0.3, ((-2.0, 2.0), (-2.0, 2.0)))
            sf = solve_gheat(prob_f, spec)
            sg = solve_gheat(prob_g, spec)
            assert np.all(sf.values[0] <= sg.values[0] + 1e-12)


class TestGPde:
    def test_linear_profile_transported(self):
        # f = x: u(0, x) = e^{-lam T} x, diffusion term centered out
        lam, T = 1.0, 0.5
        prob = band_problem(lambda p: p[..., 0], T=T, a_gen=np.array([[-lam]]))
        sol = solve_gpde(prob, MeshSpec(nodes=121))
        h = sol.axes[0][1] - sol.axes[0][0]
        want = math.exp(-lam * T) * 1.0
        assert sol.value_at(0.0, [1.0]) == pytest.approx(want, abs=2.0 * (h + sol.dt))

    def test_zero_generator_reduces_to_gheat(self):
        prob_plain = band_problem(f_square, T=0.3)
        prob_zero = band_problem(f_square, T=0.3, a_gen=np.zeros((1, 1)))
        a = solve_gheat(prob_plain, MeshSpec(nodes=41))
        b = solve_gpde(prob_zero, MeshSpec(nodes=41))
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_scalar_ou_closed_form(self):
        # u(0, x) = e^{-2 lam T} x^2 + s_up^2 (1 - e^{-2 lam T})/(2 lam)
        lam, T, x0 = 0.8, 0.5, 0.5
        prob = band_problem(f_square, T=T, a_gen=np.array([[-lam]]))
        sol = solve_gpde(prob, MeshSpec(nodes=241))
        want = math.exp(-2 * lam * T) * x0**2 + 1.0 * (1 - math.exp(-2 * lam * T)) / (2 * lam)
        assert sol.value_at(0.0, [x0]) == pytest.approx(want, abs=0.02)

    def test_rejects_positive_spectrum(self):
        with pytest.raises(ValueError):
            band_problem(f_square, a_gen=np.array([[0.5]]))

    def test_rejects_nondiagonal_generator(self):
        sigma = CovarianceSet([np.eye(2)])
        with pytest.raises(ValueError):
            PdeProblem(
                2, sigma, lambda p: p[..., 0], 1.0,
                ((-1.0, 1.0), (-1.0, 1.0)),
                a_gen=np.array([[-1.0, 0.3], [0.3, -1.0]]),
            )

    def test_residual_small_for_smooth_classical(self):
        s2 = 0.49
        sigma = CovarianceSet([[[s2]]])
        prob = PdeProblem(1, sigma, lambda p: np.cos(p[..., 0]), 0.5, ((-3.0, 3.0),))
        sol = solve_gheat(prob, MeshSpec(nodes=121))
        h = sol.axes[0][1] - sol.axes[0][0]
        assert residual_check(sol, prob) < 10.0 * (h**2 + sol.dt)

    def test_residual_excludes_kink(self):
        prob = band_problem(lambda p: np.abs(p[..., 0]), T=0.5)
        sol = solve_gheat(prob, MeshSpec(nodes=121))
        assert residual_check(sol, prob) < 0.2


class TestOuPaths:
    def test_zero_noise_is_pure_flow(self):
        sigma = CovarianceSet([np.zeros((2, 2))])
        diag = np.array([-1.0, -2.0])
        bundle = ou_mild_path(np.diag(diag), sigma, ControlPolicy.constant(0),
                              [1.0, -0.5], 0.0, 1.0, 16, 8, seed=1)
        want = np.exp(np.outer(bundle.times, diag)) * np.array([1.0, -0.5])
        assert np.max(np.abs(bundle.states - want[None])) < 1e-12

    def test_zero_generator_is_shifted_driver(self, band_1d):
        bundle = ou_mild_path(None, band_1d, ControlPolicy.constant(0),
                              0.7, 0.25, 1.25, 8, 20, seed=2)
        raw = bundle.states - 0.7
        rebuilt = np.cumsum(
            np.concatenate([np.zeros((20, 1, 1)), bundle.increments], axis=1), axis=1
        )
        assert np.allclose(raw, rebuilt, atol=1e-12)
        assert bundle.times[0] == 0.25 and bundle.times[-1] == 1.25

    def test_flow_property_pathwise(self):
        # pathwise restart identity at an interior time
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])])
        a = np.diag([-1.0, -2.0])
        bundle = ou_mild_path(a, sigma, ControlPolicy.constant(0),
                              [0.5, -1.0], 0.0, 1.5, 48, 200, seed=3)
        for split in (16, 32):
            assert flow_property_discrepancy(bundle, a, split) < 1e-10


class TestMcValue:
    def test_constant_payoff(self, band_1d):
        prob = PdeProblem(1, band_1d, lambda p: np.full(p.shape[:-1], 3.0), 1.0,
                          ((-2.0, 2.0),))
        res = mc_value(prob, 0.0, 0.0, McControlSpec(steps=8, n_paths=500, seed=4))
        assert res.value == 3.0

    def test_driftless_quadratic_closed_form(self, band_1d):
        # A = 0, f = x^2: value = x0^2 + sigma_up^2 (T - t0)
        prob = PdeProblem(1, band_1d, f_square, 1.0, ((-2.0, 2.0),))
        res = mc_value(prob, 0.4, 0.25, McControlSpec(steps=16, n_paths=40_000, seed=5))
        want = 0.4**2 + 1.0 * 0.75
        assert abs(res.value - want) <= 3.0 * res.stderr

    def test_2d_cross_validation_against_pde(self):
        # the module's central test: PDE value vs MC representation
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])])
        a = np.diag([-1.0, -2.0])
        f = lambda p: 0.5 * p[..., 0] ** 2 + 0.3 * p[..., 1] ** 2
        prob = PdeProblem(2, sigma, f, 0.5, ((-2.4, 2.4), (-2.4, 2.4)), a_gen=a)
        sol = solve_gpde(prob, MeshSpec(nodes=49))
        h = sol.axes[0][1] - sol.axes[0][0]
        spec = McControlSpec(steps=64, n_paths=20_000, seed=6)
        for probe in ([0.0, 0.0], [0.5, -0.5], [-1.0, 0.4], [0.9, 1.1]):
            mc = mc_value(prob, probe, 0.0, spec)
            pde = sol.value_at(0.0, probe)
            tol = 3.0 * mc.stderr + 10.0 * (h**2 + sol.dt) + 4.0 / spec.steps
            assert abs(pde - mc.value) <= tol, (probe, pde, mc.value, tol)

    @pytest.mark.parametrize("bang_bang", [False, True])
    def test_many_probes_match_one_at_a_time(self, bang_bang):
        # shared simulations must give each probe what its own call gives,
        # which is the supremum over the mild paths started at that probe
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])])
        a = np.diag([-1.0, -2.0])
        f = lambda p: 0.5 * p[..., 0] ** 2 + np.sin(p[..., 1])
        prob = PdeProblem(2, sigma, f, 0.5, ((-2.4, 2.4), (-2.4, 2.4)), a_gen=a)
        family = PolicyFamily(bang_bang_stat=(lambda s: s[:, 0]) if bang_bang else None)
        spec = McControlSpec(steps=8, n_paths=400, family=family, seed=7)
        probes = [[0.0, 0.0], [0.5, -0.5], [-1.0, 0.4]]
        got = mc_values(prob, probes, 0.1, spec)
        assert got == [mc_value(prob, p, 0.1, spec) for p in probes]
        for probe, mc in zip(probes, got):
            means = [
                float(np.mean(f(ou_mild_path(a, sigma, pol, probe, 0.1, 0.5, 8, 400,
                                             seed=7).terminal)))
                for pol in family.build(len(sigma))
            ]
            assert mc.value == max(means)

    def test_single_path_has_zero_stderr(self, band_1d):
        # one sample gives no spread estimate: stderr 0 and no warning, for
        # constant and feedback policies alike
        prob = PdeProblem(1, band_1d, f_square, 0.5, ((-2.0, 2.0),))
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        spec = McControlSpec(steps=4, n_paths=1, family=family, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc_values(prob, [0.0, 0.3], 0.0, spec)
        assert [mc.stderr for mc in got] == [0.0, 0.0]

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_mean_is_never_hidden(self):
        # paths of the zero extreme stay at the probe, where the payoff is 0/0
        f = lambda p: (p[..., 0] - 0.3) / (p[..., 0] - 0.3)
        for extremes in ([[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]):
            prob = PdeProblem(1, CovarianceSet(extremes), f, 0.5, ((-2.0, 2.0),))
            got = mc_values(prob, [0.3], 0.0, McControlSpec(steps=4, n_paths=200))
            assert math.isnan(got[0].value), extremes

    def test_rejects_bad_t0(self, band_1d):
        prob = PdeProblem(1, band_1d, f_square, 1.0, ((-2.0, 2.0),))
        with pytest.raises(ValueError):
            mc_value(prob, 0.0, 1.0, McControlSpec(n_paths=10))


# -- the stencil against an np.pad reference -----------------------------------


def _pad(u):
    return np.pad(u, 1, mode="reflect", reflect_type="odd")


def _shift(padded, offsets):
    return padded[tuple(slice(1 + o, n + 1 + o)
                        for o, n in zip(offsets, np.array(padded.shape) - 2))]


def reference_terms(u, axes, extremes, gen_diag):
    """G(D^2 u), upwind and centered transport and |raw second difference|,
    from np.pad ghosts and one extreme at a time."""
    dim = u.ndim
    h = [ax[1] - ax[0] for ax in axes]
    padded = _pad(u)

    def at(*moves):
        offsets = [0] * dim
        for axis, step in moves:
            offsets[axis] = step
        return _shift(padded, offsets)

    second = [(at((a, 1)) - 2.0 * u + at((a, -1))) / h[a] ** 2 for a in range(dim)]
    cross = {
        (a, b): (at((a, 1), (b, 1)) + at((a, -1), (b, -1))
                 - at((a, 1), (b, -1)) - at((a, -1), (b, 1))) / (4.0 * h[a] * h[b])
        for a in range(dim) for b in range(a + 1, dim)
    }
    g = np.max([
        0.5 * (sum(q[a, a] * second[a] for a in range(dim))
               + sum(2.0 * q[a, b] * c for (a, b), c in cross.items()))
        for q in extremes
    ], axis=0)
    grids = np.meshgrid(*axes, indexing="ij")
    upwind, centered = np.zeros_like(u), np.zeros_like(u)
    for a in range(dim):
        v = gen_diag[a] * grids[a]
        ahead, behind = at((a, 1)), at((a, -1))
        upwind += v * np.where(v > 0.0, (ahead - u) / h[a], (u - behind) / h[a])
        centered += v * (ahead - behind) / (2.0 * h[a])
    jumps = np.max([np.abs(second[a]) * h[a] ** 2 for a in range(dim)], axis=0)
    return g, upwind, centered, jumps


def reference_residual(solution, problem):
    """residual_check's sampling and kink rule over ``reference_terms``."""
    n_steps = solution.n_steps
    sample = range(1, n_steps)
    if n_steps > 41:
        sample = np.unique(np.linspace(1, n_steps - 1, 40).astype(int))
    interior = (slice(1, -1),) * problem.dim
    worst = 0.0
    for k in sample:
        g, _, centered, jumps = reference_terms(
            solution.values[k], solution.axes, problem.sigma.matrices,
            problem.generator_diag())
        u_t = (solution.values[k + 1] - solution.values[k - 1]) / (2.0 * solution.dt)
        resid = np.abs(u_t + g + centered)[interior]
        jumps = jumps[interior]
        smooth = jumps <= 10.0 * float(np.median(jumps))
        if np.any(smooth):
            worst = max(worst, float(resid[smooth].max()))
    return worst


def random_case(rng, dim, transport):
    """Random grid whose axes straddle zero, lie above it or lie below it,
    correlated extremes, and optional transport with one rate possibly zero."""
    counts = rng.integers(5, 9, size=dim)
    boxes = [((-2.0, 1.5), (0.5, 2.0), (-3.0, -0.5))[i] for i in rng.integers(0, 3, dim)]
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(boxes, counts)]
    extremes = []
    for _ in range(3):
        raw = rng.standard_normal((dim, dim))
        extremes.append(raw @ raw.T + 0.1 * np.eye(dim))
    gen_diag = np.zeros(dim)
    if transport:
        gen_diag = -rng.uniform(0.2, 2.0, size=dim)
        if dim > 1:
            gen_diag[rng.integers(dim)] = 0.0
    u = rng.standard_normal(tuple(counts)) * 3.0
    return axes, np.array(extremes), gen_diag, u


class TestStencil:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ghosts_are_np_pad_odd_reflection(self, dim):
        rng = np.random.default_rng(30 + dim)
        axes, extremes, gen_diag, u = random_case(rng, dim, False)
        stencil = _Stencil(axes, extremes, gen_diag)
        stencil.load(u)
        assert np.array_equal(stencil.padded, _pad(u))

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_operator_matches_reference(self, dim, transport):
        rng = np.random.default_rng(10 * dim + transport)
        for _ in range(4):
            axes, extremes, gen_diag, u = random_case(rng, dim, transport)
            g, upwind, centered, jumps = reference_terms(u, axes, extremes, gen_diag)
            stencil = _Stencil(axes, extremes, gen_diag)
            for got, want in [(stencil.rhs(u).copy(), g + upwind),
                              *zip(stencil.residual_terms(u), (g + centered, jumps))]:
                bound = 1e-12 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residual_matches_reference(self, dim, transport):
        rng = np.random.default_rng(20 * dim + transport)
        axes, extremes, gen_diag, u = random_case(rng, dim, transport)
        box = tuple((ax[0], ax[-1]) for ax in axes)
        prob = PdeProblem(dim, CovarianceSet(list(extremes)), lambda p: p[..., 0],
                          1.0, box, a_gen=np.diag(gen_diag))
        values = np.stack([u + 0.1 * k * np.sin(u) for k in range(6)])
        sol = GridSolution(axes, 0.01, values, cfl_ratio=0.5)
        assert residual_check(sol, prob) == pytest.approx(
            reference_residual(sol, prob), rel=1e-12, abs=1e-12)
