import math
import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from gexpect import CovarianceSet, g_pde
from gexpect.control_sim import (
    ControlPolicy, McControlSpec, PathBundle, PolicyFamily, estimate_upper_expectation,
    lattice_1d,
)
from gexpect.g_normal import VolatilityBand
from gexpect.g_pde import (
    MeshSpec,
    PdeProblem,
    flow_property_discrepancy,
    mc_values,
    ou_mild_path,
    residual_check,
    solve_gheat,
    solve_gpde,
)
from gexpect.g_pde import (
    CFL_SAFETY, MAX_STENCIL_RADIUS, StencilError, _decompose, _directions, _march, _median,
    _Segments, _Stencil,
)


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
        # f = x: u(0, x) = e^{-lam T} x.  In the mild frame w = f at every t,
        # read at e^{-lam T} x, which a box on either side of 0 may hold
        lam, T = 1.0, 0.5
        for box, x in (((0.5, 2.0), 1.0), ((-2.0, -0.5), -1.0), ((-3.0, 3.0), 1.0)):
            prob = band_problem(lambda p: p[..., 0], T=T, box=(box,),
                                a_gen=np.array([[-lam]]))
            sol = solve_gpde(prob, MeshSpec(nodes=121))
            want = math.exp(-lam * T) * x
            assert sol.value_at(0.0, [x]) == pytest.approx(want, abs=1e-12)
        # a point whose image E(0) x leaves the box has no value
        with pytest.raises(ValueError):
            sol.value_at(0.0, [6.0])

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

    def test_tiny_positive_rate_is_zero(self):
        # rates within the tolerance above 0 are accepted as no transport
        prob = band_problem(f_square, a_gen=np.array([[1e-13]]))
        assert np.array_equal(prob.generator_diag(), [0.0])
        assert not prob.has_transport()

    def test_rejects_nondiagonal_generator(self):
        sigma = CovarianceSet([np.eye(2)])
        with pytest.raises(ValueError):
            PdeProblem(
                2, sigma, lambda p: p[..., 0], 1.0,
                ((-1.0, 1.0), (-1.0, 1.0)),
                a_gen=np.array([[-1.0, 0.3], [0.3, -1.0]]),
            )

    def test_closed_form_converges_at_second_order(self):
        # the gpde config's problem: an ordered set and a convex payoff, so
        # u(0, x) = sum_i q_i e^{2 a_i T} x_i^2 + sum_i Q_ii q_i (e^{2 a_i T} - 1) / (2 a_i)
        # with Q the larger extreme
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])])
        a, q, T = np.array([-1.0, -2.0]), np.array([0.5, 0.3]), 0.5
        prob = PdeProblem(2, sigma, lambda p: (p**2) @ q, T, ((-2.4, 2.4),) * 2,
                          a_gen=np.diag(a))
        probes = np.vstack([[0.3, -0.4], np.random.default_rng(1).uniform(-0.6, 0.6, (10, 2))])
        want = (probes**2) @ (q * np.exp(2 * a * T)) + float(
            np.sum(np.diag(sigma.matrices[0]) * q * np.expm1(2 * a * T) / (2 * a)))
        errors = []
        for nodes in (25, 49, 97):
            sol = solve_gpde(prob, MeshSpec(nodes=nodes))
            errors.append(np.abs([sol.value_at(0.0, x) for x in probes] - want))
        assert errors[1][0] <= 0.003
        # the largest error over the probes falls 4x per halving of h; one
        # probe's share of the multilinear interpolation error, up to
        # sum_a q_a h^2 / 4, depends on where E(0) x sits in its cell, so
        # (0.3, -0.4) alone falls only 2.5x from 25 to 49 nodes
        worst = [float(np.max(e)) for e in errors]
        assert worst[0] >= 3.0 * worst[1] and worst[1] >= 3.0 * worst[2]

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


def corr_psd(rng, n, radius=1.3):
    """Correlated PSD matrix scaled to the given spectral radius."""
    raw = rng.standard_normal((n, n))
    q = raw @ raw.T + 0.2 * np.eye(n)
    return q * (radius / np.linalg.eigvalsh(q)[-1])


def bump(p):
    return np.maximum(0.0, 1.0 - 20.0 * np.linalg.norm(p, axis=-1))


class TestMonotoneScheme:
    # comparison for the ordered pair f = 0 <= g = bump: every slice of the
    # solution for g lies above the one for f
    @pytest.mark.parametrize("extremes", [
        [[[1.0, 0.3], [0.3, 1.0]]],
        [[[1.0, 0.6], [0.6, 1.0]]],
        [[[1.0, 0.9], [0.9, 1.0]]],
        [[[1.0, 0.9], [0.9, 0.85]], [[0.5, -0.2], [-0.2, 0.3]]],  # not diagonally dominant
        *[[corr_psd(np.random.default_rng(seed), 2) for _ in range(3)]
          for seed in range(20)],
        *[[corr_psd(np.random.default_rng(seed), 3) for _ in range(3)]
          for seed in range(6)],
    ])
    def test_ordered_pair_stays_ordered_for_correlated_sets(self, extremes):
        sigma = CovarianceSet(extremes)
        dim, nodes = sigma.dim, (41 if sigma.dim == 2 else 21)
        box = ((-2.0, 2.0),) * dim
        zero = lambda p: np.zeros(p.shape[:-1])
        sf = solve_gheat(PdeProblem(dim, sigma, zero, 0.3, box), MeshSpec(nodes=nodes))
        sg = solve_gheat(PdeProblem(dim, sigma, bump, 0.3, box), MeshSpec(nodes=nodes))
        assert float(np.min(sg.values - sf.values)) >= -1e-12

    @pytest.mark.parametrize("box", [(0.0, 2.0), (-2.0, 0.0)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_maximum_principle_with_the_origin_at_a_box_end(self, dim, box):
        # transport dominates and the data peak next to the origin, at a box
        # end: the segment operators E Q E of a correlated set keep the
        # mild-frame slices within the terminal data's range
        extremes = [0.01 * np.eye(dim), 0.01 * (np.eye(dim) + np.ones((dim, dim)))]
        gen = np.diag([-2.0, -1.0][:dim])
        peak = 0.05 if box[0] == 0.0 else -0.05
        f = lambda p: np.maximum(0.0, 1.0 - 20.0 * np.linalg.norm(p - peak, axis=-1))
        prob = PdeProblem(dim, CovarianceSet(extremes), f, 0.3, (box,) * dim, a_gen=gen)
        sol = solve_gpde(prob, MeshSpec(nodes=31))
        terminal = sol.values[-1]
        assert np.min(terminal) - 1e-12 <= np.min(sol.values[0])
        assert np.max(sol.values[0]) <= np.max(terminal) + 1e-12

    def test_maximum_principle_for_rank_one_extreme(self):
        f = lambda p: np.sin(2.0 * p[..., 0]) * np.cos(3.0 * p[..., 1]) * np.sin(p[..., 2] + 0.5)
        prob = PdeProblem(3, CovarianceSet([np.ones((3, 3))]), f, 1.0, ((-2.0, 2.0),) * 3)
        sol = solve_gheat(prob, MeshSpec(nodes=21))
        assert np.max(np.abs(sol.values[0])) <= np.max(np.abs(sol.values[-1])) + 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dt_comes_from_the_centre_weight(self, dim):
        # diagonal extremes take the axes: rate = max_q sum_a Q_aa / h_a^2 at the
        # terminal time, and every segment's E Q E has a smaller one
        if dim == 1:
            sigma, gen, box, nodes = CovarianceSet([[[1.0]], [[0.25]]]), [-0.8], ((-3.0, 3.0),), 61
        else:
            sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.9])])
            gen, box, nodes = [-1.0, -0.5], ((-2.0, 2.0), (-1.0, 1.5)), (21, 31)
        T = 0.4
        prob = PdeProblem(dim, sigma, lambda p: p[..., 0] ** 2, T, box, a_gen=np.diag(gen))
        sol = solve_gpde(prob, MeshSpec(nodes=nodes))
        h = np.array([ax[1] - ax[0] for ax in sol.axes])
        rate = max(float(np.sum(np.diag(q) / h**2)) for q in sigma.matrices)
        assert sol.dt == T / math.ceil(T * rate / CFL_SAFETY)
        assert sol.cfl_ratio < CFL_SAFETY

    def test_rejects_extreme_without_directions(self):
        # rank one along (1, sqrt 2): no integer direction carries its kernel
        q = np.array([[1.0, math.sqrt(2.0)], [math.sqrt(2.0), 2.0]])
        axes = [np.linspace(-1.0, 1.0, 11)] * 2
        with pytest.raises(StencilError, match=rf"extreme 1 .* <= {MAX_STENCIL_RADIUS}"):
            _decompose([np.eye(2), q], axes)
        prob = PdeProblem(2, CovarianceSet([q]), lambda p: p[..., 0], 0.1,
                          ((-1.0, 1.0),) * 2)
        with pytest.raises(StencilError, match="extreme 0"):
            solve_gheat(prob, MeshSpec(nodes=11))

    def test_a_stretched_extreme_takes_longer_directions(self):
        # E Q E keeps Q's correlation 0.3, but E = diag(1, e) shrinks axis 1
        # against axis 0, and the direction (k, 1) that carries it needs
        # k >= 0.3 / e: within MAX_STENCIL_RADIUS = 8 at e = e^-1, past it at
        # e^-4, where Selling's reduction finds the directions
        q = np.array([[1.0, 0.3], [0.3, 1.0]])
        axes = [np.linspace(-1.0, 1.0, 11)] * 2
        h = np.array([0.2, 0.2])
        for e, radius in ((math.exp(-1.0), (1, MAX_STENCIL_RADIUS)),
                          (math.exp(-4.0), (MAX_STENCIL_RADIUS + 1, 100))):
            flowed = q * np.outer([1.0, e], [1.0, e])
            dirs, weights = _decompose([flowed], axes)
            assert radius[0] <= np.max(np.abs(dirs)) <= radius[1]
            built = np.einsum("j,ja,jb->ab", weights[0], dirs, dirs) * np.outer(h, h)
            assert np.max(np.abs(built - flowed)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_flowed_full_rank_extreme_decomposes(self, dim):
        # random correlated extremes on random grids, flowed by E = exp(s A)
        # with |a| s up to 3: nnls within MAX_STENCIL_RADIUS misses some of
        # them, and Selling's directions carry every one exactly
        rng = np.random.default_rng(70 + dim)
        past = 0
        for _ in range(150):
            axes, extremes, _, _ = random_case(rng, dim, False)
            flow = np.exp(-rng.uniform(0.1, 1.0, dim) * rng.uniform(0.0, 3.0))
            flowed = extremes * np.outer(flow, flow)
            h = np.array([ax[1] - ax[0] for ax in axes])
            dirs, weights = _decompose(flowed, axes)
            lead = dirs[np.arange(len(dirs)), np.argmax(dirs != 0, axis=1)]
            assert np.all(lead > 0) and np.all(np.gcd.reduce(dirs, axis=1) == 1)
            assert len({tuple(v) for v in dirs}) == len(dirs)
            assert np.all(weights >= 0.0)
            for q, w in zip(flowed, weights):
                built = np.einsum("j,ja,jb->ab", w, dirs, dirs) * np.outer(h, h)
                assert np.max(np.abs(built - q)) <= 1e-12 * np.max(np.abs(q))
            past += int(np.max(np.abs(dirs)) > MAX_STENCIL_RADIUS)
        assert past > 0

    def test_rank_one_extreme_is_lost_under_unequal_rates(self):
        # rank one along (1, 1) decomposes at t = T, but its kernel E(t) (1, 1)
        # turns off the integer directions for t < T; equal rates keep it
        sigma = CovarianceSet([np.ones((2, 2))])
        box = ((-1.0, 1.0),) * 2
        f = lambda p: np.cos(p[..., 0] + p[..., 1])
        with pytest.raises(StencilError, match="extreme 0"):
            solve_gpde(PdeProblem(2, sigma, f, 0.2, box, a_gen=np.diag([-1.0, -2.0])),
                       MeshSpec(nodes=11))
        solve_gpde(PdeProblem(2, sigma, f, 0.2, box, a_gen=np.diag([-1.0, -1.0])),
                   MeshSpec(nodes=11))


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

    def test_rejects_an_empty_grid(self, band_1d):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            ou_mild_path(np.diag([-1.0]), band_1d, ControlPolicy.constant(0), 0.0, 0.0,
                         1.0, 0, 10, seed=1)

    def test_flow_property_pathwise(self):
        # pathwise restart identity at an interior time
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])])
        a = np.diag([-1.0, -2.0])
        bundle = ou_mild_path(a, sigma, ControlPolicy.constant(0),
                              [0.5, -1.0], 0.0, 1.5, 48, 200, seed=3)
        for split in (16, 32):
            assert flow_property_discrepancy(bundle, a, split) < 1e-10

    def test_flow_property_fails_off_the_mild_recursion(self):
        # the same increments stepped as x_{k+1} = e^{dt A} x_k + dx_k are not
        # mild paths, and the identity against the stored convolution says so
        sigma = CovarianceSet([np.diag([1.0, 0.5]), np.diag([0.3, 0.2])])
        a = np.diag([-1.0, -2.0])
        mild = ou_mild_path(a, sigma, ControlPolicy.constant(0),
                            [0.5, -1.0], 0.0, 1.5, 48, 200, seed=3)
        decay = np.exp(1.5 / 48 * np.diag(a))
        states = mild.states.copy()
        for k in range(mild.n_steps):
            states[:, k + 1] = decay * states[:, k] + mild.increments[:, k]
        other = PathBundle(mild.times, states, mild.increments, mild.seed, mild.policy,
                           sigma)
        for split in (0, 16, 32):
            assert flow_property_discrepancy(mild, a, split) < 1e-10
            assert flow_property_discrepancy(other, a, split) > 1e-3

    def test_feedback_rule_reads_the_mild_state(self):
        # the bang-bang rule of TestMcValue's feedback test at probe (1, 0.2): the
        # stored paths are the hand mild recursion from the probe, to the bit
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.1, 0.05])])
        a = np.diag([-1.0, -2.0])
        rule = PolicyFamily(bang_bang_stat=lambda s: s[:, 0] - 0.5).build(2)[2].rule
        bundle = ou_mild_path(a, sigma, ControlPolicy.feedback(rule), [1.0, 0.2],
                              0.0, 0.5, 8, 2000, seed=11)
        hand = mild_feedback_terminal(sigma, rule, [1.0, 0.2], np.diag(a), 0.5, 8, 2000,
                                      seed=11)
        assert np.array_equal(bundle.states[:, -1], hand)


def step_set(sigma, diag, dt):
    """The extremes that mc_values walks: Q_ab (1 - e^{-(a_a + a_b) dt}) /
    ((a_a + a_b) dt), the exact OU step covariance per unit dt before the
    decay e^{dt A} (Q_ab where a_a + a_b = 0)."""
    s = (diag[:, None] + diag[None, :]) * dt
    safe = np.where(s == 0.0, 1.0, s)
    factor = np.where(s == 0.0, 1.0, -np.expm1(-safe) / safe)
    return CovarianceSet([q * factor for q in sigma.matrices], label=sigma.label)


def mild_feedback_terminal(sigma, rule, x0, diag, T, steps, n_paths, seed):
    """Terminal states of a feedback policy simulated by hand on the mild
    recursion x_{k+1} = e^{dt A} (x_k + gamma Z_k sqrt(dt)) from x0, the rule
    reading x_k; normals drawn a step at a time from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    dt = T / steps
    decay = np.exp(dt * diag)
    x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    for k in range(steps):
        z = rng.standard_normal((n_paths, sigma.dim))
        idx = np.asarray(rule(k * dt, x))
        dx = np.empty_like(z)
        for i in np.unique(idx):
            dx[idx == i] = (z[idx == i] @ sigma.roots[i].T) * math.sqrt(dt)
        x = decay * (x + dx)
    return x


class TestMcValue:
    def test_constant_payoff(self, band_1d):
        prob = PdeProblem(1, band_1d, lambda p: np.full(p.shape[:-1], 3.0), 1.0,
                          ((-2.0, 2.0),))
        [res] = mc_values(prob, [0.0], 0.0, McControlSpec(steps=8, n_paths=500, seed=4))
        assert res.value == 3.0

    def test_driftless_quadratic_closed_form(self, band_1d):
        # A = 0, f = x^2: value = x0^2 + sigma_up^2 (T - t0)
        prob = PdeProblem(1, band_1d, f_square, 1.0, ((-2.0, 2.0),))
        [res] = mc_values(prob, [0.4], 0.25,
                          McControlSpec(steps=16, n_paths=40_000, seed=5))
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
            [mc] = mc_values(prob, [probe], 0.0, spec)
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
        # freshly built bang-bang rules are new objects: compare the winner by name
        key = lambda est: (est.value, est.stderr, est.policy.describe(), est.per_policy)
        assert [key(est) for est in got] == [key(mc_values(prob, [p], 0.1, spec)[0])
                                             for p in probes]
        walked = step_set(sigma, np.diag(a), 0.4 / 8)
        policies = family.build(len(sigma))
        for probe, mc in zip(probes, got):
            means = []
            for pol in policies:
                ends = ou_mild_path(a, walked, pol, probe, 0.1, 0.5, 8, 400,
                                    seed=7).states[:, -1]
                if pol.kind == "feedback":
                    assert np.array_equal(ends, mild_feedback_terminal(
                        walked, pol.rule, probe, np.diag(a), 0.4, 8, 400, seed=7))
                means.append(float(np.mean(f(ends))))
            best = int(np.argmax(means))
            if policies[best].kind == "feedback":
                assert mc.value == means[best]
            else:
                # mc_values adds the flow e^{(T - t0) A} x0 to a walk from 0, and
                # ou_mild_path carries x0 through the recursion: equal to rounding
                assert mc.value == pytest.approx(means[best], rel=1e-12)

    def test_each_probe_names_its_winning_member(self, band_1d):
        # an estimate is _policy_sup's own: the winner is a member of the family,
        # here a bang-bang rule, and its per_policy entry is the value and stderr
        f = lambda p: np.cos(2.0 * p[..., 0]) + p[..., 0]
        prob = PdeProblem(1, band_1d, f, 0.5, ((-3.0, 3.0),), a_gen=np.array([[-0.8]]))
        family = PolicyFamily(bang_bang_stat=lambda s: np.cos(2.0 * s[:, 0]))
        spec = McControlSpec(steps=16, n_paths=2000, family=family, seed=12)
        names = [pol.describe() for pol in family.build(len(band_1d))]
        got = mc_values(prob, [[-0.6], [0.0], [0.7], [1.2]], 0.0, spec)
        assert all(est.policy.kind == "feedback" for est in got)
        for est in got:
            assert est.policy.describe() in names
            assert [name for name, _, _ in est.per_policy] == names
            entry = {name: (mean, se) for name, mean, se in est.per_policy}
            assert entry[est.policy.describe()] == (est.value, est.stderr)
            assert est.value == max(mean for _, mean, _ in est.per_policy)

    def test_feedback_member_reads_the_mild_state(self):
        # one bang-bang member at probes off 0: its mean is the hand simulation
        # whose rule reads the mild state started at the probe (the driving
        # process from 0 would pick both factors about equally often)
        sigma = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.1, 0.05])])
        a = np.diag([-1.0, -2.0])
        f = lambda p: p[..., 0] ** 2 + p[..., 1]
        prob = PdeProblem(2, sigma, f, 0.5, ((-2.4, 2.4), (-2.4, 2.4)), a_gen=a)
        rule = PolicyFamily(bang_bang_stat=lambda s: s[:, 0] - 0.5).build(2)[2].rule
        spec = McControlSpec(steps=8, n_paths=2000, seed=11,
                             family=[ControlPolicy.feedback(rule)])
        probes = [[1.0, 0.2], [-0.4, 0.3]]
        walked = step_set(sigma, np.diag(a), 0.5 / 8)
        for probe, mc in zip(probes, mc_values(prob, probes, 0.0, spec)):
            hand = f(mild_feedback_terminal(walked, rule, probe, np.diag(a), 0.5, 8, 2000,
                                            seed=11))
            assert mc.value == pytest.approx(float(np.mean(hand)), rel=1e-12)

    def test_steps_have_the_exact_ou_covariance(self):
        # two steps of lambda = -2 over T = 0.5: the left-point recursion's
        # variance is (e^-2 + e^-1) / 4 = 0.126, the OU law's (1 - e^-2) / 4 = 0.216
        lam, T, x0 = -2.0, 0.5, 0.7
        prob = PdeProblem(1, CovarianceSet([[[1.0]]]), f_square, T, ((-3.0, 3.0),),
                          a_gen=np.array([[lam]]))
        spec = McControlSpec(steps=2, n_paths=40_000, seed=13)
        [mc] = mc_values(prob, [[x0]], 0.0, spec)
        want = math.exp(2 * lam * T) * x0**2 + math.expm1(2 * lam * T) / (2 * lam)
        assert abs(mc.value - want) <= 4.0 * mc.stderr
        # and across axes: E[x_1 x_2] = Q_12 (1 - e^{(a_1 + a_2) T}) / -(a_1 + a_2)
        q = np.array([[1.0, 0.6], [0.6, 0.5]])
        a = np.array([-1.0, -3.0])
        prob = PdeProblem(2, CovarianceSet([q]), lambda p: p[..., 0] * p[..., 1], T,
                          ((-3.0, 3.0),) * 2, a_gen=np.diag(a))
        [mc] = mc_values(prob, [[0.0, 0.0]], 0.0, McControlSpec(steps=1, n_paths=40_000,
                                                                 seed=14))
        want = 0.6 * math.expm1((a[0] + a[1]) * T) / (a[0] + a[1])
        assert abs(mc.value - want) <= 4.0 * mc.stderr

    def test_feedback_family_stays_below_the_pde_value(self, band_1d):
        # every member is one admissible control, so the supremum over the menu
        # is at most the viscosity solution, up to the errors of both sides
        lam, T = 0.8, 0.5
        f = lambda p: np.cos(2.0 * p[..., 0]) + p[..., 0]
        prob = PdeProblem(1, band_1d, f, T, ((-3.0, 3.0),), a_gen=np.array([[-lam]]))
        sol = solve_gpde(prob, MeshSpec(nodes=241))
        h = sol.axes[0][1] - sol.axes[0][0]
        family = PolicyFamily(bang_bang_stat=lambda s: np.cos(2.0 * s[:, 0]))
        spec = McControlSpec(steps=32, n_paths=20_000, family=family, seed=12)
        probes = [[-0.6], [0.0], [0.7]]
        for probe, mc in zip(probes, mc_values(prob, probes, 0.0, spec)):
            pde = sol.value_at(0.0, probe)
            assert mc.value <= pde + 3.0 * mc.stderr + 10.0 * (h**2 + sol.dt), probe

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
            mc_values(prob, [0.0], 1.0, McControlSpec(n_paths=10))


# -- the stencil against an np.pad reference -----------------------------------


def _pad(u):
    return np.pad(u, 1, mode="reflect", reflect_type="odd")


def _shift(padded, offsets, depth):
    return padded[tuple(slice(depth + o, n + depth + o)
                        for o, n in zip(offsets, np.array(padded.shape) - 2 * depth))]


def reference_terms(u, axes, extremes, retimed=None):
    """G(D^2 u) and |raw axis second difference|, one extreme at a time.

    G uses the stencil's directions and weights, reads u through a zero
    np.pad as deep as the widest direction that fits in the grid somewhere
    and drops a direction wherever x + v or x - v leaves the grid.  With
    ``retimed``, other extremes of the same count, each extreme's term gains
    1/2 Tr[(retimed - extreme) D^2 u] in centred differences.  Those and the
    axis second differences read np.pad's odd reflection, whose ghosts the
    compared values meet only off the interior."""
    dim = u.ndim
    dirs, weights = _decompose(extremes, axes)
    fits = np.all(np.abs(dirs) < np.array(u.shape), axis=1)
    depth = int(np.max(np.abs(dirs[fits]), initial=1))
    wide = np.pad(u, depth)
    index = np.indices(u.shape)
    seconds = []
    for v, fit in zip(dirs, fits):
        if not fit:
            seconds.append(np.zeros_like(u))
            continue
        ahead, behind = _shift(wide, v, depth), _shift(wide, -v, depth)
        inside = np.all([(i + abs(k) < n) & (i - abs(k) >= 0)
                         for i, k, n in zip(index, v, u.shape)], axis=0)
        seconds.append(np.where(inside, (ahead + behind) - 2.0 * u, 0.0))
    terms = [0.5 * sum(w * s for w, s in zip(row, seconds)) for row in weights]

    padded = _pad(u)

    def at(*steps):
        offsets = [0] * dim
        for axis, step in steps:
            offsets[axis] += step
        return _shift(padded, offsets, 1)

    if retimed is not None:
        h = [ax[1] - ax[0] for ax in axes]
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    hess = (at((a, 1)) - 2.0 * u + at((a, -1))) / h[a] ** 2
                else:
                    hess = (at((a, 1), (b, 1)) - at((a, 1), (b, -1)) - at((a, -1), (b, 1))
                            + at((a, -1), (b, -1))) / (4.0 * h[a] * h[b])
                for term, new, old in zip(terms, retimed, extremes):
                    term += 0.5 * (new[a, b] - old[a, b]) * hess
    jumps = np.max([np.abs(at((a, 1)) - 2.0 * u + at((a, -1))) for a in range(dim)], axis=0)
    return np.max(terms, axis=0), jumps


def segment_extremes(prob, sol, k):
    """E Q E for the step from slice k down: E = exp((T - t) A) at the
    midpoint t of the segment between the checkpoints around the step, which
    sit at the multiples of ceil(n / (isqrt(n) + 1))."""
    n = sol.n_steps
    spacing = -(-n // (math.isqrt(n) + 1))
    lo = (k - 1) // spacing * spacing
    flow = np.exp((prob.T - (lo + min(lo + spacing, n)) / 2 * sol.dt) * prob.generator_diag())
    return prob.sigma.matrices * np.outer(flow, flow)


def reference_residual(solution, problem):
    """residual_check's sampling and kink rule over ``reference_terms``: the
    operator of each step's segment, retimed to the extremes E Q E of the
    sampled slice's own time (the segment's unchanged where they are equal)."""
    n_steps = solution.n_steps
    sample = range(1, n_steps)
    if n_steps > 41:
        sample = np.unique(np.linspace(1, n_steps - 1, 40).astype(int))
    interior = (slice(1, -1),) * problem.dim
    values = solution.values
    worst = 0.0
    for k in sample:
        flow = np.exp((problem.T - k * solution.dt) * problem.generator_diag())
        now = problem.sigma.matrices * np.outer(flow, flow)
        frozen = segment_extremes(problem, solution, k)
        g, jumps = reference_terms(values[k], solution.axes, frozen,
                                   None if np.array_equal(now, frozen) else now)
        u_t = (values[k + 1] - values[k - 1]) / (2.0 * solution.dt)
        resid = np.abs(u_t + g)[interior]
        jumps = jumps[interior]
        smooth = jumps <= 10.0 * float(np.median(jumps))
        if np.any(smooth):
            worst = max(worst, float(resid[smooth].max()))
    return worst


def random_case(rng, dim, transport):
    """Random grid, correlated extremes, and optional transport with one rate
    possibly zero.  Each axis straddles zero, lies above it or lies below it."""
    counts = rng.integers(5, 9, size=dim)
    gen_diag = np.zeros(dim)
    if transport:
        gen_diag = -rng.uniform(0.2, 2.0, size=dim)
        if dim > 1:
            gen_diag[rng.integers(dim)] = 0.0
    free = ((-2.0, 1.5), (0.5, 2.0), (-3.0, -0.5))
    axes = [np.linspace(*free[i], c) for i, c in zip(rng.integers(0, 3, dim), counts)]
    extremes = []
    for _ in range(3):
        raw = rng.standard_normal((dim, dim))
        extremes.append(raw @ raw.T + 0.1 * np.eye(dim))
    u = rng.standard_normal(tuple(counts)) * 3.0
    return axes, np.array(extremes), gen_diag, u


class TestStencil:
    def test_median_is_numpys_bit_for_bit(self):
        # the kink filter's median: odd and even counts, ties, a NaN, and a
        # strided view of the interior as the march hands it over
        rng = np.random.default_rng(17)
        scratch = np.full(2000, -1.0)
        cases = [rng.standard_normal(n) for n in (1, 2, 3, 4, 5, 6, 999, 1000)]
        cases += [rng.integers(0, 4, size=n).astype(float) for n in (7, 8, 400, 401)]
        cases += [np.array([0.3, 0.1, 0.3, 0.2]), np.full(6, 0.5),
                  np.array([0.1, math.nan, 0.2]), rng.uniform(size=(9, 11, 13))[1:-1, 1:-1, 1:-1]]
        for values in cases:
            want = np.median(values)
            got = _median(values, scratch)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), values

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direction_table_is_built_once_and_read_only(self, dim):
        table = _directions(dim)
        assert _directions(dim) is table
        for kept, fresh in zip(table, _directions.__wrapped__(dim)):
            assert not kept.flags.writeable
            assert np.array_equal(kept, fresh)
        # a decomposition hands out its own copy of the directions
        axes = [np.linspace(-1.0, 1.0, 11)] * dim
        dirs, _ = _decompose([np.eye(dim)], axes)
        assert dirs.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_directions_reproduce_the_extremes(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(4):
            axes, extremes, _, _ = random_case(rng, dim, False)
            h = np.array([ax[1] - ax[0] for ax in axes])
            for mats in (extremes, [np.diag(np.diag(q)) for q in extremes]):
                dirs, weights = _decompose(mats, axes)
                lead = dirs[np.arange(len(dirs)), np.argmax(dirs != 0, axis=1)]
                assert np.all(lead > 0) and np.all(np.gcd.reduce(dirs, axis=1) == 1)
                assert len({tuple(v) for v in dirs}) == len(dirs)
                assert np.all(weights >= 0.0) and np.all(np.any(weights > 0.0, axis=0))
                for q, w in zip(mats, weights):
                    built = np.einsum("j,ja,jb->ab", w, dirs, dirs) * np.outer(h, h)
                    assert np.max(np.abs(built - q)) <= 1e-12 * np.max(np.abs(q))
            # diagonal extremes take the axes alone
            assert np.all(np.sum(np.abs(dirs), axis=1) == 1)

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_operator_matches_reference(self, dim, transport):
        # with transport, the extremes are a segment operator's E Q E, E =
        # exp(s A) for some s <= 2, which can stretch a correlated extreme
        # past MAX_STENCIL_RADIUS (Selling's directions); the retimed operator
        # moves them by a further E' = exp(s' A), s' in [-0.3, 0.3]
        rng = np.random.default_rng(10 * dim + transport)
        for _ in range(4):
            axes, extremes, gen_diag, u = random_case(rng, dim, transport)
            flow = np.exp(rng.uniform(0.0, 2.0) * gen_diag)
            extremes = extremes * np.outer(flow, flow)
            g, jumps = reference_terms(u, axes, extremes)
            scale = np.exp(rng.uniform(-0.3, 0.3) * gen_diag)
            retimed, _ = reference_terms(u, axes, extremes,
                                         extremes * np.outer(scale, scale))
            stencil = _Stencil(axes, *_decompose(extremes, axes))
            # the jumps and the retimed G hold at the interior nodes, all
            # residual_check reads
            interior = (slice(1, -1),) * dim
            pairs = [(stencil.g_of_hessian(u).copy(), g),
                     (stencil.jumps()[interior], jumps[interior]),
                     (stencil.retimed(scale)[interior], retimed[interior])]
            for got, want in pairs:
                bound = 1e-12 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residual_matches_reference(self, dim, transport):
        # the residual measured during the march against the one recomputed
        # from the stored slices, on solved random problems
        rng = np.random.default_rng(20 * dim + transport)
        # every slice sampled up to 41 steps, 40 of them beyond
        for steps in (7, 60):
            prob, mesh = random_problem(rng, dim, transport, steps)
            sol = solve_gpde(prob, mesh)
            assert residual_check(sol, prob) == pytest.approx(
                reference_residual(sol, prob), rel=1e-12, abs=1e-12)


def random_problem(rng, dim, transport, steps):
    """A problem on ``random_case``'s grid whose horizon takes about ``steps``
    time steps: smooth terminal data plus a little of its noise, so some
    nodes are kinks."""
    axes, extremes, gen_diag, u = random_case(rng, dim, transport)
    c, d = rng.standard_normal(dim), rng.uniform(0.1, 0.5, dim)
    f = lambda p: np.sin(p @ c) + (p**2) @ d + 0.05 * u
    box = tuple((ax[0], ax[-1]) for ax in axes)
    T = steps * CFL_SAFETY / _Stencil(axes, *_decompose(extremes, axes)).rate
    prob = PdeProblem(dim, CovarianceSet(list(extremes)), f, T, box,
                      a_gen=np.diag(gen_diag))
    return prob, MeshSpec(nodes=tuple(ax.size for ax in axes))


def full_march(prob, sol):
    """Every slice in one (n_steps + 1, ...) array, marched from the terminal
    data with a fresh stencil per step for its segment's extremes: the
    algorithm that kept every slice."""
    points = np.stack(np.meshgrid(*sol.axes, indexing="ij"), axis=-1)
    values = np.empty((sol.n_steps + 1, *points.shape[:-1]))
    values[-1] = prob.terminal_f(points)
    for k in range(sol.n_steps, 0, -1):
        mats = segment_extremes(prob, sol, k)
        stencil = _Stencil(sol.axes, *_decompose(mats, sol.axes))
        np.multiply(stencil.g_of_hessian(values[k]), sol.dt, out=values[k - 1])
        values[k - 1] += values[k]
    return values


class TestTileBudget:
    """The node tiles of the stencil change no bit, though a BLAS product can
    round by the width of its call."""

    @staticmethod
    def solves(monkeypatch, prob, mesh):
        # a budget of 1 makes tiles of two nodes, the fewest; 64 makes tiles
        # of a few nodes, cut inside an axis; 10^9 one tile of the whole grid
        for budget in (1, 64, 10**9):
            monkeypatch.setattr(g_pde, "FOLD_ELEMENTS", budget)
            yield solve_gpde(prob, mesh)

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_budget_does_not_change_the_solve(self, monkeypatch, dim, transport):
        rng = np.random.default_rng(100 + 10 * dim + transport)
        first, *others = self.solves(monkeypatch, *random_problem(rng, dim, transport, 30))
        for sol in others:
            assert np.array_equal(sol.values, first.values)
            assert sol.residual == first.residual

    def test_budget_does_not_change_a_wide_stencil(self, monkeypatch):
        # four correlated extremes take 20 and more directions, a product
        # depth at which a dense BLAS product rounds by the width of its call
        rng = np.random.default_rng(7)
        extremes = [raw @ raw.T + 0.05 * np.eye(3) for raw in rng.standard_normal((4, 3, 3))]
        axes = [np.linspace(-2.0, 2.0, 9)] * 3
        assert len(_decompose(np.array(extremes), axes)[0]) >= 19
        prob = PdeProblem(3, CovarianceSet(extremes), lambda p: np.sin(p @ [1.0, -0.7, 0.4]),
                          0.05, ((-2.0, 2.0),) * 3)
        first, *others = self.solves(monkeypatch, prob, MeshSpec(nodes=9))
        for sol in others:
            assert np.array_equal(sol.values, first.values)
            assert sol.residual == first.residual


class TestCheckpoints:
    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slices_are_bitwise_the_full_march(self, dim, transport):
        rng = np.random.default_rng(50 + 10 * dim + transport)
        for steps in (1, 30):
            prob, mesh = random_problem(rng, dim, transport, steps)
            sol = solve_gpde(prob, mesh)
            reference = full_march(prob, sol)
            assert np.array_equal(sol.values, reference)
            assert all(np.array_equal(sol.time_slice(k), reference[k])
                       for k in range(sol.n_steps + 1))
            y = np.array([0.63 * ax[0] + 0.37 * ax[-1] for ax in sol.axes])
            for k in (0, sol.n_steps // 3, sol.n_steps):
                # slice k holds u(t_k, x) at the node E(t_k) x
                flow = np.exp((prob.T - k * sol.dt) * prob.generator_diag())
                assert np.array_equal(sol.flow(k), flow)
                # the map the CLI checks its probes against
                assert np.array_equal(sol.flow(k), prob.flow(k * sol.dt))
                x = y / flow
                interp = RegularGridInterpolator(sol.axes, reference[k])
                assert sol.value_at(k * sol.dt, x) == float(interp([flow * x])[0])

    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_value_at_is_bitwise_the_grid_interpolator(self, dim, transport):
        rng = np.random.default_rng(70 + 10 * dim + transport)
        prob, mesh = random_problem(rng, dim, transport, 12)
        sol = solve_gpde(prob, mesh)
        lo, hi = (np.array([ax[i] for ax in sol.axes]) for i in (0, -1))
        nodes = [np.array([rng.choice(ax) for ax in sol.axes]) for _ in range(20)]
        edges = [np.where(rng.random(dim) < 0.5, lo, hi) for _ in range(8)]
        faces = [np.where(np.arange(dim) == a, side, rng.uniform(lo, hi))
                 for a in range(dim) for side in (lo[a], hi[a])]
        inner = list(rng.uniform(lo, hi, size=(60, dim)))
        bits = lambda v: np.float64(v).tobytes()
        for k in (0, sol.n_steps // 2, sol.n_steps):
            interp = RegularGridInterpolator(sol.axes, sol.time_slice(k))
            for y in nodes + edges + faces + inner:
                x = y / sol.flow(k)  # read at the node E(t_k) x = y
                want = interp([sol.flow(k) * x])[0]
                assert bits(sol.value_at(k * sol.dt, x)) == bits(want)
        off = np.where(np.arange(dim) == 0, hi + 1e-9, lo)
        for y in (off, np.full(dim, np.nan)):
            with pytest.raises(ValueError, match="outside the grid"):
                sol.value_at(0.0, y / sol.flow(0))
        with pytest.raises(ValueError):
            sol.value_at(0.0, np.zeros(dim + 1))

    def test_value_at_reads_the_nearest_slice_of_the_solved_range(self):
        prob = band_problem(f_square, T=0.3, a_gen=np.array([[-0.5]]))
        sol = solve_gpde(prob, MeshSpec(nodes=41))
        x, dt = np.array([0.7]), sol.dt
        for t in (-dt, prob.T + dt, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"time {re.escape(str(t))} outside"):
                sol.value_at(t, x)
        assert sol.value_at(0.0, x) != sol.value_at(dt, x)
        assert sol.value_at(0.4 * dt, x) == sol.value_at(0.0, x)
        assert sol.value_at(0.6 * dt, x) == sol.value_at(dt, x)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_held_slices_are_bounded(self, dim):
        sigma = CovarianceSet([np.eye(dim), 0.3 * np.eye(dim)])
        for T in (0.001, 0.05, 0.4, 2.0):
            prob = PdeProblem(dim, sigma, lambda p: np.cos(p[..., 0]), T,
                              ((-2.0, 2.0),) * dim)
            sol = solve_gheat(prob, MeshSpec(nodes=11))
            slice_bytes = 11**dim * 8
            assert sol.bytes_held <= (math.isqrt(sol.n_steps) + 2) * slice_bytes
            assert sol.bytes_held >= min(2, sol.n_steps + 1) * slice_bytes
            # a read slice is a copy: writing to it leaves the solution as it was
            sol.time_slice(0)[...] = np.nan
            assert np.all(np.isfinite(sol.time_slice(0)))

    def test_residual_check_needs_the_solved_operator(self):
        prob = band_problem(f_square, T=0.3, a_gen=np.array([[-0.5]]))
        sol = solve_gpde(prob, MeshSpec(nodes=41))
        assert residual_check(sol, prob) == sol.residual
        other_set = PdeProblem(1, CovarianceSet([[[1.0]], [[0.2]]]), f_square, 0.3,
                               ((-3.0, 3.0),), a_gen=np.array([[-0.5]]))
        other_gen = band_problem(f_square, T=0.3, a_gen=np.array([[-0.6]]))
        for other in (other_set, other_gen, band_problem(f_square, T=0.3)):
            with pytest.raises(ValueError, match="differ"):
                residual_check(sol, other)
        with pytest.raises(ValueError, match="interior nodes"):
            residual_check(solve_gpde(prob, MeshSpec(nodes=4)), prob)

    def test_every_marched_slice_must_be_finite(self):
        # finite terminal data whose second differences overflow in the march
        huge = band_problem(lambda p: 1.7e308 * np.cos(4.0 * p[..., 0]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="finite everywhere"):
            solve_gheat(huge, MeshSpec(nodes=21))
        bad = band_problem(lambda p: np.where(p[..., 0] > 1.0, np.nan, 0.0))
        with pytest.raises(ValueError, match="finite everywhere"):
            solve_gheat(bad, MeshSpec(nodes=21))

    def test_march_rejects_an_unstable_step(self):
        axes = [np.linspace(-1.0, 1.0, 11)]
        rate = _Stencil(axes, *_decompose(np.eye(1)[None], axes)).rate
        prob = PdeProblem(1, CovarianceSet([[[1.0]]]), f_square, 3 * 1.01 / rate,
                          ((-1.0, 1.0),))
        segments = _Segments(prob, axes, 3, {})
        with pytest.raises(ValueError, match="unstable configuration"):
            next(_march(segments, np.zeros(11), 3))

    def test_segments_keep_the_centre_weight_nonnegative(self):
        # a correlated set under unequal rates: n_steps is the fixed point over
        # the segment operators, and each stencil the march builds is stable
        sigma = CovarianceSet([[[1.0, 0.9], [0.9, 0.85]], [[0.5, -0.2], [-0.2, 0.3]]])
        prob = PdeProblem(2, sigma, lambda p: np.cos(p[..., 0] - p[..., 1]), 0.5,
                          ((-2.0, 2.0),) * 2, a_gen=np.diag([-0.5, -3.0]))
        sol = solve_gpde(prob, MeshSpec(nodes=21))
        rates = [_Stencil(sol.axes, *_decompose(segment_extremes(prob, sol, k), sol.axes)).rate
                 for k in range(1, sol.n_steps + 1)]
        assert sol.cfl_ratio == pytest.approx(sol.dt * max(rates), rel=1e-15)
        assert sol.dt * max(rates) <= CFL_SAFETY

    def test_each_operator_is_decomposed_once(self, monkeypatch):
        # the plan's decompositions serve the march and every re-march; a zero
        # generator has one operator, decomposed once
        calls = []
        monkeypatch.setattr(g_pde, "_decompose",
                            lambda mats, axes: calls.append(1) or _decompose(mats, axes))
        heat = PdeProblem(2, CovarianceSet([[[1.0, 0.3], [0.3, 0.5]]]),
                          lambda p: np.cos(p[..., 0]), 0.5, ((-2.0, 2.0),) * 2)
        sol = solve_gheat(heat, MeshSpec(nodes=21))
        sol.values, sol.time_slice(1), sol.value_at(0.0, [0.1, 0.2])
        assert len(calls) == 1
        moved = PdeProblem(2, heat.sigma, heat.terminal_f, 0.5, heat.domain_box,
                           a_gen=np.diag([-0.5, -1.0]))
        calls.clear()
        sol = solve_gpde(moved, MeshSpec(nodes=21))
        planned = len(calls)
        sol.values, sol.time_slice(1), sol.value_at(0.0, [0.1, 0.2])
        assert len(calls) == planned


class TestPointDimension:
    """A point is a scalar, repeated in every coordinate, or has one coordinate
    per dimension of its problem."""

    SIGMA = CovarianceSet([np.diag([1.0, 0.25]), 0.5 * np.eye(2)], label="point-2d")
    A = np.diag([-0.5, 0.0])

    def problem(self):
        return PdeProblem(2, self.SIGMA, lambda p: p[..., 0] * p[..., 1], 0.5,
                          ((-2.0, 2.0),) * 2, a_gen=self.A)

    def at(self, entry, point):
        """What ``entry`` gives at the start point ``point`` on the 2-d set."""
        if entry == "estimate_upper_expectation":
            return estimate_upper_expectation(self.SIGMA, lambda x: x[:, 0] * x[:, 1], point,
                                              0.5, 4, 64, PolicyFamily(), seed=3).value
        if entry == "mc_values":
            return mc_values(self.problem(), [point], 0.0,
                             McControlSpec(steps=4, n_paths=64, seed=3))[0].value
        if entry == "ou_mild_path":
            return ou_mild_path(self.A, self.SIGMA, ControlPolicy.constant(0), point, 0.0, 0.5,
                                4, 8, seed=3).states
        return solve_gpde(self.problem(), MeshSpec(nodes=11)).value_at(0.0, point)

    ENTRIES = ["estimate_upper_expectation", "mc_values", "ou_mild_path", "value_at"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("point", [[0.3], [0.3, 0.3, 0.3]], ids=["one", "three"])
    def test_rejects_a_point_of_another_dimension(self, entry, point):
        with pytest.raises(ValueError, match=f"point has {len(point)} coordinates, "
                                             f"the problem has dimension 2"):
            self.at(entry, point)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_scalar_is_the_point_in_every_coordinate(self, entry):
        assert np.array_equal(self.at(entry, 0.3), self.at(entry, [0.3, 0.3]))
        assert np.array_equal(self.at(entry, np.float64(0.3)), self.at(entry, np.array(0.3)))


class TestErrors:
    @staticmethod
    def solved():
        return solve_gheat(band_problem(f_square), MeshSpec(nodes=11))

    @pytest.mark.parametrize("call, exc, match", [
        pytest.param(lambda: PdeProblem(4, CovarianceSet([np.eye(4)]), f_square, 1.0,
                                        ((-1.0, 1.0),) * 4),
                     ValueError, "dim must be 1, 2 or 3, got 4", id="dim-4"),
        pytest.param(lambda: PdeProblem(2, CovarianceSet([[[1.0]]]), f_square, 1.0,
                                        ((-1.0, 1.0),) * 2),
                     ValueError, "covariance set dimension differs", id="set-dimension"),
        pytest.param(lambda: band_problem(f_square, T=0.0),
                     ValueError, "horizon must be positive", id="zero-horizon"),
        pytest.param(lambda: band_problem(f_square, box=((1.0, -1.0),)),
                     ValueError, "domain_box must give a nonempty interval", id="empty-box"),
        pytest.param(lambda: TestErrors.solved().nonexistent,
                     AttributeError, "'GridSolution' object has no attribute 'nonexistent'",
                     id="unknown-attribute"),
        pytest.param(lambda: TestErrors.solved().time_slice(-1),
                     IndexError, r"slice -1 outside 0\.\.", id="slice-out-of-range"),
        pytest.param(lambda: solve_gheat(band_problem(lambda p: 0.0), MeshSpec(nodes=11)),
                     ValueError, r"terminal data must map \(\.\.\.,1\) points to a \(11,\) grid",
                     id="terminal-shape"),
        pytest.param(lambda: ou_mild_path(None, CovarianceSet([[[1.0]]]),
                                          ControlPolicy.constant(0), 0.0, 0.5, 0.5, 4, 8, 0),
                     ValueError, "need T > t0, got t0=0.5, T=0.5", id="empty-interval"),
        pytest.param(lambda: flow_property_discrepancy(
                         ou_mild_path(None, CovarianceSet([[[1.0]]]), ControlPolicy.constant(0),
                                      0.0, 0.0, 1.0, 4, 8, 0), None, 4),
                     ValueError, "split index must be an interior grid index",
                     id="split-at-the-end"),
    ])
    def test_raises(self, call, exc, match):
        with pytest.raises(exc, match=match):
            call()

    @pytest.mark.parametrize("name", ["dt", "extra"], ids=["existing", "new"])
    def test_solution_refuses_assignment_and_keeps_its_fields(self, name):
        sol = self.solved()
        fields = [field for field in g_pde.GridSolution.__slots__ if field != "values"]
        before = {field: getattr(sol, field) for field in fields}
        slice_0 = sol.time_slice(0)
        with pytest.raises(AttributeError, match="GridSolution is immutable"):
            setattr(sol, name, 1.0)
        assert all(getattr(sol, field) is value for field, value in before.items())
        assert not hasattr(sol, "extra")
        assert np.array_equal(sol.time_slice(0), slice_0)
