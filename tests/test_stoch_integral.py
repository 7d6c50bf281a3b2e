import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc

from gexpect import CovarianceSet, stoch_integral
from gexpect.control_sim import ControlPolicy, PolicyFamily, _walk, simulate_gbm
from gexpect.g_normal import GNormal, gaussian_even_moment, project_band
from gexpect.stoch_integral import (
    BDG_CONSTANTS,
    ElementaryProcess,
    bdg_check,
    convolution_condition,
    convolution_path,
    fubini_check,
    integrate_elementary,
    ito_isometry_check,
    sigma_of_integral,
)

from conftest import random_psd


class TestIntegrate:
    def test_identity_integrand_telescopes(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 30, 8, 1.0, seed=1)
        phi = ElementaryProcess.constant(1.0, np.eye(1), steps=8)
        res = integrate_elementary(phi, bundle)
        assert np.allclose(res.values, bundle.terminal, atol=1e-14)

    def test_zero_integrand(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 30, 8, 1.0, seed=1)
        phi = ElementaryProcess.constant(1.0, np.zeros((1, 1)), steps=8)
        res = integrate_elementary(phi, bundle)
        assert np.array_equal(res.values, np.zeros((30, 1)))
        assert np.array_equal(res.integrand_sq_paths, np.zeros(30))

    def test_classical_isometry_oracle(self):
        # Cov(I_T) = sum_k dt Phi_k Q Phi_k^T for a classical
        # Wiener driver (singleton set, constant policy)
        q = np.array([[1.0, 0.2], [0.2, 0.6]])
        cs = CovarianceSet([q])
        steps, T, n = 4, 1.0, 80_000
        bundle = simulate_gbm(cs, ControlPolicy.constant(0), n, steps, T, seed=5)
        blocks = [np.diag([1.0, 0.5]), np.diag([2.0, 1.0]),
                  np.diag([0.5, 0.2]), np.diag([1.5, 0.7])]
        phi = ElementaryProcess.deterministic(np.linspace(0, T, steps + 1), blocks)
        res = integrate_elementary(phi, bundle)
        dt = T / steps
        want = sum(dt * b @ q @ b.T for b in blocks)
        emp = res.values.T @ res.values / n
        assert np.linalg.norm(emp - want) < 0.05

    def test_linearity_per_path(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(1), 40, 8, 1.0, seed=3)
        part = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(0)
        b1 = [rng.standard_normal((1, 1)) for _ in range(8)]
        b2 = [rng.standard_normal((1, 1)) for _ in range(8)]
        phi1 = ElementaryProcess.deterministic(part, b1)
        phi2 = ElementaryProcess.deterministic(part, b2)
        alpha = 2.0
        combo = ElementaryProcess.deterministic(
            part, [alpha * a + b for a, b in zip(b1, b2)]
        )
        lhs = integrate_elementary(combo, bundle).values
        rhs = (
            alpha * integrate_elementary(phi1, bundle).values
            + integrate_elementary(phi2, bundle).values
        )
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_partition_must_refine_grid(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 8, 1.0, seed=1)
        phi = ElementaryProcess.constant(1.0, np.eye(1), steps=3)
        with pytest.raises(ValueError):
            integrate_elementary(phi, bundle)

    def test_coarse_partition_on_fine_grid(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 8, 1.0, seed=1)
        phi = ElementaryProcess.constant(1.0, 2.0 * np.eye(1), steps=4)
        res = integrate_elementary(phi, bundle)
        assert np.allclose(res.values, 2.0 * bundle.terminal, atol=1e-14)

    def test_shift_invariance_in_time_origin(self, band_1d):
        # the integral depends on increments only: relabeling the grid by a
        # constant offset leaves every path value bit-identical
        from gexpect.control_sim import PathBundle

        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 20, 6, 1.0, seed=2)
        shifted = PathBundle(bundle.times + 0.75, bundle.states, bundle.increments,
                             bundle.seed, bundle.policy, bundle.sigma)
        rng = np.random.default_rng(8)
        blocks = [rng.standard_normal((1, 1)) for _ in range(6)]
        phi = ElementaryProcess.deterministic(bundle.times, blocks)
        phi_shift = ElementaryProcess.deterministic(bundle.times + 0.75, blocks)
        a = integrate_elementary(phi, bundle).values
        b = integrate_elementary(phi_shift, shifted).values
        assert np.array_equal(a, b)

    def test_adapted_rule_sees_left_endpoint_state(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 12, 4, 1.0, seed=7)
        seen = []

        def rule(t, states):
            seen.append((t, states.copy()))
            return np.ones((states.shape[0], 1, 1))

        phi = ElementaryProcess.adapted(bundle.times.copy(), rule, out_dim=1, in_dim=1)
        integrate_elementary(phi, bundle)
        assert [t for t, _ in seen] == pytest.approx(list(bundle.times[:-1]))
        for k, (_, states) in enumerate(seen):
            assert np.array_equal(states, bundle.states[:, k, :])


class TestIsometry:
    def test_constant_block_equality_case(self, nested_2d):
        # single-block computation: lhs = T max_Q Tr[Phi Q Phi^T]
        # equality because the extremes are ordered, so one Q attains every sup
        phi0 = np.array([[1.0, 0.5], [0.0, 1.0]])
        phi = ElementaryProcess.constant(2.0, phi0, steps=4)
        chk = ito_isometry_check(phi, nested_2d, PolicyFamily(), 60_000, seed=9)
        want = 2.0 * max(
            float(np.trace(phi0 @ q @ phi0.T)) for q in nested_2d.matrices
        )
        assert chk.rhs == pytest.approx(want, rel=1e-12)
        assert abs(chk.lhs - chk.rhs) <= 3.0 * chk.stderr
        assert chk.ok

    def test_zero_integrand(self, band_1d):
        phi = ElementaryProcess.constant(1.0, np.zeros((1, 1)), steps=2)
        chk = ito_isometry_check(phi, band_1d, PolicyFamily(), 500, seed=2)
        assert (chk.lhs, chk.rhs, chk.ok) == (0.0, 0.0, True)

    def test_random_adapted_trials(self, band_1d):
        # inequality property test over 20 randomized adapted
        # integrands; no fixed value, just the inequality with MC slack
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        part = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(31)
        for trial in range(20):
            coeffs = rng.uniform(0.5, 2.0, size=3)

            def rule(t, states, c=coeffs):
                vals = c[0] + c[1] * np.tanh(c[2] * states[:, 0])
                return vals[:, None, None]

            phi = ElementaryProcess.adapted(part, rule, out_dim=1, in_dim=1)
            chk = ito_isometry_check(phi, band_1d, family, 4000, seed=100 + trial)
            assert chk.ok, f"trial {trial}: lhs={chk.lhs} rhs={chk.rhs}"


def _l2sigma_reference(block, roots):
    """The broadcast form: every (path, extreme) product as its own matmul."""
    if block.ndim == 2:
        return max(float(np.sum((block @ g) ** 2)) for g in roots)
    prod = np.matmul(block[:, None], roots[None])
    return np.max(np.sum(prod * prod, axis=(2, 3)), axis=1)


class TestL2SigmaPerPath:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_broadcast_form(self, dim, k):
        rng = np.random.default_rng(10 * dim + k)
        roots = CovarianceSet([random_psd(rng, dim) for _ in range(k)]).roots
        for out_dim in sorted({1, dim, dim + 2}):
            block = rng.standard_normal((50, out_dim, dim))
            got = stoch_integral._l2sigma_sq_per_path(block, roots)
            assert got.shape == (50,)
            assert got == pytest.approx(_l2sigma_reference(block, roots), rel=1e-13)
            flat = stoch_integral._l2sigma_sq_per_path(block[0], roots)
            assert flat == pytest.approx(_l2sigma_reference(block[0], roots), rel=1e-13)


    def test_row_sums_are_numpys_bit_for_bit(self):
        # the per-path squares are summed a column at a time, which must keep
        # every bit of numpy's row sum, for short rows and long ones
        rng = np.random.default_rng(12)
        roots = CovarianceSet([random_psd(rng, 3) for _ in range(2)]).roots
        for width in range(1, 13):
            rows = rng.standard_normal((301, width)) * rng.uniform(0.1, 10.0, (301, width))
            got = stoch_integral._row_sums(rows)
            assert got.tobytes() == np.sum(rows, axis=1).tobytes()
        for out_dim in (1, 2, 3, 4):
            block = rng.standard_normal((301, out_dim, 3))
            flat = block.reshape(-1, 3)
            want = np.max([np.sum((flat @ g).reshape(301, -1) ** 2, axis=1) for g in roots],
                          axis=0)
            assert stoch_integral._l2sigma_sq_per_path(block, roots).tobytes() == want.tobytes()


class TestBdg:
    def test_p2_reduces_to_isometry(self, nested_2d):
        phi = ElementaryProcess.constant(1.0, np.eye(2), steps=4)
        iso = ito_isometry_check(phi, nested_2d, PolicyFamily(), 20_000, seed=4)
        bdg = bdg_check(phi, nested_2d, 2, PolicyFamily(), 20_000, seed=4)
        assert (iso.lhs, iso.rhs, iso.ok, iso.stderr) == (bdg.lhs, bdg.rhs, bdg.ok,
                                                          bdg.stderr)
        assert BDG_CONSTANTS[2] == 1.0

    def test_p2_reduces_to_isometry_adapted(self, band_1d):
        # bit for bit under the bang-bang menu too, where the rhs is random
        rule = lambda t, s: (1.0 + 0.5 * np.tanh(s[:, 0]))[:, None, None]
        phi = ElementaryProcess.adapted(np.linspace(0.0, 1.0, 9), rule, out_dim=1, in_dim=1)
        family = PolicyFamily(bang_bang_stat=lambda s: s[:, 0])
        iso = ito_isometry_check(phi, band_1d, family, 4000, seed=21)
        bdg = bdg_check(phi, band_1d, 2, family, 4000, seed=21)
        assert (iso.lhs, iso.rhs, iso.ok, iso.stderr) == (bdg.lhs, bdg.rhs, bdg.ok,
                                                          bdg.stderr)

    def test_zero_integrand(self, band_1d):
        phi = ElementaryProcess.constant(1.0, np.zeros((1, 1)), steps=2)
        chk = bdg_check(phi, band_1d, 4, PolicyFamily(), 400, seed=3)
        assert (chk.lhs, chk.rhs, chk.ok, chk.cp_estimate) == (0.0, 0.0, True, 0.0)

    def test_p4_constant_block_hits_gaussian_ratio(self):
        # Gaussian fourth-moment oracle: for a scalar Gaussian
        # integral the ratio lhs/rhs is exactly 3
        cs = CovarianceSet([np.array([[0.7]])])
        phi = ElementaryProcess.constant(1.5, np.array([[1.2]]), steps=3)
        chk = bdg_check(phi, cs, 4, PolicyFamily(), 200_000, seed=8)
        var = 1.5 * 1.2**2 * 0.7
        oracle = gaussian_even_moment(np.array([[var]]), 2) / var**2
        assert oracle == pytest.approx(3.0)
        assert chk.cp_estimate == pytest.approx(3.0, rel=0.05)
        assert chk.ok

    def test_p1_deterministic(self, nested_2d):
        phi = ElementaryProcess.constant(1.0, np.eye(2), steps=2)
        chk = bdg_check(phi, nested_2d, 1, PolicyFamily(), 20_000, seed=5)
        assert chk.ok and chk.cp_estimate <= 1.0

    def test_unsupported_p(self, band_1d):
        phi = ElementaryProcess.constant(1.0, np.eye(1), steps=2)
        with pytest.raises(ValueError):
            bdg_check(phi, band_1d, 3, PolicyFamily(), 100, seed=0)


class TestSigmaOfIntegral:
    def test_constant_integrand(self, spread_2d):
        # Phi = I gives {T Q}
        out = sigma_of_integral(lambda t: np.eye(2), spread_2d, T=2.0, quad_steps=16)
        for got, q in zip(out.matrices, spread_2d.matrices):
            assert np.allclose(got, 2.0 * q, atol=1e-12)

    def test_scalar_semigroup_closed_form(self):
        # closed form q (e^{2aT} - 1) / (2a) at 1e4 midpoint steps
        a, q, T = -0.8, 0.9, 1.5
        cs = CovarianceSet([np.array([[q]])])
        out = sigma_of_integral(
            lambda t: np.array([[math.exp((T - t) * a)]]), cs, T, quad_steps=10_000
        )
        want = q * (math.exp(2 * a * T) - 1.0) / (2 * a)
        assert out.matrices[0][0, 0] == pytest.approx(want, rel=1e-6)

    def test_empirical_covariance_matches_matching_extreme(self, nested_2d):
        # simulation oracle: covariance of I under constant policy i
        # approaches extreme i of the integral set
        T, steps, n = 1.0, 32, 60_000
        a_diag = np.array([-0.5, -1.0])
        phi_fn = lambda t: np.diag(np.exp((T - t) * a_diag))
        sigma_i = sigma_of_integral(phi_fn, nested_2d, T, quad_steps=4000)
        part = np.linspace(0.0, T, steps + 1)
        blocks = [phi_fn(t) for t in part[:-1]]
        phi = ElementaryProcess.deterministic(part, blocks)
        for i in range(len(nested_2d)):
            bundle = simulate_gbm(nested_2d, ControlPolicy.constant(i), n, steps, T, seed=40 + i)
            vals = integrate_elementary(phi, bundle).values
            emp = vals.T @ vals / n
            assert np.linalg.norm(emp - sigma_i.matrices[i]) < 0.05

    @pytest.mark.parametrize("out_dim", [1, 2, 3])
    def test_blocks_are_bitwise_the_midpoint_loop(self, spread_2d, monkeypatch, out_dim):
        # the loop that formed and added one midpoint term at a time; a budget
        # of 40 values cuts 101 midpoints into blocks of a few terms
        T, steps = 1.3, 101
        raw = np.random.default_rng(8).standard_normal((2, out_dim, 2))
        phi_fn = lambda t: raw[0] * math.cos(t) + raw[1] * t
        mids = (np.arange(steps) + 0.5) * (T / steps)
        for budget in (40, 10**9):
            monkeypatch.setattr(stoch_integral, "FOLD_ELEMENTS", budget)
            got = sigma_of_integral(phi_fn, spread_2d, T, steps)
            for q, out in zip(spread_2d.matrices, got.matrices):
                acc = np.zeros((out_dim, out_dim))
                for t in mids:
                    acc += phi_fn(t) @ q @ phi_fn(t).T
                acc *= T / steps
                assert np.array_equal(out, (acc + acc.T) / 2.0)

    def test_integrals_keep_every_extreme_that_the_set_merges(self):
        # both integrals underflow to zero: the set keeps one, the list both
        cs = CovarianceSet([np.eye(2), 0.25 * np.eye(2)])
        phi_fn = lambda t: np.diag(np.exp((1.0 - t) * np.array([-1e300, -1e300])))
        merged = sigma_of_integral(phi_fn, cs, 1.0, 8)
        each = stoch_integral._integrals(phi_fn, cs, 1.0, 8)
        assert len(merged) == 1 and len(each) == 2
        assert all(np.array_equal(m, merged.matrices[0]) for m in each)

    def test_power_of_two_scaling_is_exact(self, spread_2d):
        phi_fn = lambda t: np.array([[1.0 + t, 0.3], [0.0, 1.0 - 0.5 * t]])
        base = sigma_of_integral(phi_fn, spread_2d, 1.0, 64)
        scaled = sigma_of_integral(lambda t: 2.0 * phi_fn(t), spread_2d, 1.0, 64)
        for got, b in zip(scaled.matrices, base.matrices):
            assert np.array_equal(got, 4.0 * b)

    def test_midpoint_second_order_convergence(self, spread_2d):
        phi_fn = lambda t: np.array([[math.cos(t), 0.2], [0.1, math.sin(t) + 1.5]])
        for steps in (16, 32, 64):
            a = sigma_of_integral(phi_fn, spread_2d, 1.0, steps)
            b = sigma_of_integral(phi_fn, spread_2d, 1.0, 2 * steps)
            change = max(
                np.linalg.norm(x - y) for x, y in zip(a.matrices, b.matrices)
            )
            assert change < 2.0 / steps**2

    def test_integral_law_band_matches_simulation(self, nested_2d):
        # the integral with nonrandom integrand is again a centered law with
        # covariance set Sigma_I; its projection band must match the policy
        # supremum of simulated directional second moments
        T, steps, n = 1.0, 16, 50_000
        phi_fn = lambda t: np.array([[1.0, 0.5 * t], [0.0, 1.0 + t]])
        sigma_i = sigma_of_integral(phi_fn, nested_2d, T, quad_steps=2000)
        h = np.array([0.8, -0.6])
        band = project_band(GNormal(sigma_i), h)
        part = np.linspace(0.0, T, steps + 1)
        phi = ElementaryProcess.deterministic(part, [phi_fn(t) for t in part[:-1]])
        best, best_se = -math.inf, 0.0
        for i in range(len(nested_2d)):
            bundle = simulate_gbm(nested_2d, ControlPolicy.constant(i), n, steps, T, seed=60)
            proj = integrate_elementary(phi, bundle).values @ h
            mean = float(np.mean(proj**2))
            if mean > best:
                best = mean
                best_se = float(np.std(proj**2, ddof=1) / math.sqrt(n))
        # discretization bias of the left-point blocks is O(1/steps)
        assert abs(best - band.sigma_up_sq) <= 3.0 * best_se + 0.5 / steps


class TestFubini:
    def test_single_point_is_bitwise(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 25, 6, 1.0, seed=11)
        phi = ElementaryProcess.constant(1.0, np.array([[1.7]]), steps=6)
        chk = fubini_check([phi], [1.0], bundle)
        assert chk.diff_norm == 0.0 and chk.ok

    def test_two_weighted_points(self, spread_2d):
        bundle = simulate_gbm(spread_2d, ControlPolicy.constant(0), 40, 6, 1.0, seed=12)
        part = np.linspace(0.0, 1.0, 7)
        rng = np.random.default_rng(2)
        phi_a = ElementaryProcess.deterministic(
            part, [rng.standard_normal((2, 2)) for _ in range(6)]
        )
        phi_b = ElementaryProcess.deterministic(
            part, [rng.standard_normal((2, 2)) for _ in range(6)]
        )
        chk = fubini_check([phi_a, phi_b], [0.5, 0.5], bundle)
        assert chk.ok and chk.diff_norm < 1e-10

    def test_zero_weights(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 4, 1.0, seed=13)
        phi = ElementaryProcess.constant(1.0, np.array([[2.0]]), steps=4)
        chk = fubini_check([phi, phi], [0.0, 0.0], bundle)
        assert chk.diff_norm == 0.0 and chk.ok

    def test_adapted_members(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(1), 30, 5, 1.0, seed=14)
        part = bundle.times.copy()

        def rule(t, states):
            return (1.0 + states**2)[:, None, :]

        phi_a = ElementaryProcess.adapted(part, rule, out_dim=1, in_dim=1)
        phi_b = ElementaryProcess.constant(1.0, np.array([[0.5]]), steps=5)
        chk = fubini_check([phi_a, phi_b], [0.3, 0.7], bundle)
        assert chk.ok

    def test_mismatched_partitions_rejected(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 4, 1.0, seed=15)
        phi_a = ElementaryProcess.constant(1.0, np.array([[1.0]]), steps=4)
        phi_b = ElementaryProcess.constant(1.0, np.array([[1.0]]), steps=2)
        with pytest.raises(ValueError):
            fubini_check([phi_a, phi_b], [0.5, 0.5], bundle)


class TestConvolution:
    def test_zero_generator_returns_paths(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 20, 8, 1.0, seed=21)
        conv = convolution_path(np.zeros((1, 1)), bundle)
        assert np.array_equal(conv, bundle.states)

    def test_scalar_ou_variance(self):
        # scalar stationary-variance formula q(1 - e^{-2 lam t})/(2 lam)
        lam, q, T, steps, n = 1.0, 0.8, 1.0, 200, 50_000
        cs = CovarianceSet([np.array([[q]])])
        bundle = simulate_gbm(cs, ControlPolicy.constant(0), n, steps, T, seed=22)
        conv = convolution_path(np.array([[-lam]]), bundle)
        for frac in (0.5, 1.0):
            k = int(frac * steps)
            var = float(np.var(conv[:, k, 0]))
            want = q * (1.0 - math.exp(-2 * lam * bundle.times[k])) / (2 * lam)
            assert var == pytest.approx(want, abs=0.01)

    def test_variance_monotone_and_bounded(self):
        lam, q = 2.0, 1.0
        cs = CovarianceSet([np.array([[q]])])
        bundle = simulate_gbm(cs, ControlPolicy.constant(0), 40_000, 100, 2.0, seed=23)
        conv = convolution_path(np.array([[-lam]]), bundle, substeps=10)
        variances = np.var(conv[:, :, 0], axis=0)
        bound = q / (2 * lam)
        assert np.all(variances <= bound + 3.0 * bound / math.sqrt(40_000) + 5e-3)
        smooth = variances[[0, 2, 5, 10]]
        assert np.all(np.diff(smooth) > -5e-3)

    def test_substeps_thin_the_grid(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 8, 1.0, seed=24)
        fine = convolution_path(np.array([[-0.5]]), bundle)
        coarse = convolution_path(np.array([[-0.5]]), bundle, substeps=4)
        assert coarse.shape == (10, 3, 1)
        assert np.array_equal(coarse, fine[:, ::4, :])

    def test_grid_mismatch(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 8, 1.0, seed=24)
        with pytest.raises(ValueError):
            convolution_path(np.array([[-0.5]]), bundle, substeps=3)

    def test_rejects_nondiagonal_generator(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 5, 4, 1.0, seed=1)
        with pytest.raises(ValueError):
            convolution_path(np.array([[0.0, 0.1], [0.1, 0.0]]), bundle)


class TestStreaming:
    """A streamed walk folds to the same bits as its stored bundle."""

    POLICY = ControlPolicy.feedback(lambda t, states: (states[:, 1] >= 0.0).astype(int))

    @pytest.mark.parametrize("form", ["deterministic", "adapted"])
    def test_integral(self, spread_2d, form):
        # a strict subset of the grid, not starting at 0, ending before T, with
        # blocks of 1, 3 and 4 steps
        n, steps, T = 400, 12, 1.2
        times = np.linspace(0.0, T, steps + 1)
        part = times[[2, 3, 6, 10]]
        if form == "deterministic":
            rng = np.random.default_rng(4)
            phi = ElementaryProcess.deterministic(
                part, [rng.standard_normal((3, 2)) for _ in range(3)])
        else:
            phi = ElementaryProcess.adapted(
                part, lambda t, x: np.tanh(x)[:, None, :] + t * np.ones((1, 3, 2)), 3, 2)
        stored = integrate_elementary(
            phi, simulate_gbm(spread_2d, self.POLICY, n, steps, T, seed=8))
        streamed = stoch_integral._integrate(
            phi, spread_2d, times, _walk(spread_2d, self.POLICY, n, steps, T, seed=8))
        assert np.array_equal(streamed.values, stored.values)
        assert np.array_equal(streamed.integrand_sq_paths, stored.integrand_sq_paths)

    @pytest.mark.parametrize("substeps", [1, 4])
    def test_convolution(self, spread_2d, substeps):
        # the stored fold and the mild walk from 0 are one recursion; a feedback
        # rule would read different states on the two sides, by design
        n, steps, T = 300, 8, 1.0
        a = np.diag([-0.5, -2.0])
        table = ControlPolicy.time_table([0, 1, 1, 0, 1, 0, 0, 1])
        for policy in (ControlPolicy.constant(1), table):
            stored = convolution_path(a, simulate_gbm(spread_2d, policy, n, steps, T,
                                                      seed=9), substeps=substeps)
            streamed = [(k + 1, x.copy()) for k, _, _, _, x in _walk(
                spread_2d, policy, n, steps, T, seed=9, rates=np.diag(a))
                if (k + 1) % substeps == 0]
            assert [k for k, _ in streamed] == list(range(substeps, steps + 1, substeps))
            for k, conv in streamed:
                assert np.array_equal(conv, stored[:, k // substeps, :])


class TestScalarIsometrySum:
    """While every block is deterministic the isometry quantity is one sum."""

    def test_scalar_sum_is_the_per_path_sum(self, spread_2d):
        n, steps, T = 301, 6, 1.0
        times = np.linspace(0.0, T, steps + 1)
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((3, 2)) for _ in range(steps)]
        phi = ElementaryProcess.deterministic(times, blocks)
        bundle = simulate_gbm(spread_2d, ControlPolicy.constant(0), n, steps, T, seed=4)
        result = integrate_elementary(phi, bundle)
        # the scalar sum spread over the paths is the per-path sum
        acc = np.zeros(n)
        for block in blocks:
            acc = acc + T / steps * stoch_integral._l2sigma_sq_per_path(
                block, spread_2d.roots)
        assert np.array_equal(result.integrand_sq_paths, acc)


class TestConvolutionCondition:
    def test_scalar_incomplete_gamma_oracle(self, spread_2d):
        # sup Tr Q * (2 lam)^(beta - 1) * lower_gamma(1 - beta, 2 lam T)
        lam, beta, T = 0.7, 0.4, 2.0
        res = convolution_condition(-lam * np.eye(2), spread_2d, beta, T, 4000)
        a = 1.0 - beta
        oracle = spread_2d.max_trace() * (2 * lam) ** (beta - 1.0) * (
            gammainc(a, 2 * lam * T) * gamma_fn(a)
        )
        assert res.finite
        assert res.value == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("beta, steps", [(0.5, 10), (0.4, 4000), (0.95, 3)])
    def test_finite_is_the_refinements_within_the_tolerance(self, spread_2d, beta, steps):
        res = convolution_condition(-0.7 * np.eye(2), spread_2d, beta, 2.0, steps)
        fine = convolution_condition(-0.7 * np.eye(2), spread_2d, beta, 2.0, 2 * steps)
        assert res.tolerance == 1e-4 * abs(res.value)
        assert res.finite == (abs(res.value - res.coarse) <= res.tolerance)
        assert res.value == fine.coarse

    def test_zero_set(self):
        cs = CovarianceSet([np.zeros((2, 2))])
        res = convolution_condition(-np.eye(2), cs, 0.5, 1.0, 100)
        assert res.value == 0.0 and res.finite

    def test_beta_near_one_power_rule(self, spread_2d):
        # power-rule integral sup Tr Q * T^{1-beta} / (1-beta)
        beta, T = 0.95, 1.0
        res = convolution_condition(np.zeros((2, 2)), spread_2d, beta, T, 200)
        want = spread_2d.max_trace() * T ** (1.0 - beta) / (1.0 - beta)
        assert res.finite
        assert res.value == pytest.approx(want, rel=1e-9)

    def test_rejects_bad_beta(self, spread_2d):
        for beta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                convolution_condition(-np.eye(2), spread_2d, beta, 1.0, 10)

