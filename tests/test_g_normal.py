import math

import numpy as np
import pytest

from gexpect import CovarianceSet, covset_scale, g_eval, outer
from gexpect.g_normal import (
    FOLD_ELEMENTS,
    GNormal,
    VolatilityBand,
    _moment,
    _power_sums,
    gaussian_even_moment,
    moment_bounds_check,
    moment_constant,
    moment_upper,
    project_band,
    sample_gaussian,
    split_seed,
    static_upper_expectation,
    static_upper_report,
)

from conftest import mc_se, random_psd


class TestMomentRecursion:
    def test_second_moment_1d(self):
        # E X^2 = sigma^2
        assert gaussian_even_moment(np.array([[0.7]]), 1) == pytest.approx(0.7)

    def test_fourth_moment_1d_with_mc_oracle(self):
        # classical fourth moment 3 sigma^4, cross-checked by MC
        sigma_sq = 1.3
        exact = gaussian_even_moment(np.array([[sigma_sq]]), 2)
        assert exact == pytest.approx(3.0 * sigma_sq**2, abs=1e-10)
        rng = np.random.default_rng(42)
        draws = rng.standard_normal(10**6) * math.sqrt(sigma_sq)
        mc = float(np.mean(draws**4))
        assert abs(mc - exact) / exact < 0.01

    def test_second_moment_identity_2d(self):
        # E ||X||^2 = Tr Q applied to a single factor
        assert gaussian_even_moment(np.eye(2), 1) == pytest.approx(2.0)

    def test_sixth_moment_1d(self):
        assert gaussian_even_moment(np.array([[1.0]]), 3) == pytest.approx(15.0, abs=1e-10)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            gaussian_even_moment(np.eye(2), 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_stacked_rows_equal_row_by_row_calls(self, m):
        rng = np.random.default_rng(m)
        for k, n in [(1, 1), (3, 2), (9, 5), (4, 8)]:
            stack = rng.uniform(-1e-11, 3.0, size=(k, n))  # drift below zero clamps
            got = _moment(_power_sums(stack, m), m)
            assert got.shape == (k,)
            assert got.tolist() == [float(_moment(_power_sums(row, m), m)) for row in stack]

    def test_multidim_mc_cross_check(self):
        # rel. error < 1% at 10^6 samples for m <= 3, N <= 4
        rng = np.random.default_rng(2024)
        raw = rng.standard_normal((4, 4))
        q = raw @ raw.T / 4.0
        draws = sample_gaussian(q, 10**6, seed=7)
        norms_sq = np.sum(draws**2, axis=1)
        for m in (1, 2, 3):
            exact = gaussian_even_moment(q, m)
            mc = float(np.mean(norms_sq**m))
            assert abs(mc - exact) / exact < 0.01


class TestMomentUpper:
    def test_sup_of_traces(self):
        # E ||X||^2 = sup Tr Q
        cs = CovarianceSet([np.diag([1.0, 2.0]), np.diag([2.0, 0.5])])
        assert moment_upper(GNormal(cs), 1) == pytest.approx(3.0, abs=1e-12)

    def test_linear_in_scale(self):
        cs = CovarianceSet([np.diag([1.0, 2.0]), np.diag([2.0, 0.5])])
        assert moment_upper(GNormal(cs, scale=4.0), 1) == pytest.approx(
            4.0 * moment_upper(GNormal(cs), 1), abs=1e-12
        )

    def test_singleton_reduces_to_single_gaussian(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        cs = CovarianceSet([q])
        assert moment_upper(GNormal(cs), 2) == pytest.approx(
            gaussian_even_moment(q, 2)
        )

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            GNormal(CovarianceSet([np.eye(2)]), scale=-1.0)


class TestMomentBounds:
    def test_m1_everything_collapses(self):
        cs = CovarianceSet([np.diag([1.0, 2.0])])
        b = moment_bounds_check(GNormal(cs), 1)
        assert b.lower == b.value == b.upper == pytest.approx(3.0)
        assert b.ok and moment_constant(1) == pytest.approx(1.0)

    def test_m2_full_rank_by_hand(self):
        # recursion by hand: J_2 = (Tr Q)^2 + 2 Tr Q^2 = 8 at Q = I_2
        gn = GNormal(CovarianceSet([np.eye(2)]), scale=1.5)
        b = moment_bounds_check(gn, 2)
        s2 = 1.5**2
        assert b.lower == pytest.approx(2.0 * s2)
        assert b.value == pytest.approx(8.0 * s2)
        assert b.upper == pytest.approx(4.0 * s2)
        assert b.ok

    def test_m2_rank_one_needs_k2_of_three(self):
        # 1-d fourth moment: lower=1, value=3, upper=1
        b = moment_bounds_check(GNormal(CovarianceSet([np.diag([1.0, 0.0])])), 2)
        assert (b.lower, b.value, b.upper) == pytest.approx((1.0, 3.0, 1.0))
        assert moment_constant(2) == pytest.approx(3.0)
        assert b.ok

    def test_constants_are_double_factorials(self):
        assert [moment_constant(m) for m in range(1, 6)] == [1.0, 3.0, 15.0, 105.0, 945.0]
        for _ in range(2):  # a cached constant must not hide the rejection
            with pytest.raises(ValueError, match="order"):
                moment_constant(0)

    def test_rejects_uncertified_order_and_dimension(self):
        # K_m is certified for m <= 5 and dimension <= 8 only
        assert moment_bounds_check(GNormal(CovarianceSet([np.eye(8)])), 5).ok
        with pytest.raises(ValueError, match="order 6"):
            moment_bounds_check(GNormal(CovarianceSet([np.eye(2)])), 6)
        with pytest.raises(ValueError, match="dimension 9"):
            moment_bounds_check(GNormal(CovarianceSet([np.eye(9)])), 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_value_and_lower_are_bitwise_their_definitions(self, n):
        # value is moment_upper's; lower is scale**m max_Q sum_i max(w_i, 0)**m,
        # with a rank-one extreme whose zero eigenvalues may drift below 0
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        cs = CovarianceSet([random_psd(rng, n), random_psd(rng, n), np.outer(v, v)])
        gn = GNormal(cs, scale=0.8)
        w = np.clip(cs.eigenvalues, 0.0, None)
        for m in range(1, 6):
            b = moment_bounds_check(gn, m)
            assert np.float64(b.value).tobytes() == np.float64(moment_upper(gn, m)).tobytes()
            lower = float(gn.scale**m * np.sum(w**m, axis=1).max())
            assert np.float64(b.lower).tobytes() == np.float64(lower).tobytes()

    def test_ok_on_random_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            mats = [
                (lambda r: r @ r.T / n)(rng.standard_normal((n, n)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            gn = GNormal(CovarianceSet(mats), scale=float(rng.uniform(0.1, 3.0)))
            for m in range(1, 6):
                assert moment_bounds_check(gn, m).ok


class TestProjectionBand:
    def test_enumerate_quadratic_forms(self):
        # <Q e1, e1> over the two extremes
        cs = CovarianceSet([np.diag([1.0, 2.0]), np.diag([0.25, 2.0])])
        band = project_band(GNormal(cs), [1.0, 0.0])
        assert band.sigma_up_sq == pytest.approx(1.0)
        assert band.sigma_down_sq == pytest.approx(0.25)

    def test_singleton_band_collapses(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        band = project_band(GNormal(CovarianceSet([q])), [0.0, 1.0])
        assert band.sigma_up_sq == pytest.approx(band.sigma_down_sq) == pytest.approx(1.0)

    def test_zero_direction(self, spread_2d):
        band = project_band(GNormal(spread_2d), [0.0, 0.0])
        assert band.sigma_up_sq == 0.0 and band.sigma_down_sq == 0.0

    def test_matches_rank_one_functional_route(self, correlated_2d):
        # upper edge must equal 2 * G(h h^T), the defining formula
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.standard_normal(2)
            band = project_band(GNormal(correlated_2d), h)
            assert band.sigma_up_sq == pytest.approx(
                2.0 * g_eval(correlated_2d, outer(h, h)), abs=1e-12
            )
            assert band.sigma_down_sq == pytest.approx(
                -2.0 * g_eval(correlated_2d, -outer(h, h)), abs=1e-12
            )

    def test_band_object_validates_order(self):
        with pytest.raises(ValueError):
            VolatilityBand(sigma_up_sq=0.1, sigma_down_sq=0.5)


class TestLawAlgebraConsistency:
    """Set algebra and projection bands must tell one consistent story."""

    def test_scaled_set_matches_scaled_law(self, correlated_2d):
        t = 2.7
        gn = GNormal(correlated_2d, scale=t)
        flat = GNormal(covset_scale(correlated_2d, math.sqrt(t)), scale=1.0)
        h = np.array([0.6, -0.8])
        a, b = project_band(gn, h), project_band(flat, h)
        assert a.sigma_up_sq == pytest.approx(b.sigma_up_sq, rel=1e-12)
        assert a.sigma_down_sq == pytest.approx(b.sigma_down_sq, rel=1e-12)

    def test_sum_band_is_sum_of_bands(self, spread_2d, correlated_2d):
        from gexpect import covset_sum

        total = GNormal(covset_sum(spread_2d, correlated_2d))
        rng = np.random.default_rng(41)
        for _ in range(20):
            h = rng.standard_normal(2)
            got = project_band(total, h)
            a = project_band(GNormal(spread_2d), h)
            b = project_band(GNormal(correlated_2d), h)
            assert got.sigma_up_sq == pytest.approx(
                a.sigma_up_sq + b.sigma_up_sq, rel=1e-12
            )
            assert got.sigma_down_sq == pytest.approx(
                a.sigma_down_sq + b.sigma_down_sq, rel=1e-12
            )

    def test_conjugated_band_pulls_back_the_direction(self, correlated_2d):
        from gexpect import covset_conjugate

        rng = np.random.default_rng(43)
        s = rng.standard_normal((2, 2))
        mapped = GNormal(covset_conjugate(correlated_2d, s))
        base = GNormal(correlated_2d)
        for _ in range(20):
            h = rng.standard_normal(2)
            got = project_band(mapped, h)
            want = project_band(base, s.T @ h)
            assert got.sigma_up_sq == pytest.approx(want.sigma_up_sq, rel=1e-10)
            assert got.sigma_down_sq == pytest.approx(
                want.sigma_down_sq, rel=1e-10, abs=1e-12
            )


class TestSampling:
    def test_zero_covariance(self):
        draws = sample_gaussian(np.zeros((2, 2)), 16, seed=1)
        assert np.array_equal(draws, np.zeros((16, 2)))

    def test_deterministic_given_seed(self):
        q = np.array([[1.0, 0.2], [0.2, 0.5]])
        a = sample_gaussian(q, 100, seed=9)
        b = sample_gaussian(q, 100, seed=9)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        # law of large numbers at n = 1e5
        draws = sample_gaussian(np.eye(2), 10**5, seed=5)
        emp = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(emp - np.eye(2)) < 0.02

    def test_split_seed_decorrelates_streams(self):
        s1, s2 = split_seed(123, 0), split_seed(123, 1)
        assert s1 != s2
        assert split_seed(123, 0) == s1
        a = sample_gaussian(np.eye(1), 4000, seed=s1).ravel()
        b = sample_gaussian(np.eye(1), 4000, seed=s2).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestStaticEvaluator:
    def test_quadratic_matches_band(self, band_1d):
        gn = GNormal(band_1d)
        est = static_upper_report(gn, lambda x: x[:, 0] ** 2, n=40000, seed=11)
        band = project_band(gn, [1.0])
        assert abs(est.value - band.sigma_up_sq) <= 3.0 * est.stderr

    def test_constants_are_preserved_exactly(self, spread_2d):
        gn = GNormal(spread_2d)
        value = static_upper_expectation(
            gn, lambda x: np.full(x.shape[0], 2.5), n=100, seed=0
        )
        assert value == 2.5

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_mean_is_never_hidden(self):
        # x / x is 0/0 under the zero extreme
        for extremes in ([[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]):
            gn = GNormal(CovarianceSet(extremes))
            est = static_upper_report(gn, lambda x: x[:, 0] / x[:, 0], n=100, seed=3)
            assert math.isnan(est.value), extremes
            assert est.extreme_index == extremes.index([[0.0]])

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_expectation_is_bitwise_the_report_value(self, spread_2d, correlated_2d):
        bits = lambda v: np.float64(v).tobytes()
        payoffs = [lambda x: x[:, 0], lambda x: x[:, 0] * x[:, 1] + x[:, 1] ** 2,
                   lambda x: np.exp(x[:, 1]), lambda x: x[:, 0] / x[:, 0]]
        for sigma in (spread_2d, correlated_2d, CovarianceSet([np.eye(2), np.zeros((2, 2))])):
            gn = GNormal(sigma)
            for seed, f in enumerate(payoffs):
                value = static_upper_expectation(gn, f, 300, seed)
                assert type(value) is float
                assert bits(value) == bits(static_upper_report(gn, f, 300, seed).value)

    def test_linear_is_centered(self, spread_2d):
        gn = GNormal(spread_2d)
        est = static_upper_report(gn, lambda x: x[:, 0], n=40000, seed=17)
        assert abs(est.value) <= 3.0 * max(est.stderr, 1e-12)

    def test_sublinear_laws_exact_under_shared_seed(self, correlated_2d):
        gn = GNormal(correlated_2d)
        rng = np.random.default_rng(23)
        n = 2000
        for trial in range(200):
            c = rng.standard_normal(4)
            lam = float(rng.uniform(0.0, 3.0))
            f = lambda x, c=c: c[0] * x[:, 0] + c[1] * x[:, 1] ** 2 + c[2]
            g = lambda x, c=c: c[3] * x[:, 0] * x[:, 1]
            fg = lambda x, f=f, g=g: f(x) + g(x)
            seed = 1000 + trial
            vf = static_upper_expectation(gn, f, n, seed)
            vg = static_upper_expectation(gn, g, n, seed)
            vfg = static_upper_expectation(gn, fg, n, seed)
            # subadditivity, exact with common random numbers
            assert vfg <= vf + vg + 1e-9
            # positive homogeneity, exact
            vlf = static_upper_expectation(gn, lambda x, f=f: lam * f(x), n, seed)
            assert vlf == pytest.approx(lam * vf, abs=1e-9)
            # monotonicity against a pointwise-dominating functional
            fplus = lambda x, f=f: f(x) + 0.5 + x[:, 0] ** 2
            assert static_upper_expectation(gn, fplus, n, seed) >= vf - 1e-12

    def test_cbs_inequality(self, correlated_2d):
        # Cauchy-Bunyakovsky-Schwarz on 50 random polynomial pairs; exact for
        # shared draws because it holds on every empirical measure.
        gn = GNormal(correlated_2d)
        rng = np.random.default_rng(31)
        n = 2000
        for trial in range(50):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            f = lambda x, a=a: a[0] * x[:, 0] + a[1] * x[:, 1] ** 2
            g = lambda x, b=b: b[0] * x[:, 1] + b[1] * x[:, 0] ** 2
            seed = 500 + trial
            vfg = static_upper_expectation(gn, lambda x: f(x) * g(x), n, seed)
            vf2 = static_upper_expectation(gn, lambda x: f(x) ** 2, n, seed)
            vg2 = static_upper_expectation(gn, lambda x: g(x) ** 2, n, seed)
            assert vfg <= math.sqrt(vf2 * vg2) + 1e-9

    def test_convolution_stability_of_the_band(self, band_1d):
        # (aX + bX') / sqrt(a^2 + b^2) shows the same band as X, measured per
        # extreme with independent copies and compared at the supremum.
        gn = GNormal(band_1d)
        a, b = 1.25, 0.5
        norm = math.sqrt(a * a + b * b)
        n = 200_000
        second_moments = []
        for q in band_1d.matrices:
            x = sample_gaussian(q, n, seed=split_seed(77, 0))
            x_bar = sample_gaussian(q, n, seed=split_seed(77, 1))
            y = (a * x + b * x_bar) / norm
            second_moments.append(float(np.mean(y[:, 0] ** 2)))
        band = project_band(gn, [1.0])
        se = 1.0 / math.sqrt(n) * math.sqrt(2.0) * band.sigma_up_sq
        assert abs(max(second_moments) - band.sigma_up_sq) <= 3.0 * se
        assert abs(min(second_moments) - band.sigma_down_sq) <= 3.0 * se

    def test_rejects_scalar_functional(self, spread_2d):
        gn = GNormal(spread_2d)
        with pytest.raises(ValueError):
            static_upper_expectation(gn, lambda x: 1.0, n=10, seed=0)


class TestLastDraw:
    """A law keeps the samples of its last small (n, seed) draw and reuses them."""

    PAYOFFS = [lambda x: x[:, 0], lambda x: x[:, 0] * x[:, 1] + x[:, 1] ** 2,
               lambda x: np.exp(x[:, 1]), lambda x: np.full(x.shape[0], 0.5)]

    @staticmethod
    def bits(v):
        return np.float64(v).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_warm_law_is_bitwise_a_fresh_one(self, correlated_2d, scale):
        warm = GNormal(correlated_2d, scale=scale)
        for seed in (4, 5):
            for f in self.PAYOFFS:
                fresh = GNormal(correlated_2d, scale=scale)
                value = static_upper_expectation(warm, f, 500, seed)
                assert self.bits(value) == self.bits(static_upper_expectation(fresh, f, 500, seed))
                got = static_upper_report(warm, f, 500, seed)
                want = static_upper_report(GNormal(correlated_2d, scale=scale), f, 500, seed)
                assert [self.bits(v) for v in got[:2]] == [self.bits(v) for v in want[:2]]
                assert got.extreme_index == want.extreme_index
        # the kept draw is no part of the law's value
        assert warm == GNormal(correlated_2d, scale=scale)
        assert hash(warm) == hash(GNormal(correlated_2d, scale=scale))
        assert repr(warm) == repr(GNormal(correlated_2d, scale=scale))

    def test_a_new_n_or_seed_draws_afresh(self, correlated_2d):
        gn, f = GNormal(correlated_2d), lambda x: x[:, 0] ** 2 - x[:, 1]
        first = static_upper_expectation(gn, f, 400, 1)
        for n, seed in [(400, 2), (401, 1), (400, 1)]:
            want = static_upper_expectation(GNormal(correlated_2d), f, n, seed)
            got = static_upper_expectation(gn, f, n, seed)
            assert self.bits(got) == self.bits(want)
            assert (n, seed) == (400, 1) or got != first

    def test_a_generator_seed_is_never_reused(self, correlated_2d):
        # a Generator advances with each draw, so its samples cannot be reused
        gn, f = GNormal(correlated_2d), lambda x: x[:, 0]
        rng = np.random.default_rng(6)
        first = static_upper_expectation(gn, f, 300, rng)
        assert static_upper_expectation(gn, f, 300, rng) != first
        assert gn._last is None

    def test_a_payoff_that_writes_into_its_argument_changes_no_later_call(self, correlated_2d):
        gn, f = GNormal(correlated_2d), lambda x: x[:, 0] * x[:, 1]

        def vandal(x):
            x[:] = 100.0
            return x[:, 0]

        assert static_upper_expectation(gn, vandal, 300, 8) == 100.0
        want = static_upper_expectation(GNormal(correlated_2d), f, 300, 8)
        assert self.bits(static_upper_expectation(gn, f, 300, 8)) == self.bits(want)

    def test_kept_only_up_to_the_fold_budget(self, correlated_2d):
        gn, f = GNormal(correlated_2d), lambda x: x[:, 0]
        limit = FOLD_ELEMENTS // (len(correlated_2d) * gn.dim)
        static_upper_expectation(gn, f, limit, 3)
        assert gn._last is not None and gn._last[0] == (limit, 3)
        static_upper_expectation(gn, f, limit + 1, 3)
        assert gn._last is None
