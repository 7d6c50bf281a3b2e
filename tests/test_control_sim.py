import math

import numpy as np
import pytest

from gexpect import CovarianceSet, control_sim
from gexpect.control_sim import (
    ControlPolicy,
    NestedSpec,
    PolicyFamily,
    estimate_upper_expectation,
    lattice_1d,
    nested_expectation,
    simulate_gbm,
)
from gexpect.g_normal import (
    GNormal, VolatilityBand, project_band, split_seed, static_upper_report, stderr,
)


def first_coord(states):
    return states[:, 0]


class TestSimulate:
    def test_paths_start_at_zero(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 50, 4, 1.0, seed=1)
        assert np.array_equal(bundle.states[:, 0, :], np.zeros((50, 1)))

    def test_classical_wiener_covariance(self):
        # classical Wiener oracle: Cov(B_T) = T * Q
        q = np.array([[1.0, 0.3], [0.3, 0.5]])
        cs = CovarianceSet([q], label="singleton")
        bundle = simulate_gbm(cs, ControlPolicy.constant(0), 10**5, 8, 2.0, seed=3)
        b_T = bundle.terminal
        emp = b_T.T @ b_T / b_T.shape[0]
        assert np.linalg.norm(emp - 2.0 * q) < 0.03 * 2.0

    def test_rejects_nonpositive_horizon(self, band_1d):
        with pytest.raises(ValueError):
            simulate_gbm(band_1d, ControlPolicy.constant(0), 10, 4, 0.0, seed=0)

    def test_deterministic_given_seed(self, band_1d):
        a = simulate_gbm(band_1d, ControlPolicy.constant(1), 20, 6, 1.0, seed=9)
        b = simulate_gbm(band_1d, ControlPolicy.constant(1), 20, 6, 1.0, seed=9)
        assert np.array_equal(a.states, b.states)

    def test_time_scaling_rescales_increments(self, band_1d):
        # the process at horizon lam*T, divided by sqrt(lam), has the
        # per-step increment law of the horizon-T process; with lam = 4 and a
        # shared seed the identity is exact in floating point.
        pol = ControlPolicy.constant(0)
        base = simulate_gbm(band_1d, pol, 40, 8, 1.0, seed=5)
        scaled = simulate_gbm(band_1d, pol, 40, 8, 4.0, seed=5)
        assert np.array_equal(scaled.increments, 2.0 * base.increments)

    def test_increment_stationarity(self, spread_2d):
        # law of B_{t+s} - B_t depends only on s under a constant policy
        bundle = simulate_gbm(spread_2d, ControlPolicy.constant(0), 60_000, 10, 1.0, seed=8)
        k = 4
        early = bundle.states[:, k, :] - bundle.states[:, 0, :]
        late = bundle.states[:, 2 * k, :] - bundle.states[:, k, :]
        cov_e = early.T @ early / early.shape[0]
        cov_l = late.T @ late / late.shape[0]
        assert np.linalg.norm(cov_e - cov_l) < 0.02

    def test_policy_index_out_of_range(self, band_1d):
        # _walk checks every step's indices, whichever kind of policy chose them
        off_range = ControlPolicy.feedback(lambda t, s: np.where(s[:, 0] >= 0.0, 0, -1))
        for pol in (ControlPolicy.constant(7), ControlPolicy.time_table([0, 1, 2, 0]),
                    off_range):
            with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
                simulate_gbm(band_1d, pol, 10, 4, 1.0, seed=0)

    def test_time_table_policy(self, band_1d):
        pol = ControlPolicy.time_table([0, 1, 0, 1])
        bundle = simulate_gbm(band_1d, pol, 10, 4, 1.0, seed=2)
        assert bundle.states.shape == (10, 5, 1)

    def test_time_table_too_short(self, band_1d):
        with pytest.raises(ValueError):
            simulate_gbm(band_1d, ControlPolicy.time_table([0, 1]), 10, 4, 1.0, seed=2)

    def test_feedback_adaptedness_instrumented(self, band_1d):
        # the rule must only ever see the state already fixed at time t_k
        seen = []

        def rule(t, states):
            seen.append((t, states.copy()))
            return np.zeros(states.shape[0], dtype=int)

        pol = ControlPolicy.feedback(rule)
        bundle = simulate_gbm(band_1d, pol, 15, 5, 1.0, seed=4)
        assert [t for t, _ in seen] == pytest.approx(list(bundle.times[:-1]))
        for k, (_, states) in enumerate(seen):
            assert np.array_equal(states, bundle.states[:, k, :])

    @pytest.mark.parametrize("table", [(1,) * 6, (0, 1, 1, 0, 1, 0)])
    def test_fixed_policies_match_feedback_and_reference(self, spread_2d, table):
        # constant and time-table policies take their index without calling a
        # rule; a rule returning the same indices, and the plain product-then-
        # sum recursion, must give exactly the same paths
        fixed = (ControlPolicy.constant(table[0]) if len(set(table)) == 1
                 else ControlPolicy.time_table(table))
        times = np.linspace(0.0, 1.5, len(table) + 1)
        rule = lambda t, states: np.full(
            states.shape[0], table[int(np.argmin(np.abs(times - t)))]
        )
        fast = simulate_gbm(spread_2d, fixed, 300, len(table), 1.5, seed=12)
        loop = simulate_gbm(spread_2d, ControlPolicy.feedback(rule), 300, len(table),
                            1.5, seed=12)
        assert fast.states.shape == (300, len(table) + 1, 2)
        assert np.array_equal(fast.states, loop.states)
        assert np.array_equal(fast.increments, loop.increments)
        gammas = spread_2d.roots
        normals = np.random.default_rng(12).standard_normal((len(table), 300, 2))
        x = np.zeros((300, 2))
        for k, i in enumerate(table):
            db = (normals[k] @ gammas[i].T) * math.sqrt(1.5 / len(table))
            assert np.array_equal(fast.increments[:, k, :], db)
            x = x + db
            assert np.array_equal(fast.states[:, k + 1, :], x)

    @pytest.mark.parametrize("kind", ["constant", "time_table", "mixed_feedback"])
    def test_drawn_paths_match_hand_built_reference(self, spread_2d, kind):
        # a step's normals, drawn just before the step, are the seed's one
        # (steps, n_paths, N) draw, mapped per path by the chosen factor
        steps, n_paths, sqrt_dt = 4, 200, math.sqrt(1.0 / 4)
        policy, choose = {
            "constant": (ControlPolicy.constant(1), lambda k, x: np.full(n_paths, 1)),
            "time_table": (ControlPolicy.time_table((0, 1, 1, 0)),
                           lambda k, x: np.full(n_paths, (0, 1, 1, 0)[k])),
            "mixed_feedback": (
                ControlPolicy.feedback(lambda t, states: (states[:, 0] >= 0.0).astype(int)),
                lambda k, x: (x[:, 0] >= 0.0).astype(int),
            ),
        }[kind]
        drawn = simulate_gbm(spread_2d, policy, n_paths, steps, 1.0, seed=21)
        normals = np.random.default_rng(21).standard_normal((steps, n_paths, 2))
        x = np.zeros((n_paths, 2))
        for k in range(steps):
            idx, db = choose(k, x), np.empty((n_paths, 2))
            for i in np.unique(idx):
                mask = idx == i
                db[mask] = (normals[k][mask] @ spread_2d.roots[i].T) * sqrt_dt
            x = x + db
            assert np.array_equal(drawn.increments[:, k, :], db)
            assert np.array_equal(drawn.states[:, k + 1, :], x)

    def test_float_constant_index_selects_factor(self, spread_2d):
        as_float = simulate_gbm(spread_2d, ControlPolicy.constant(1.0), 50, 3, 1.0, seed=4)
        as_int = simulate_gbm(spread_2d, ControlPolicy.constant(1), 50, 3, 1.0, seed=4)
        assert np.array_equal(as_float.states, as_int.states)

    def test_states_are_time_major(self, band_1d):
        bundle = simulate_gbm(band_1d, ControlPolicy.constant(0), 30, 5, 1.0, seed=3)
        assert bundle.states[:, 2, :].flags.c_contiguous
        assert bundle.increments[:, 2, :].flags.c_contiguous


class TestWalk:
    """The one path loop: streamed steps are the stored paths, bit for bit."""

    POLICIES = {
        "constant": ControlPolicy.constant(1),
        "time_table": ControlPolicy.time_table((0, 1, 1, 0, 1)),
        "mixed_feedback": ControlPolicy.feedback(
            lambda t, states: (states[:, 0] >= 0.0).astype(int)
        ),
    }

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_walk_equals_stored_paths(self, spread_2d, kind):
        policy = self.POLICIES[kind]
        stored = simulate_gbm(spread_2d, policy, 300, 5, 1.5, seed=13)
        walk = control_sim._walk(spread_2d, policy, 300, 5, 1.5, seed=13)
        count = 0
        for count, (k, t, x, dx, x_next) in enumerate(walk, 1):
            assert t == stored.times[k]
            assert np.array_equal(x, stored.states[:, k, :])
            assert np.array_equal(dx, stored.increments[:, k, :])
            assert np.array_equal(x_next, stored.states[:, k + 1, :])
        assert count == 5

    def test_sizes_checked_at_call(self, band_1d):
        # a generator would check nothing before its first step
        with pytest.raises(ValueError, match="steps"):
            control_sim._walk(band_1d, ControlPolicy.constant(0), 10, 0, 1.0, seed=0)

    @pytest.mark.parametrize("budget", [control_sim.FOLD_ELEMENTS, 2000],
                             ids=["one_block", "two_blocks"])
    def test_policy_sup_members_share_normals(self, spread_2d, monkeypatch, budget):
        # each constant member of the family supremum equals its own one-policy
        # run from the same seed, so every member saw the seed's normals, in
        # every path block
        monkeypatch.setattr(control_sim, "FOLD_ELEMENTS", budget)
        f = lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
        family = PolicyFamily(bang_bang_stat=first_coord)
        est = estimate_upper_expectation(spread_2d, f, [0.1, 0.0], 1.0, 6, 2000,
                                         family, seed=17)
        assert len(est.per_policy) == 4
        for i in range(2):
            alone = estimate_upper_expectation(spread_2d, f, [0.1, 0.0], 1.0, 6, 2000,
                                               [ControlPolicy.constant(i)], seed=17)
            assert est.per_policy[i] == alone.per_policy[0]


class TestPathBlocks:
    """``_policy_sup`` walks blocks of max(1, FOLD_ELEMENTS // N) paths and pools
    each row's moments over them."""

    F = staticmethod(lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2)
    FAMILY = PolicyFamily(bang_bang_stat=first_coord)
    X0 = np.array([0.1, -0.2])

    def hand_rows(self, sigma, policy, sizes, seed):
        """The payoff rows of a policy's blocks, walked by hand."""
        return [self.F(control_sim._terminal(control_sim._walk(
            sigma, policy, size, 6, 1.0, [seed, b] if b else seed, self.X0)))
            for b, size in enumerate(sizes)]

    def test_pooled_blocks_are_the_concatenated_rows(self, spread_2d, monkeypatch):
        # 3,501 paths in blocks of 1,000: four blocks, the last of 501 paths
        monkeypatch.setattr(control_sim, "FOLD_ELEMENTS", 2000)
        est = estimate_upper_expectation(spread_2d, self.F, self.X0, 1.0, 6, 3501,
                                         self.FAMILY, seed=21)
        policies = self.FAMILY.build(len(spread_2d))
        assert len(est.per_policy) == len(policies) == 4
        for pol, (_, mean, se) in zip(policies, est.per_policy):
            row = np.concatenate(self.hand_rows(spread_2d, pol, [1000] * 3 + [501], 21))
            assert row.size == 3501
            assert mean == pytest.approx(row.mean(), rel=1e-12, abs=0.0)
            assert se == pytest.approx(stderr(row), rel=1e-12, abs=0.0)

    def test_one_block_is_one_walk_bit_for_bit(self, spread_2d):
        # n <= the block: every member's entry is a hand walk from the seed
        est = estimate_upper_expectation(spread_2d, self.F, self.X0, 1.0, 6, 3501,
                                         self.FAMILY, seed=21)
        for pol, entry in zip(self.FAMILY.build(len(spread_2d)), est.per_policy):
            (row,) = self.hand_rows(spread_2d, pol, [3501], 21)
            assert entry == (pol.describe(), float(row.mean()), stderr(row))

    def test_later_blocks_do_not_reuse_split_seeds(self, band_1d, monkeypatch):
        # block 5 draws from [seed, 5], not split_seed(seed, 5): a caller that
        # seeds _policy_sup with s and draws elsewhere from split_seed(s, 5)
        # (as the gpde runner does) gets independent normals
        monkeypatch.setattr(control_sim, "FOLD_ELEMENTS", 10)
        unit = CovarianceSet([[[1.0]]])
        seen = []

        def payoff(_, walk):  # one unit step: the terminal state is the normals
            seen.append(control_sim._terminal(walk())[:, 0].copy())
            return [seen[-1]]

        control_sim._policy_sup(unit, [ControlPolicy.constant(0)], 60, 1, 1.0, 9,
                                payoff)
        assert [len(z) for z in seen] == [10] * 6
        assert np.array_equal(seen[0], np.random.default_rng(9).standard_normal(10))
        assert np.array_equal(seen[5],
                              np.random.default_rng([9, 5]).standard_normal(10))
        assert not np.any(seen[5] == np.random.default_rng(split_seed(9, 5))
                          .standard_normal(10))


class TestLattice:
    def test_convex_quadratic_closed_form(self):
        # E[(x + B_T)^2] = x^2 + sigma_up^2 T, exact on the lattice
        band = VolatilityBand(1.0, 0.25)
        v = lattice_1d(band, lambda x: x**2, x0=0.4, T=1.0, steps=64)
        assert v == pytest.approx(0.4**2 + 1.0, abs=1e-10)

    def test_concave_quadratic_picks_lower_edge(self):
        # same identity with concave payoff: -x0^2 - sigma_down^2 T
        band = VolatilityBand(1.0, 0.25)
        v = lattice_1d(band, lambda x: -(x**2), x0=0.4, T=1.0, steps=64)
        assert v == pytest.approx(-(0.4**2) - 0.25, abs=1e-10)

    def test_collapsed_band_matches_classical_heat(self):
        # band collapse: E cos(x0 + N(0, s2 T)) = cos(x0) e^(-s2 T / 2)
        s2 = 0.49
        band = VolatilityBand(s2, s2)
        exact = math.cos(0.2) * math.exp(-s2 * 1.0 / 2.0)
        v = lattice_1d(band, np.cos, x0=0.2, T=1.0, steps=400)
        assert v == pytest.approx(exact, abs=2e-3)

    def test_first_order_convergence(self):
        band = VolatilityBand(1.0, 0.25)
        deltas = []
        for steps in (50, 100, 200):
            v1 = lattice_1d(band, np.cos, x0=0.1, T=1.0, steps=steps)
            v2 = lattice_1d(band, np.cos, x0=0.1, T=1.0, steps=2 * steps)
            deltas.append((steps, abs(v2 - v1)))
        for steps, d in deltas:
            assert d < 5.0 / steps

    def test_monotone_in_payoff(self):
        band = VolatilityBand(1.0, 0.25)
        rng = np.random.default_rng(12)
        for _ in range(20):
            c = rng.standard_normal(3)
            f = lambda x, c=c: c[0] * x + c[1] * np.sin(x) + c[2]
            g = lambda x, f=f: f(x) + 0.3 * (1.0 + np.cos(x))
            vf = lattice_1d(band, f, x0=0.0, T=0.5, steps=60)
            vg = lattice_1d(band, g, x0=0.0, T=0.5, steps=60)
            assert vf <= vg + 1e-12

    def test_zero_band_returns_payoff(self):
        band = VolatilityBand(0.0, 0.0)
        assert lattice_1d(band, lambda x: x**2, x0=1.5, T=1.0, steps=10) == pytest.approx(2.25)


class TestUpperExpectation:
    def test_constant_payoff(self, band_1d):
        est = estimate_upper_expectation(
            band_1d, lambda x: np.full(x.shape[0], 3.25), 0.0, 1.0, 8, 500,
            PolicyFamily(bang_bang_stat=first_coord), seed=3,
        )
        assert est.value == 3.25

    def test_linear_payoff_is_centered(self, band_1d):
        est = estimate_upper_expectation(
            band_1d, lambda x: x[:, 0], 0.0, 1.0, 8, 40_000,
            PolicyFamily(bang_bang_stat=first_coord), seed=7,
        )
        assert abs(est.value) <= 3.0 * est.stderr

    def test_convex_quadratic_matches_lattice(self, band_1d):
        # lattice oracle; constant top-volatility policy attains it
        x0 = 0.3
        est = estimate_upper_expectation(
            band_1d, lambda x: x[:, 0] ** 2,
            x0, 1.0, 16, 50_000, PolicyFamily(bang_bang_stat=first_coord), seed=11,
        )
        # terminal state is x0 + B_T, payoff (x0 + B_T)^2: value x0^2 + sigma_up^2 T
        assert est.value == pytest.approx(x0**2 + 1.0, abs=3.0 * est.stderr)
        assert est.policy.kind == "constant"
        lattice = lattice_1d(VolatilityBand(1.0, 0.25), lambda y: y**2, x0, 1.0, 256)
        assert est.value == pytest.approx(lattice, abs=3.0 * est.stderr + 0.02)

    def test_sup_dominates_every_member(self, band_1d):
        f = lambda x: np.cos(x[:, 0])
        family = PolicyFamily(bang_bang_stat=first_coord)
        est = estimate_upper_expectation(band_1d, f, 0.0, 1.0, 8, 5000, family, seed=13)
        for pol in family.build(len(band_1d)):
            single = estimate_upper_expectation(
                band_1d, f, 0.0, 1.0, 8, 5000, [pol], seed=13
            )
            assert single.value <= est.value + 1e-12

    def test_reports_every_member(self, band_1d):
        # each member's entry is what a one-policy call returns
        f = lambda x: np.cos(x[:, 0])
        family = PolicyFamily(bang_bang_stat=first_coord)
        est = estimate_upper_expectation(band_1d, f, 0.0, 1.0, 8, 3000, family, seed=17)
        policies = family.build(len(band_1d))
        assert [name for name, _, _ in est.per_policy] == [p.describe() for p in policies]
        for pol, entry in zip(policies, est.per_policy):
            single = estimate_upper_expectation(band_1d, f, 0.0, 1.0, 8, 3000, [pol],
                                                seed=17)
            assert entry == (pol.describe(), single.value, single.stderr)
        assert est.value == max(mean for _, mean, _ in est.per_policy)

    def test_positive_homogeneity_exact(self, band_1d):
        f = lambda x: np.abs(x[:, 0])
        est1 = estimate_upper_expectation(band_1d, f, 0.0, 1.0, 8, 4000,
                                          PolicyFamily(), seed=19)
        est3 = estimate_upper_expectation(band_1d, lambda x: 3.0 * f(x), 0.0, 1.0,
                                          8, 4000, PolicyFamily(), seed=19)
        assert est3.value == pytest.approx(3.0 * est1.value, rel=1e-12)

    def test_static_evaluator_is_lower_bound(self, band_1d):
        for f in (lambda x: np.cos(x[:, 0]), lambda x: np.abs(x[:, 0])):
            static = static_upper_report(GNormal(band_1d), f, n=30_000, seed=23)
            dynamic = estimate_upper_expectation(
                band_1d, f, 0.0, 1.0, 16, 30_000,
                PolicyFamily(bang_bang_stat=first_coord), seed=23,
            )
            assert static.value <= dynamic.value + 3.0 * (static.stderr + dynamic.stderr)

    def test_feedback_rule_reads_the_true_state(self, band_1d):
        # a bang-bang member switches on X_t = x0 + B_t, not on B_t
        x0, f = -0.6, lambda x: x[:, 0] ** 3
        est = estimate_upper_expectation(band_1d, f, x0, 1.0, 16, 4000,
                                         PolicyFamily(bang_bang_stat=first_coord), seed=3)
        name, mean, _ = est.per_policy[2]
        assert name == "bang[stat>=0:0,else:1]"
        rule = lambda t, states: np.where(x0 + states[:, 0] >= 0.0, 0, 1)
        paths = simulate_gbm(band_1d, ControlPolicy.feedback(rule), 4000, 16, 1.0, seed=3)
        assert mean == pytest.approx(np.mean(f(x0 + paths.terminal)), rel=1e-12)

    def test_feedback_optimum_stays_below_lattice(self, band_1d):
        # x^3 is convex right of 0 and concave left of it: switching on the
        # sign of the state wins, and a lower bound stays below the lattice
        x0, lattice_steps = -0.6, 2000
        est = estimate_upper_expectation(band_1d, lambda x: x[:, 0] ** 3, x0, 1.0, 64,
                                         40_000, PolicyFamily(bang_bang_stat=first_coord),
                                         seed=3)
        lattice = lattice_1d(VolatilityBand(1.0, 0.25), lambda y: y**3, x0, 1.0,
                             lattice_steps)
        assert est.policy.kind == "feedback"
        assert est.value <= lattice + 3.0 * est.stderr + 6.0 / lattice_steps

    def test_empty_family_rejected(self, band_1d):
        with pytest.raises(ValueError, match="policy family is empty"):
            estimate_upper_expectation(
                band_1d, lambda x: x[:, 0], 0.0, 1.0, 4, 100, [], seed=0,
            )

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_member_is_never_hidden(self):
        # the payoff is 0/0 on the zero extreme's paths, which stay at x0
        f = lambda x: (x[:, 0] - 0.3) / (x[:, 0] - 0.3)
        for extremes in ([[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]):
            est = estimate_upper_expectation(CovarianceSet(extremes), f, 0.3, 1.0, 4,
                                             200, PolicyFamily(), seed=1)
            assert math.isnan(est.value), extremes
            assert est.policy.index == extremes.index([[0.0]])


class TestNested:
    def test_constant_is_exact(self, band_1d):
        v = nested_expectation(
            band_1d, lambda x, y: np.broadcast_to(4.5, (x.shape[0], y.shape[1])),
            NestedSpec(n_paths=200, seed=1), NestedSpec(n_paths=200, seed=2),
        )
        assert v == 4.5

    def test_row_blocks_do_not_change_value(self, band_1d, monkeypatch):
        inner = NestedSpec(n_paths=600, seed=5)
        outer = NestedSpec(n_paths=700, seed=6)
        f2 = lambda x, y: np.cos(x[..., 0] - y[..., 0])
        blocked = nested_expectation(band_1d, f2, inner, outer)
        # one outer row per block (700 // 600), then every outer row in one
        # block; either budget walks the 700 outer paths in one path block
        for budget in (700, 10**9):
            monkeypatch.setattr(control_sim, "FOLD_ELEMENTS", budget)
            assert nested_expectation(band_1d, f2, inner, outer) == blocked

    def test_sum_of_independent_decomposes(self, band_1d):
        # E[f1(X) + f2(Y)] = E[f1(X)] + E[f2(Y)] for Y independent of X
        inner = NestedSpec(T=1.0, steps=8, n_paths=4000, seed=101)
        outer = NestedSpec(T=1.0, steps=8, n_paths=4000, seed=202)
        v = nested_expectation(
            band_1d,
            lambda x, y: x[..., 0] ** 2 + 2.0 * y[..., 0] ** 2,
            inner, outer,
        )
        # both payoff slices are convex, so each supremum sits at the top
        # volatility: value = sigma_up^2 * T_outer + 2 * sigma_up^2 * T_inner
        want = 1.0 + 2.0
        # MC margin: Var(Z^2) = 2 at unit variance, combined over both levels
        margin = 3.0 * (math.sqrt(2.0 / 4000) + 2.0 * math.sqrt(2.0 / 4000))
        assert abs(v - want) <= margin

    def test_product_matches_band_formula(self, band_1d):
        # four-term product formula from the 1-d band values: the
        # projections are centered, so every term vanishes.
        v = nested_expectation(
            band_1d,
            lambda x, y: x[..., 0] * y[..., 0],
            NestedSpec(n_paths=6000, seed=303),
            NestedSpec(n_paths=6000, seed=404),
        )
        band = project_band(GNormal(band_1d), [1.0])
        mean_up = 0.0  # E<X,h> = E<-X,h> = 0 for the centered law
        four_term = (
            mean_up * max(mean_up, 0.0)
            + mean_up * max(-mean_up, 0.0)
            + mean_up * max(mean_up, 0.0)
            + mean_up * max(-mean_up, 0.0)
        )
        assert four_term == 0.0
        margin = 3.0 * band.sigma_up_sq / math.sqrt(6000)
        assert abs(v - four_term) <= margin
