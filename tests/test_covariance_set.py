import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from gexpect import (
    CovarianceSet,
    covset_conjugate,
    covset_contains,
    covset_scale,
    covset_sum,
    g_eval,
    l2sigma_norm,
)
from gexpect import covariance_set
from gexpect.g_normal import GNormal, moment_bounds_check, moment_upper, sample_gaussian
from gexpect.operator_core import PSD_EIGEN_TOL, _psd_power, _psd_stack

from conftest import near_psd, random_psd, random_sym


class TestConstruction:
    def test_deduplicates_extremes(self):
        q = np.diag([1.0, 2.0])
        cs = CovarianceSet([q, q.copy(), np.eye(2)], label="dup")
        assert len(cs) == 2

    def test_dedup_compares_only_with_kept_extremes(self):
        # C is within DEDUP_TOL of the dropped B, but not of the kept A
        a = np.diag([1.0, 2.0])
        step = np.diag([covariance_set.DEDUP_TOL, 0.0])
        b, c = a + 0.6 * step, a + 1.2 * step
        cs = CovarianceSet([a, b, c])
        assert len(cs) == 2
        assert np.array_equal(cs.matrices, np.stack([a, c]))

    def test_dedup_matches_the_greedy_loop_across_blocks(self):
        # 450 extremes in 8-d are compared in blocks of 36 rows
        rng = np.random.default_rng(3)
        base = [random_sym(rng, 8) + 8.0 * np.eye(8) for _ in range(150)]
        step = covariance_set.DEDUP_TOL / np.sqrt(8.0) * np.eye(8)
        mats = np.stack(base + [q + 0.6 * step for q in base] + [q + 1.2 * step for q in base])
        for order in (np.arange(len(mats)), rng.permutation(len(mats))):
            kept = [order[0]]
            for i in order[1:]:
                dist = np.linalg.norm(mats[kept] - mats[i], axis=(1, 2))
                if dist.min() > covariance_set.DEDUP_TOL:
                    kept.append(i)
            assert np.array_equal(CovarianceSet(mats[order]).matrices, mats[kept])
        assert len(CovarianceSet(mats)) == 300  # each base and its far copy

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CovarianceSet([])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            CovarianceSet([np.eye(2), np.eye(3)])

    def test_json_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(11)
        mats = [random_psd(rng, 3) for _ in range(3)]
        cs = CovarianceSet(mats, label="round-trip")
        back = CovarianceSet.from_json(json.dumps(cs.to_dict()))
        assert back.label == cs.label
        assert back.dim == cs.dim
        for a, b in zip(cs.matrices, back.matrices):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [2.5, "2", True])
    def test_from_dict_rejects_a_dim_that_is_not_an_integer(self, dim):
        with pytest.raises(ValueError, match="integer"):
            CovarianceSet.from_dict({"dim": dim, "extremes": [[1, 0, 0, 1]]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CovarianceSet([[[bad]]])
        with pytest.raises(ValueError, match="finite"):
            CovarianceSet([np.eye(2), [[1.0, bad], [bad, 1.0]]])

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_from_json_rejects_nonstandard_numbers(self, token):
        with pytest.raises(ValueError, match=token):
            CovarianceSet.from_json(f'{{"dim": 1, "extremes": [[{token}], [0.25]]}}')

    @pytest.mark.parametrize("extra", [{"foo": 1}, {"lable": "s"}])
    def test_from_dict_rejects_an_unknown_key(self, extra):
        key = next(iter(extra))
        with pytest.raises(ValueError, match=f"unknown key .*'{key}'"):
            CovarianceSet.from_dict({"dim": 1, "extremes": [[1]], **extra})
        with pytest.raises(ValueError, match=f"'{key}'"):
            CovarianceSet.from_json(json.dumps({"dim": 1, "extremes": [[1]], **extra}))

    def test_from_dict_accepts_an_integral_float_dim(self):
        cs = CovarianceSet.from_dict({"dim": 2.0, "extremes": [[1, 0, 0, 1]]})
        assert cs.dim == 2


class TestOneArraySet:
    """The set's arrays equal what validating each extreme alone computes, bit for bit."""

    def battery(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 5, 8):
            a, b, c = (random_psd(rng, n) for _ in range(3))
            # a near-copy of the first extreme comes second and is dropped
            yield [a, a + 1e-14 * np.eye(n), b, near_psd(rng, n), c]

    def test_battery_covers_a_clamped_extreme(self):
        floors = [np.linalg.eigvalsh(q)[0] for mats in self.battery() for q in mats]
        assert any(-PSD_EIGEN_TOL <= f < 0.0 for f in floors)

    def test_arrays_equal_per_extreme_operators(self):
        for mats in self.battery():
            cs = CovarianceSet(mats)
            kept = [mats[0]] + mats[2:]
            assert len(cs) == len(kept)
            for i, q in enumerate(kept):
                single = _psd_stack([q])[0]
                assert np.array_equal(cs.matrices[i], single[0])
                # eigenvalues of the stored (clamped) extreme
                assert np.array_equal(cs.eigenvalues[i], np.linalg.eigvalsh(single[0]))
                assert np.array_equal(cs.roots[i], _psd_power(single, 0.5)[0])

    def test_arrays_are_read_only(self, correlated_2d):
        for arr in (correlated_2d.matrices, correlated_2d.eigenvalues):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert not hasattr(correlated_2d, "extremes")

    @pytest.mark.parametrize("mats, message", [
        ([], "at least one extreme point"),
        ([np.eye(2), np.eye(3)], "share one dimension"),
        ([np.eye(2), np.zeros((2, 3))], "expected a square matrix"),
        ([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]], "not symmetric"),
        ([np.eye(2), np.diag([1.0, -1e-6])], "not PSD"),
    ])
    def test_invalid_extremes_keep_their_messages(self, mats, message):
        with pytest.raises(ValueError, match=message):
            CovarianceSet(mats)


class TestStackedInput:
    """A (k, N, N) array goes through the same validation as a list of its
    matrices and gives the same set."""

    def test_stack_and_list_give_the_same_set(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 5, 8):
            mats = [random_psd(rng, n) for _ in range(3)] + [near_psd(rng, n)]
            from_list, from_stack = CovarianceSet(mats), CovarianceSet(np.stack(mats))
            for name in ("matrices", "eigenvalues", "roots"):
                assert np.array_equal(getattr(from_list, name), getattr(from_stack, name))

    def test_integer_stack_is_read_as_floats(self):
        ints = [[[2, 1], [1, 2]], [[1, 0], [0, 3]]]
        from_stack = CovarianceSet(np.array(ints))
        assert from_stack.matrices.dtype == np.float64
        assert np.array_equal(from_stack.matrices, CovarianceSet(ints).matrices)
        assert np.array_equal(from_stack.matrices, np.array(ints, dtype=float))

    def test_the_set_does_not_share_the_callers_array(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
        cs = CovarianceSet(stack)
        stack[0, 0, 0] = 7.0
        assert stack.flags.writeable
        assert np.array_equal(cs.matrices, np.stack([np.eye(2), 2.0 * np.eye(2)]))

    @pytest.mark.parametrize("stack, message", [
        (np.empty((0, 2, 2)), "at least one extreme point"),
        (np.zeros((2, 2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
        (np.zeros((2, 0, 0)), r"expected a square matrix, got shape \(0, 0\)"),
        (np.eye(2), r"expected a square matrix, got shape \(2,\)"),
    ])
    def test_malformed_stacks_keep_the_list_messages(self, stack, message):
        with pytest.raises(ValueError, match=message):
            CovarianceSet(stack)
        with pytest.raises(ValueError, match=message):
            CovarianceSet(list(stack))

    def test_dedup_keeps_the_first_extreme(self):
        rng = np.random.default_rng(35)
        a, b = random_psd(rng, 3), random_psd(rng, 3)
        cs = CovarianceSet(np.stack([a, a + 1e-14 * np.eye(3), b, b]))
        assert len(cs) == 2
        assert np.array_equal(cs.matrices, CovarianceSet([a, b]).matrices)
        assert np.array_equal(cs.eigenvalues, CovarianceSet([a, b]).eigenvalues)
        assert not cs.matrices.flags.writeable and not cs.eigenvalues.flags.writeable


class TestRoots:
    def test_roots_reproduce_extremes(self, correlated_2d):
        roots = correlated_2d.roots
        assert roots.shape == (len(correlated_2d), 2, 2)
        for g, q in zip(roots, correlated_2d.matrices):
            assert np.linalg.norm(g @ g.T - q) < 1e-9
        # computed once, then shared read-only
        assert correlated_2d.roots is roots
        with pytest.raises(ValueError):
            roots[0, 0, 0] = 1.0

    def test_diagonal(self):
        root = CovarianceSet([np.diag([4.0, 9.0])]).roots[0]
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.array_equal(CovarianceSet([np.zeros((3, 3))]).roots[0], np.zeros((3, 3)))

    def test_square_recovers_input(self):
        # eigen-decomposition oracle: S @ S == input to 1e-9
        q = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = CovarianceSet([q]).roots[0]
        assert np.linalg.norm(root @ root - q) < 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            sample_gaussian(np.diag([1.0, -0.5]), 4, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_idempotence_on_psd_squares(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        root = CovarianceSet([raw @ raw.T / n]).roots[0]
        again = CovarianceSet([root @ root]).roots[0]
        want = np.sort(np.abs(np.linalg.eigvalsh(root)))
        got = np.sort(np.linalg.eigvalsh(again))
        assert np.allclose(got, want, atol=1e-8)


class TestKeptSpectralSums:
    """A set that has answered moment queries answers the next ones bitwise
    as a fresh set."""

    @staticmethod
    def sets():
        rng = np.random.default_rng(41)
        return [[random_psd(rng, n) for _ in range(k)] for n, k in [(1, 2), (2, 3), (5, 1), (8, 4)]]

    def test_moment_bounds_of_a_warm_set_are_a_fresh_sets(self):
        bits = lambda b: [np.float64(v).tobytes() for v in b[:3]] + [b.ok]
        for mats in self.sets():
            warm = GNormal(covset_scale(CovarianceSet(mats), math.sqrt(1.7)))
            for m in (3, 1, 5, 2, 4):
                fresh = GNormal(covset_scale(CovarianceSet(mats), math.sqrt(1.7)))
                assert bits(moment_bounds_check(warm, m)) == bits(moment_bounds_check(fresh, m))
                assert moment_upper(warm, m) == moment_upper(fresh, m)


class TestGEval:
    def test_singleton_sup(self, correlated_2d):
        # singleton sup is half the plain trace product
        q = np.diag([2.0, 3.0])
        cs = CovarianceSet([q])
        a = np.array([[1.0, 0.2], [0.2, 0.5]])
        assert g_eval(cs, a) == pytest.approx(0.5 * np.trace(a @ q))

    def test_enumerated_maximum(self, spread_2d):
        # enumerate both traces: max(2, 4) / 2 = 2
        assert g_eval(spread_2d, np.eye(2)) == pytest.approx(2.0)

    def test_zero_argument(self, spread_2d):
        assert g_eval(spread_2d, np.zeros((2, 2))) == 0.0

    def test_dim_mismatch(self, spread_2d):
        with pytest.raises(ValueError):
            g_eval(spread_2d, np.eye(3))

    @pytest.mark.parametrize("a", [np.zeros((2, 3)), np.ones(2), np.eye(2)[None]])
    def test_rejects_an_argument_that_is_not_n_by_n(self, spread_2d, a):
        with pytest.raises(ValueError, match="dimension mismatch in g_eval"):
            g_eval(spread_2d, a)

    def test_monotone_on_psd_ordered_pairs(self, correlated_2d):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a2 = random_sym(rng, 2)
            a1 = a2 + random_psd(rng, 2)
            assert g_eval(correlated_2d, a1) >= g_eval(correlated_2d, a2) - 1e-12

    def test_subadditive(self, correlated_2d):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = random_sym(rng, 2)
            b = random_sym(rng, 2)
            lhs = g_eval(correlated_2d, a + b)
            rhs = g_eval(correlated_2d, a) + g_eval(correlated_2d, b)
            assert lhs <= rhs + 1e-12

    def test_positively_homogeneous(self, correlated_2d):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_sym(rng, 2)
            lam = float(rng.uniform(0.0, 4.0))
            assert g_eval(correlated_2d, lam * a) == pytest.approx(
                lam * g_eval(correlated_2d, a), abs=1e-12
            )


class TestL2SigmaNorm:
    def test_identity_gives_max_trace(self, spread_2d):
        # Tr[I Q I] = Tr Q
        want = np.sqrt(spread_2d.max_trace())
        assert l2sigma_norm(np.eye(2), spread_2d) == pytest.approx(want)

    def test_zero_operator(self, spread_2d):
        assert l2sigma_norm(np.zeros((2, 2)), spread_2d) == 0.0

    def test_two_explicit_traces(self):
        # traces 1 and 0 under phi = diag(1, 0)
        cs = CovarianceSet([np.diag([1.0, 1.0]), np.diag([0.0, 5.0])])
        assert l2sigma_norm(np.diag([1.0, 0.0]), cs) == pytest.approx(1.0)

    def test_matches_frobenius_of_phi_sqrtq(self, correlated_2d):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((3, 2))
        by_sqrt = max(
            float(np.linalg.norm(phi @ root)) for root in correlated_2d.roots
        )
        assert l2sigma_norm(phi, correlated_2d) == pytest.approx(by_sqrt, abs=1e-10)

    def test_rectangular_dim_mismatch(self, correlated_2d):
        with pytest.raises(ValueError):
            l2sigma_norm(np.zeros((2, 3)), correlated_2d)


class TestAlgebra:
    def test_scale_by_one_is_identity(self, spread_2d):
        scaled = covset_scale(spread_2d, 1.0)
        for a, b in zip(scaled.matrices, spread_2d.matrices):
            assert np.array_equal(a, b)

    def test_scale_squares_the_factor(self):
        # scaled variable has covariance a^2 * Q
        cs = CovarianceSet([np.diag([1.0, 1.0])])
        scaled = covset_scale(cs, 2.0)
        assert np.allclose(scaled.matrices[0], np.diag([4.0, 4.0]))

    def test_scale_sign_irrelevant(self, spread_2d):
        m_neg = covset_scale(spread_2d, -3.0).matrices
        m_pos = covset_scale(spread_2d, 3.0).matrices
        assert np.array_equal(m_neg, m_pos)

    def test_sum_with_zero_set(self, spread_2d):
        zero = CovarianceSet([np.zeros((2, 2))])
        total = covset_sum(spread_2d, zero)
        assert np.array_equal(total.matrices, spread_2d.matrices)

    def test_sum_single_pair(self):
        # single pairwise sum
        total = covset_sum(
            CovarianceSet([np.diag([1.0, 0.0])]), CovarianceSet([np.diag([0.0, 1.0])])
        )
        assert len(total) == 1
        assert np.array_equal(total.matrices[0], np.eye(2))

    def test_sum_distributes_over_list(self, spread_2d):
        single = CovarianceSet([np.diag([0.5, 0.5])], label="p")
        total = covset_sum(spread_2d, single)
        want = [q + np.diag([0.5, 0.5]) for q in spread_2d.matrices]
        assert len(total) == 2
        for got, expect in zip(total.matrices, want):
            assert np.array_equal(got, expect)

    def test_sum_dim_mismatch(self, spread_2d):
        with pytest.raises(ValueError):
            covset_sum(spread_2d, CovarianceSet([np.eye(3)]))

    def test_sum_deduplicates_coinciding_pairs(self, spread_2d):
        # self-sum produces Q1+Q2 twice; dedup keeps |result| <= |s1|*|s2|
        total = covset_sum(spread_2d, spread_2d)
        assert len(total) == 3

    def test_batched_sum_and_conjugate_equal_the_loops(self):
        rng = np.random.default_rng(37)
        for case in range(120):
            n, k1, k2 = 1 + case % 8, 1 + case % 3, 1 + (case // 3) % 3
            s1 = CovarianceSet([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(k1)])
            s2 = CovarianceSet([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(k2)])
            pairs = np.stack([q1 + q2 for q1 in s1.matrices for q2 in s2.matrices])
            assert np.array_equal(covset_sum(s1, s2).matrices, pairs)
            s = rng.standard_normal((1 + case % n, n))
            mapped = np.stack([s @ q @ s.T for q in s1.matrices])
            mirrored = np.triu(mapped) + np.swapaxes(np.triu(mapped, 1), 1, 2)
            assert np.array_equal(covset_conjugate(s1, s).matrices, mirrored)

    @pytest.mark.parametrize("norm", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_conjugate_by_a_map_of_large_norm(self, norm):
        # s Q s^T rounds asymmetrically, by about 1e-8 at a norm of 1e4
        rng = np.random.default_rng(0)
        r, s = rng.standard_normal((3, 3)), norm * rng.standard_normal((3, 3))
        cs = CovarianceSet([r @ r.T, np.eye(3)])
        out = covset_conjugate(cs, s)
        assert np.array_equal(out.matrices, np.swapaxes(out.matrices, 1, 2))
        for got, q in zip(out.matrices, cs.matrices):
            want = s @ q @ s.T
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        a = random_sym(rng, 3)
        assert g_eval(out, a) == pytest.approx(g_eval(cs, s.T @ a @ s), rel=1e-12)

    def test_conjugate_identity(self, correlated_2d):
        out = covset_conjugate(correlated_2d, np.eye(2))
        assert np.array_equal(out.matrices, correlated_2d.matrices)

    def test_conjugate_explicit(self):
        # diag(2,1) I diag(2,1) = diag(4,1)
        out = covset_conjugate(CovarianceSet([np.eye(2)]), np.diag([2.0, 1.0]))
        assert np.allclose(out.matrices[0], np.diag([4.0, 1.0]))

    def test_conjugate_zero(self, spread_2d):
        out = covset_conjugate(spread_2d, np.zeros((2, 2)))
        assert len(out) == 1
        assert np.array_equal(out.matrices[0], np.zeros((2, 2)))

    def test_conjugate_rectangular_changes_dim(self, spread_2d):
        s = np.array([[1.0, 2.0]])
        out = covset_conjugate(spread_2d, s)
        assert out.dim == 1


class TestMembership:
    def test_extremes_belong(self, spread_2d):
        for q in spread_2d.matrices:
            assert covset_contains(spread_2d, q) is True

    def test_midpoint_belongs(self, spread_2d):
        mid = 0.5 * (spread_2d.matrices[0] + spread_2d.matrices[1])
        assert covset_contains(spread_2d, mid) is True

    def test_scaled_point_outside(self):
        # support function along the identity: Tr(2I)/2 = 2 > 1 = G(I)
        cs = CovarianceSet([np.diag([1.0, 1.0])])
        assert covset_contains(cs, np.diag([2.0, 2.0])) is False

    def test_random_violators_are_rejected(self, spread_2d):
        rng = np.random.default_rng(21)
        tested = 0
        for _ in range(50):
            b = random_psd(rng, 2, scale=2.0)
            violated = False
            for _ in range(64):
                a = random_sym(rng, 2)
                if 0.5 * np.trace(a @ b) > g_eval(spread_2d, a) + 1e-9:
                    violated = True
                    break
            if violated:
                tested += 1
                assert covset_contains(spread_2d, b) is False
        assert tested > 0

    def test_dim_mismatch(self, spread_2d):
        with pytest.raises(ValueError):
            covset_contains(spread_2d, np.eye(3))

    def test_direction_block_is_the_per_direction_stream(self):
        block = np.random.default_rng(9).standard_normal((32, 3, 3))
        rng = np.random.default_rng(9)
        loop = np.stack([rng.standard_normal((3, 3)) for _ in range(32)])
        assert np.array_equal(block, loop)

    def test_certificates_catch_a_wrong_inside_verdict(self, spread_2d, monkeypatch):
        # an exact path that calls every point "inside"
        monkeypatch.setattr(covariance_set, "nnls", lambda a, b: (None, 0.0))
        with pytest.raises(RuntimeError, match="certificate"):
            covset_contains(spread_2d, 3.0 * spread_2d.matrices[1])

    @pytest.mark.parametrize("third", [None, np.eye(2)])
    def test_nearly_collinear_extremes_keep_the_scipy_verdicts(self, third, monkeypatch):
        # A and C, 1.2 DEDUP_TOL apart, are both kept: two nearly collinear
        # columns in the exact path
        a = np.diag([1.0, 2.0])
        c = a + 1.2 * np.diag([covariance_set.DEDUP_TOL, 0.0])
        cs = CovarianceSet([a, c] + ([] if third is None else [third]))
        assert len(cs) == (2 if third is None else 3)
        inside = [a, c, 0.5 * (a + c), 0.3 * a + 0.7 * c, cs.matrices.mean(axis=0)]
        outside = [1.5 * a, 0.5 * a, a + np.diag([0.0, 1e-6]), np.diag([1.0 + 1e-3, 1.5]),
                   2.0 * cs.matrices[-1]]
        verdicts = [covset_contains(cs, q) for q in inside + outside]
        assert verdicts == [True] * len(inside) + [False] * len(outside)
        monkeypatch.setattr(covariance_set, "nnls", scipy_nnls)
        assert verdicts == [covset_contains(cs, q) for q in inside + outside]


class TestErrors:
    @pytest.mark.parametrize("call, exc, match", [
        pytest.param(lambda: covset_conjugate(CovarianceSet([np.eye(2)]), np.eye(3)),
                     ValueError, r"operator with \(3, 3\) columns does not act on dim 2",
                     id="conjugate-dimension"),
    ])
    def test_raises(self, call, exc, match):
        with pytest.raises(exc, match=match):
            call()

    @pytest.mark.parametrize("name", ["label", "extra"], ids=["existing", "new"])
    def test_set_refuses_assignment_and_keeps_its_fields(self, name):
        cs = CovarianceSet([np.eye(2), np.diag([2.0, 0.5])], label="kept")
        before = {field: getattr(cs, field) for field in CovarianceSet.__slots__}
        with pytest.raises(AttributeError, match="CovarianceSet is immutable"):
            setattr(cs, name, "changed")
        assert all(getattr(cs, field) is value for field, value in before.items())
        assert cs.label == "kept" and not hasattr(cs, "extra")
