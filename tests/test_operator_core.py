import math

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from gexpect import CovarianceSet, operator_core
from gexpect.g_pde import PdeProblem

from conftest import random_sym

ENTRY_POINTS = ["CovarianceSet", "a_gen"]


def validate(entry, m):
    """Send one matrix-like through a public entry point that validates it."""
    if entry == "CovarianceSet":
        return CovarianceSet([m])
    n = len(m)
    return PdeProblem(n, CovarianceSet([np.eye(n)]), lambda p: p[..., 0], 1.0,
                      ((-1.0, 1.0),) * n, a_gen=m)


class TestSymOperator:
    """A symmetric operator is a plain array, validated where it enters."""

    def test_storage_is_exactly_symmetric(self):
        m = np.array([[3.0, 1.0 + 5e-13], [1.0, 2.0]])
        for stored in (CovarianceSet([m]).matrices[0], operator_core._psd_stack([m])[0][0]):
            assert np.array_equal(stored, stored.T)
            assert stored[1, 0] == m[0, 1]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_asymmetric(self, entry):
        with pytest.raises(ValueError, match="not symmetric"):
            validate(entry, [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_nonsquare(self, entry):
        with pytest.raises(ValueError, match="square"):
            validate(entry, np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_entries(self, bad):
        for entry in ENTRY_POINTS:
            with pytest.raises(ValueError, match="finite"):
                validate(entry, [[1.0, bad], [bad, 1.0]])
            with pytest.raises(ValueError, match="finite"):
                validate(entry, [[bad]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_anywhere_is_named_before_asymmetry(self, bad):
        # one-sided and diagonal entries too; no RuntimeWarning on the way
        for entries in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [0.0, 1.0]],
                        [[1.0, 0.0], [bad, 1.0]], [[1.0, 5.0], [bad, 1.0]]):
            for entry in ENTRY_POINTS:
                with pytest.raises(ValueError, match="finite"):
                    validate(entry, entries)

    def test_asymmetry_names_the_first_bad_matrix(self):
        stack = [np.eye(2), [[1.0, 0.0], [3e-12, 1.0]], [[1.0, 0.5], [0.25, 1.0]]]
        with pytest.raises(ValueError, match=r"max asymmetry 3\.000e-12"):
            operator_core._psd_stack(stack)
        with pytest.raises(ValueError, match=r"max asymmetry 2\.500e-01"):
            operator_core._psd_stack(stack[::2])


class TestSymmetricMirror:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_bitwise_equal_to_the_triangle_sum(self, n):
        rng = np.random.default_rng(n)
        stack = np.stack([random_sym(rng, n) for _ in range(4)])
        signed = rng.random((n, n)) < 0.4
        stack[:, signed | signed.T] = 0.0
        stack[:, signed] = -0.0  # some pairs hold -0.0 on one side only
        stack[1] = -0.0
        stack[2, 0, -1] += 5e-13  # asymmetry within SYMMETRY_TOL
        got = operator_core._symmetric(stack)
        want = np.triu(stack) + np.swapaxes(np.triu(stack, 1), 1, 2)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[1]).any()


class TestPsdValidation:
    def test_clamps_tiny_negative_eigenvalue(self):
        cs = CovarianceSet([np.diag([1.0, -1e-11])])
        assert cs.eigenvalues[0, 0] >= 0.0
        assert np.linalg.eigvalsh(cs.matrices[0])[0] >= 0.0

    def test_exact_rank_one_of_large_norm_is_accepted(self):
        # the clamp recomposes v v^T with a rounding asymmetry near
        # 1e-16 |v|^2, above SYMMETRY_TOL at |v|^2 ~ 3e4
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = 100.0 * rng.standard_normal((3, 1))
            q = v @ v.T
            cs = CovarianceSet([q])
            assert np.array_equal(cs.matrices[0], cs.matrices[0].T)
            assert np.linalg.norm(cs.matrices[0] - q) <= 1e-14 * np.linalg.norm(q)
            root = cs.roots[0]
            assert np.linalg.norm(root @ root - q) <= 1e-12 * np.linalg.norm(q)

    @pytest.mark.parametrize("scale", [1000.0, 3162.0])
    def test_drift_bound_grows_with_the_spectral_radius(self, scale):
        # exact rank-one matrices with |v|^2 ~ 3e6 and 3e7: the smallest
        # eigenvalue of many rounds below -1e-10, within the scaled bound
        v = scale * np.random.default_rng(3).standard_normal((200, 3, 1))
        for q in v @ v.swapaxes(1, 2):
            stored = CovarianceSet([q]).matrices[0]
            assert np.linalg.norm(stored - q) <= 1e-14 * np.linalg.norm(q)

    @pytest.mark.parametrize("diag, bound", [([1.0, -1e-6], r"1e-10"),
                                             ([1e6, -1e-3], r"0\.0001")],
                             ids=["norm-1", "norm-1e6"])
    def test_rejects_genuinely_indefinite(self, diag, bound):
        with pytest.raises(ValueError, match=f"not PSD: .* below -{bound} "):
            CovarianceSet([np.diag(diag)])


class TestNnls:
    """The Lawson-Hanson solver against scipy's, which stays the reference."""

    @staticmethod
    def check_against_scipy(a, b, x_tol=1e-12):
        x, rnorm = operator_core.nnls(a, b)
        x_ref, r_ref = scipy_nnls(a, b)
        assert x.shape == (a.shape[1],) and np.all(x >= 0.0)
        if x_tol is not None:
            np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=x_tol)
        assert rnorm == pytest.approx(r_ref, rel=1e-12, abs=1e-12)
        assert np.linalg.norm(a @ x - b) == pytest.approx(rnorm, rel=1e-10, abs=1e-12)
        return x, rnorm

    @pytest.mark.parametrize("m, n", [(3, 3), (5, 1), (5, 2), (8, 4), (17, 3), (65, 3),
                                      (30, 12)])
    def test_matches_scipy_on_full_rank_problems(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        supports = set()
        for trial in range(60):
            a = rng.standard_normal((m, n))
            # mixed-sign weights plus noise: every size of active set turns up
            b = a @ rng.uniform(-1.0, 1.0, n) + 0.3 * (trial % 3) * rng.standard_normal(m)
            x, _ = self.check_against_scipy(a, b)
            supports.add(int(np.count_nonzero(x)))
        assert len(supports) >= min(n, 3)

    @pytest.mark.parametrize("m, n", [(3, 4), (3, 8), (6, 13), (6, 49)])
    def test_wide_problems_reach_scipy_residual(self, m, n):
        # a minimiser is not unique here: the residual and optimality are
        rng = np.random.default_rng(m + n)
        for trial in range(20):
            a = rng.standard_normal((m, n))
            b = a @ rng.uniform(0.0, 1.0, n) if trial % 2 else rng.standard_normal(m)
            x, rnorm = self.check_against_scipy(a, b, x_tol=None)
            assert np.count_nonzero(x) <= m
            gradient = a.T @ (b - a @ x)
            assert np.all(gradient <= 1e-12 * (1.0 + np.linalg.norm(b)) * np.linalg.norm(a))

    def test_zero_column_gets_no_weight(self):
        a = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, -1.0], [2.0, 0.0, 0.3], [1.0, 0.0, 1.0]])
        for b in ([1.0, 2.0, -1.0, 0.5], [3.0, 0.0, 2.3, 2.0]):
            x, _ = self.check_against_scipy(a, np.array(b))
            assert x[1] == 0.0

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_rank_deficient_columns(self, m):
        rng = np.random.default_rng(m)
        u, v = rng.standard_normal(m), rng.standard_normal(m)
        a = np.column_stack([u, v, u + v, u, 2.0 * v])
        for trial in range(20):
            b = a @ rng.uniform(-0.5, 1.0, 5) + (trial % 2) * rng.standard_normal(m)
            self.check_against_scipy(a, b, x_tol=None)

    def test_zero_right_hand_side(self):
        a = np.random.default_rng(4).standard_normal((6, 3))
        for rows in (6, 2):
            x, rnorm = operator_core.nnls(a[:rows], np.zeros(rows))
            assert np.array_equal(x, np.zeros(3)) and rnorm == 0.0

    def test_right_hand_side_outside_the_cone(self):
        rng = np.random.default_rng(5)
        for rows in (6, 2):
            a = rng.uniform(0.1, 1.0, (rows, 3))
            b = -rng.uniform(0.1, 1.0, rows)
            x, rnorm = operator_core.nnls(a, b)
            assert np.array_equal(x, np.zeros(3))
            assert rnorm == pytest.approx(np.linalg.norm(b), rel=1e-15)

    def test_ties_enter_the_lowest_index(self):
        # equal gradients at x = 0: the first of the equal columns takes it all
        x, rnorm = operator_core.nnls(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
                                      np.array([2.0, 2.0]))
        assert np.array_equal(x, [2.0, 0.0, 0.0]) and rnorm <= 1e-15

    def test_stays_private(self):
        assert "nnls" not in operator_core.__all__
