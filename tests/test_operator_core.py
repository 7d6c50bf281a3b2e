import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect import operator_core
from gexpect.operator_core import (
    PsdOperator,
    SymOperator,
    outer,
    psd_sqrt,
    schatten_norm,
    trace_product,
)

from conftest import random_sym


class TestSymOperator:
    def test_storage_is_exactly_symmetric(self):
        m = np.array([[1.0, 2.0 + 5e-13], [2.0, 3.0]])
        op = SymOperator(m)
        assert np.array_equal(op.entries, op.entries.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SymOperator([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            PsdOperator([[bad]])

    def test_immutable(self):
        op = SymOperator.identity(2)
        with pytest.raises(AttributeError):
            op.entries = np.zeros((2, 2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


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


class TestPsdOperator:
    def test_clamps_tiny_negative_eigenvalue(self):
        m = np.diag([1.0, -1e-11])
        op = PsdOperator(m)
        assert op.eigen_floor == pytest.approx(-1e-11)
        assert np.linalg.eigvalsh(op.entries)[0] >= 0.0

    def test_rejects_genuinely_indefinite(self):
        with pytest.raises(ValueError):
            PsdOperator(np.diag([1.0, -1e-6]))


class TestSchattenNorm:
    def test_identity_trace_norm(self):
        # trace of the 2x2 identity
        assert schatten_norm(SymOperator.identity(2), 1) == pytest.approx(2.0)

    def test_spectral_radius(self):
        # largest absolute eigenvalue of diag(3, -4)
        assert schatten_norm(SymOperator.diagonal([3.0, -4.0]), math.inf) == pytest.approx(4.0)

    def test_frobenius_against_eigen_sum_oracle(self):
        # oracle: explicit eigen-sum sqrt(3^2 + 4^2) = 5
        a = SymOperator.diagonal([3.0, 4.0])
        oracle = float(np.sqrt(np.sum(np.linalg.eigvalsh(a.entries) ** 2)))
        assert oracle == pytest.approx(5.0)
        assert schatten_norm(a, 2) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(SymOperator.identity(2), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_monotone_in_p(self, seed, n):
        rng = np.random.default_rng(seed)
        a = SymOperator(random_sym(rng, n))
        n1 = schatten_norm(a, 1)
        n2 = schatten_norm(a, 2)
        ninf = schatten_norm(a, math.inf)
        assert n1 >= n2 - 1e-12 and n2 >= ninf - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_trace_hoelder(self, seed, n):
        rng = np.random.default_rng(seed)
        a = SymOperator(random_sym(rng, n))
        b = SymOperator(random_sym(rng, n))
        lhs = abs(trace_product(a, b))
        rhs = schatten_norm(a, math.inf) * schatten_norm(b, 1)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


class TestPsdSqrt:
    def test_diagonal(self):
        # diagonal square roots
        s = psd_sqrt(PsdOperator(np.diag([4.0, 9.0])))
        assert np.allclose(s.entries, np.diag([2.0, 3.0]))

    def test_zero(self):
        s = psd_sqrt(PsdOperator(np.zeros((3, 3))))
        assert np.array_equal(s.entries, np.zeros((3, 3)))

    def test_square_recovers_input(self):
        # eigen-decomposition oracle: S @ S == input to 1e-9
        q = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = psd_sqrt(PsdOperator(q))
        assert np.linalg.norm(s.entries @ s.entries - q) < 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.5]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_idempotence_on_psd_squares(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        s_psd = PsdOperator(raw @ raw.T / n)
        again = psd_sqrt(PsdOperator(s_psd.entries @ s_psd.entries))
        want = np.sort(np.abs(np.linalg.eigvalsh(s_psd.entries)))
        got = np.sort(np.linalg.eigvalsh(again.entries))
        assert np.allclose(got, want, atol=1e-8)


class TestOuter:
    def test_basis_pair(self):
        # Tr[x (x) y] = <x, y>; here orthogonal, trace 0.
        m = outer([1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(m, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.trace(m) == 0.0

    def test_self_outer(self):
        m = outer([1.0, 1.0], [1.0, 1.0])
        assert np.array_equal(m, np.ones((2, 2)))
        assert np.trace(m) == pytest.approx(2.0)

    def test_componentwise_product_oracle(self):
        # componentwise product oracle
        x, y = np.array([2.0, 0.0]), np.array([3.0, 0.0])
        oracle = x[:, None] * y[None, :]
        m = outer(x, y)
        assert np.array_equal(m, oracle)
        assert np.trace(m) == pytest.approx(6.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            outer([1.0, 0.0], [1.0, 0.0, 0.0])


class TestTraceProduct:
    def test_identity_pair(self):
        i3 = SymOperator.identity(3)
        assert trace_product(i3, i3) == pytest.approx(3.0)

    def test_diagonal_oracle(self):
        # 1*3 + 2*4 = 11
        assert trace_product(
            SymOperator.diagonal([1.0, 2.0]), SymOperator.diagonal([3.0, 4.0])
        ) == pytest.approx(11.0)

    def test_zero(self):
        a = SymOperator([[1.0, 2.0], [2.0, 5.0]])
        assert trace_product(a, SymOperator(np.zeros((2, 2)))) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = SymOperator(random_sym(rng, 4))
        b = SymOperator(random_sym(rng, 4))
        assert trace_product(a, b) == pytest.approx(trace_product(b, a), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_product(SymOperator.identity(2), SymOperator.identity(3))
