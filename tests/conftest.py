import numpy as np
import pytest

from gexpect import CovarianceSet


def mc_se(vals) -> float:
    """Standard error of a Monte Carlo mean."""
    v = np.asarray(vals, dtype=float)
    return float(v.std(ddof=1) / np.sqrt(v.size))


def random_sym(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n)) * scale
    return (raw + raw.T) / 2.0


def random_psd(rng, n, scale=1.0):
    raw = rng.standard_normal((n, n)) * scale
    return raw @ raw.T / n


def near_psd(rng, n):
    """Correlated PSD matrix whose smallest eigenvalue is -5e-11, inside the clamp."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (basis * np.r_[-5e-11, np.arange(1.0, n)]) @ basis.T
    return (q + q.T) / 2.0


@pytest.fixture
def band_1d():
    """1-d set with volatility band [0.25, 1]."""
    return CovarianceSet([[[1.0]], [[0.25]]], label="band-1d")


@pytest.fixture
def nested_2d():
    """Ordered pair 0.25*I <= I so every block supremum lands on one extreme."""
    return CovarianceSet([np.eye(2), 0.25 * np.eye(2)], label="nested-2d")


@pytest.fixture
def spread_2d():
    """Extremes with distinct traces and shapes."""
    return CovarianceSet(
        [np.diag([1.0, 1.0]), np.diag([4.0, 0.0])], label="spread-2d"
    )


@pytest.fixture
def correlated_2d():
    return CovarianceSet(
        [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)], label="correlated-2d"
    )
