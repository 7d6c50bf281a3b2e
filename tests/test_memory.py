"""Memory is bounded by the design: streamed estimators hold no path block."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gexpect import CovarianceSet
from gexpect.control_sim import PolicyFamily, estimate_upper_expectation
from gexpect.experiment_cli import run
from gexpect.g_pde import McControlSpec, PdeProblem, mc_values

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SIGMA = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])], label="diag-2d")
FAMILY = PolicyFamily(bang_bang_stat=lambda s: s[:, 0], bang_bang_name="x1")
N_PATHS = 20_000


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def upper(steps):
    estimate_upper_expectation(SIGMA, lambda x: x[:, 0] ** 2 - x[:, 1], [0.2, 0.1],
                               1.0, steps, N_PATHS, FAMILY, seed=3)


def probes(steps):
    prob = PdeProblem(2, SIGMA, lambda p: p[..., 0] ** 2 + 0.5 * p[..., 1] ** 2, 0.5,
                      ((-2.0, 2.0), (-2.0, 2.0)), a_gen=np.diag([-1.0, -2.0]))
    spec = McControlSpec(steps=steps, n_paths=N_PATHS, family=FAMILY, seed=3)
    mc_values(prob, [[0.0, 0.0], [0.5, -0.5], [-0.3, 0.2]], 0.0, spec)


@pytest.mark.parametrize("estimator", [upper, probes], ids=["upper", "mc_values"])
def test_peak_does_not_grow_with_steps(estimator):
    # a stored (steps, n_paths, N) block would make the 128-step peak 16 times
    # the 8-step block (41 MB against 2.6 MB)
    short = traced_peak(lambda: estimator(8))
    long = traced_peak(lambda: estimator(128))
    assert long <= 1.1 * short


def test_sigma_integral_config_peak(tmp_path):
    # 100k paths over 50 steps in 2 dimensions: a stored bundle alone is 160 MB
    peak = traced_peak(lambda: run(CONFIG_DIR / "sigma_integral.json", tmp_path))
    assert peak < 30 * 2**20
