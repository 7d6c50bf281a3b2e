"""Memory is bounded by the design: streamed estimators hold no (steps,
n_paths) path block and walk paths in blocks of ``FOLD_ELEMENTS // N``, and a
PDE solve holds checkpoint slices, not every slice."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gexpect import CovarianceSet
from gexpect import control_sim
from gexpect.control_sim import McControlSpec, PolicyFamily, estimate_upper_expectation
from gexpect.experiment_cli import run
from gexpect.g_normal import GNormal, static_upper_expectation
from gexpect.g_pde import (
    MeshSpec,
    PdeProblem,
    mc_values,
    residual_check,
    solve_gpde,
)
from gexpect.stoch_integral import ElementaryProcess, bdg_check

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SIGMA = CovarianceSet([np.diag([1.0, 0.8]), np.diag([0.4, 0.2])], label="diag-2d")
FAMILY = PolicyFamily(bang_bang_stat=lambda s: s[:, 0], bang_bang_name="x1")
N_PATHS = 20_000
# traced peaks of two shipped configs, each run first in a fresh process
# (8.3 and 1.9 MiB, with numpy 2.4), plus 25%
PEAK_SIGMA_INTEGRAL = 10.4 * 2**20
PEAK_NESTED = 2.4 * 2**20
# traced peak of the transported 41^3 solve and its residual below, run first
# in a fresh process (13.2 MiB with numpy 2.4), plus 25%
PEAK_3D_SOLVE = 16.5 * 2**20


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def upper(steps, n_paths=N_PATHS):
    estimate_upper_expectation(SIGMA, lambda x: x[:, 0] ** 2 - x[:, 1], [0.2, 0.1],
                               1.0, steps, n_paths, FAMILY, seed=3)


def probes(steps, n_paths=N_PATHS):
    prob = PdeProblem(2, SIGMA, lambda p: p[..., 0] ** 2 + 0.5 * p[..., 1] ** 2, 0.5,
                      ((-2.0, 2.0), (-2.0, 2.0)), a_gen=np.diag([-1.0, -2.0]))
    spec = McControlSpec(steps=steps, n_paths=n_paths, family=FAMILY, seed=3)
    mc_values(prob, [[0.0, 0.0], [0.5, -0.5], [-0.3, 0.2]], 0.0, spec)


def bdg(steps, n_paths):
    rng = np.random.default_rng(4)
    phi = ElementaryProcess.deterministic(
        np.linspace(0.0, 1.0, steps + 1),
        [rng.standard_normal((2, 2)) for _ in range(steps)])
    bdg_check(phi, SIGMA, 4, PolicyFamily(), n_paths, seed=3)


@pytest.mark.parametrize("estimator", [upper, probes], ids=["upper", "mc_values"])
def test_peak_does_not_grow_with_steps(estimator):
    # a stored (steps, n_paths, N) block would make the 128-step peak 16 times
    # the 8-step block (41 MB against 2.6 MB)
    short = traced_peak(lambda: estimator(8))
    long = traced_peak(lambda: estimator(128))
    assert long <= 1.1 * short


@pytest.mark.parametrize("estimator", [upper, probes, bdg],
                         ids=["upper", "mc_values", "bdg_check"])
def test_peak_does_not_grow_with_paths(estimator):
    # one path block, then eight: walking every path at once makes the second
    # peak five to eight times the first (23, 41 and 25 MB against 4.8, 5.2 and
    # 3.7 MB, with numpy 2.4)
    block = control_sim.FOLD_ELEMENTS // SIGMA.dim
    one = traced_peak(lambda: estimator(4, block))
    eight = traced_peak(lambda: estimator(4, 8 * block))
    assert eight <= 1.1 * one


def test_law_keeps_no_large_draw():
    # a law reuses the samples of its last draw only up to FOLD_ELEMENTS values;
    # at n = 10**6 they are 32 MB, dropped with the call, and so is a smaller
    # draw kept before it
    gn = GNormal(SIGMA)
    static_upper_expectation(gn, lambda x: x[:, 0], 1000, 5)
    assert gn._last is not None
    static_upper_expectation(gn, lambda x: x[:, 0] ** 2, 10**6, 5)
    assert gn._last is None


def test_sigma_integral_config_peak(tmp_path):
    # 100k paths over 50 steps in 2 dimensions: a stored bundle alone is 160 MB
    peak = traced_peak(lambda: run(CONFIG_DIR / "sigma_integral.json", tmp_path))
    assert peak < 30 * 2**20


def test_sigma_integral_config_holds_one_walk(tmp_path):
    # one walk's three (100k, 2) buffers and one extreme's values, 6.4 MB; a
    # second walk kept alive adds 4.8 MB, whole-path temporaries per step 3.2 MB
    peak = traced_peak(lambda: run(CONFIG_DIR / "sigma_integral.json", tmp_path))
    assert peak < PEAK_SIGMA_INTEGRAL


def test_nested_config_peak(tmp_path):
    # 4,000 outer by 4,000 inner paths in payoff blocks of FOLD_ELEMENTS
    # values; a block of 256 outer rows would take 8.2 MB an array
    peak = traced_peak(lambda: run(CONFIG_DIR / "nested.json", tmp_path))
    assert peak < PEAK_NESTED


def transported_3d_solve():
    """Solve a correlated, transported 41^3 problem and read its residual."""
    rng = np.random.default_rng(1)
    extremes = []
    for _ in range(3):
        raw = rng.standard_normal((3, 3))
        q = raw @ raw.T + 0.2 * np.eye(3)
        extremes.append(q * (1.3 / np.linalg.eigvalsh(q)[-1]))
    coeffs = rng.uniform(0.2, 0.6, size=3)
    prob = PdeProblem(3, CovarianceSet(extremes), lambda p: (p**2) @ coeffs, 0.5,
                      ((-2.0, 2.0),) * 3, a_gen=np.diag([-0.5, -1.0, -1.5]))
    residual_check(solve_gpde(prob, MeshSpec(nodes=41)), prob)


def test_transported_3d_solve_and_residual_peak():
    # a correlated, transported 41^3 grid: 73 steps of 0.55 MB slices, 40 MB
    # if every slice were stored, and a new stencil for each of 9 segments
    assert traced_peak(transported_3d_solve) < 40 * 2**20


def test_transported_3d_solve_holds_checkpoints_and_one_tile():
    # 5.3 MiB of checkpoints, three slices, and one stencil whose scratch is
    # one node tile; a (directions + 1) x nodes array of sums is 10 MB more
    assert traced_peak(transported_3d_solve) < PEAK_3D_SOLVE


def test_dedup_peak_does_not_grow_with_the_square_of_the_set():
    # every pairwise difference of 600 extremes in 8-d at once is 184 MB
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((600, 8, 8))
    extremes = raw @ np.swapaxes(raw, 1, 2)
    extremes = (extremes + np.swapaxes(extremes, 1, 2)) / 2.0
    assert traced_peak(lambda: CovarianceSet(extremes)) <= 40 * 2**20
