import csv
import json
import math
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from gexpect import CovarianceSet, experiment_cli
from gexpect.experiment_cli import MC_Z, _Report, main, run
from gexpect.g_normal import MomentBounds
from gexpect.g_pde import MeshSpec, PdeProblem, residual_check, solve_gheat

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, **overrides):
    doc = {
        "name": "smoke",
        "kind": "moments",
        "sigma": {"dim": 2, "extremes": [[1, 0, 0, 1], [4, 0, 0, 0]], "label": "s"},
        "params": {"m_max": 2, "n_samples": 5000},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def load_report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


def rule(rec):
    """The verdict a record's lhs, rhs, tolerance and side give; null fails."""
    lhs, rhs, tol = rec["lhs"], rec["rhs"], rec["tolerance"]
    if None in (lhs, rhs, tol):
        return False
    return {"two": abs(lhs - rhs) <= tol, "le": lhs <= rhs + tol,
            "ge": lhs >= rhs - tol}[rec["side"]]


class TestRun:
    def test_moments_smoke_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        report = load_report(tmp_path)
        assert report["ok"] is True
        names = {r["name"] for r in report["records"]}
        assert "second-moment-exact" in names and "second-moment-mc" in names
        # the exact identity record: E||X||^2 = sup Tr Q = 4
        exact = next(r for r in report["records"] if r["name"] == "second-moment-exact")
        assert exact["lhs"] == pytest.approx(4.0, abs=1e-12)

    def test_reports_are_byte_identical_modulo_timings(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        first = strip_timings(load_report(tmp_path))
        first_text = json.dumps(first, sort_keys=True)
        assert main(["run", str(cfg)]) == 0
        second = strip_timings(load_report(tmp_path))
        assert json.dumps(second, sort_keys=True) == first_text

    @pytest.mark.parametrize("kind, params", [
        ("ou", {"steps": 12, "n_paths": 200, "substeps": 4}),
        ("gpde", {"nodes": 9, "steps": 4, "n_paths": 100, "n_probes": 2}),
    ])
    def test_mild_path_reports_are_byte_identical_modulo_timings(self, tmp_path, kind,
                                                                 params):
        # the runners that walk mild paths: the report and every artifact
        cfg = write_config(tmp_path, kind=kind, params=params)
        runs = []
        for _ in range(2):
            assert main(["run", str(cfg)]) == 0
            files = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()
                     if path.name != "report.json"}
            runs.append((json.dumps(strip_timings(load_report(tmp_path)), sort_keys=True),
                         files))
        assert runs[0] == runs[1]
        assert sorted(runs[0][1]) == load_report(tmp_path)["artifacts"]

    def test_seed_override_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        base = load_report(tmp_path)
        monkeypatch.setenv("GEXPECT_SEED_OVERRIDE", "12345")
        assert main(["run", str(cfg)]) == 0
        overridden = load_report(tmp_path)
        assert overridden["config"]["seed"] == 12345
        assert base["config"]["seed"] == 7

    def test_invalid_seed_override_is_usage_error(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("GEXPECT_SEED_OVERRIDE", "not-a-number")
        assert main(["run", str(cfg)]) == 2

    def test_malformed_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ this is not json")
        assert main(["run", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path, kind="telepathy")
        assert main(["run", str(cfg)]) == 2

    def test_missing_seed(self, tmp_path):
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2

    def test_sigma_from_file(self, tmp_path):
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(
            json.dumps({"dim": 1, "extremes": [[1.0], [0.25]], "label": "band"})
        )
        cfg = write_config(
            tmp_path, kind="nested", sigma="sigma.json",
            params={"form": "constant", "n_paths": 100},
        )
        assert main(["run", str(cfg)]) == 0
        report = load_report(tmp_path)
        assert report["records"][0]["lhs"] == 1.0

    def test_out_flag_overrides_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        dest = tmp_path / "elsewhere"
        assert main(["run", str(cfg), "--out", str(dest)]) == 0
        assert (dest / "report.json").is_file()

    def test_fubini_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="fubini",
            sigma={"dim": 2, "extremes": [[1, 0, 0, 1]], "label": "id"},
            params={"steps": 4, "weights": [0.6, 0.4], "n_paths": 20},
        )
        assert main(["run", str(cfg)]) == 0

    def test_fubini_runs_one_path(self, tmp_path):
        # its check is exact per path, so one path is a sample (a Monte Carlo
        # kind needs two)
        cfg = write_config(
            tmp_path, kind="fubini",
            sigma={"dim": 2, "extremes": [[1, 0, 0, 1]], "label": "id"},
            params={"steps": 4, "n_paths": 1},
        )
        assert main(["run", str(cfg)]) == 0

    def test_isometry_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="isometry",
            sigma={"dim": 1, "extremes": [[1], [0.25]], "label": "band"},
            params={"steps": 4, "n_paths": 800, "trials": 2},
        )
        assert main(["run", str(cfg)]) == 0

    def test_threads_flag_is_unrecognized(self, tmp_path, capsys):
        # runs are serial: the flag is gone, and argparse rejects it
        assert main(["run", str(write_config(tmp_path)), "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads" in err
        assert "Traceback" not in err

    def test_run_rejects_threads_other_than_one(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(ValueError, match="threads must be 1"):
            run(cfg, threads=2)
        assert run(cfg, threads=1)[0]["ok"] is True

    def test_nested_kind_product(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="nested",
            sigma={"dim": 1, "extremes": [[1], [0.25]], "label": "band"},
            params={"form": "product", "n_paths": 3000},
        )
        assert main(["run", str(cfg)]) == 0

    def test_nested_kind_sum_at_half_horizon(self, tmp_path):
        # B_T has the covariance set T * Sigma: the sum form's rhs is
        # 3 T max_Q Q_00
        T = 0.5
        cfg = write_config(
            tmp_path, kind="nested",
            sigma={"dim": 2, "extremes": [[2, 0.3, 0.3, 1], [0.5, 0, 0, 3]], "label": "c"},
            params={"form": "sum", "T": T, "steps": 4, "n_paths": 2000},
        )
        assert main(["run", str(cfg)]) == 0
        [record] = load_report(tmp_path)["records"]
        assert record["name"] == "nested-sum"
        assert record["rhs"] == pytest.approx(3.0 * T * 2.0, rel=1e-12)

    def test_band_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="band",
            sigma={"dim": 2, "extremes": [[1, 0.5, 0.5, 1], [1, 0, 0, 1]], "label": "c"},
            params={"n_directions": 2, "n_samples": 20000},
        )
        assert main(["run", str(cfg)]) == 0

    @pytest.mark.parametrize("overrides, key", [
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"nodes": 2}}, "'nodes'"),
        ({"params": {"n_samples": "abc"}}, "'n_samples'"),
        ({"sigma": {"dim": 1, "extremes": [[-1], [0.25]]}}, "sigma"),
        ({"params": {"n_samples": float("nan")}}, "NaN"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"terminal": [1]}}, "'terminal'"),
        ({"seed": True}, "seed"),
        ({"kind": "isometry", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"mode": "determinstic"}}, "'mode'"),
        ({"kind": ["moments"]}, "kind"),
        (3, "JSON object"),
        (None, "JSON object"),
        ({"kind": "isometry", "params": {"steps": 0}}, "'steps'"),
        ({"kind": "isometry", "params": {"steps": 2.9}}, "'steps'"),
        ({"kind": "isometry", "params": {"trials": True}}, "'trials'"),
        ({"kind": "isometry", "params": {"n_paths": 0}}, "'n_paths'"),
        ({"kind": "isometry", "params": {"T": -1.0}}, "'T'"),
        ({"kind": "isometry", "params": {"trials": 0}}, "'trials'"),
        ({"kind": "ou", "params": {"steps": 20, "substeps": 7}}, "'substeps'"),
        ({"kind": "bdg", "params": {"p_values": [1, 3]}}, "'p_values'"),
        ({"kind": "bdg", "params": {"p_values": []}}, "'bdg'"),
        ({"kind": "ou", "params": {"beta": 1.5, "steps": 20, "n_paths": 50}}, "'beta'"),
        ({"kind": "ou", "params": {"beta": 0.0, "steps": 20, "n_paths": 50}}, "'beta'"),
        ({"kind": "ou", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"a_diag": [1.0], "steps": 20, "n_paths": 50}}, "'a_diag'"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"x0": 9.0, "nodes": 21, "lattice_steps": 20, "n_paths": 50}},
         "'x0'"),
        # a param that is a constant now is unknown, whatever its value
        ({"kind": "sigma_integral", "params": {"closed_tol": 1e-6, "n_paths": 50}},
         "'closed_tol'"),
        ({"kind": "sigma_integral", "params": {"frobenius_tol": 0.05, "n_paths": 50}},
         "'frobenius_tol'"),
        ({"kind": "gpde", "params": {"c_disc": 10.0, "nodes": 9, "n_paths": 50,
                                     "n_probes": 1}}, "'c_disc'"),
        ({"seed": -1}, "seed"),
        # "env" is not a config key: the test sets it around the run
        ({"env": {"GEXPECT_SEED_OVERRIDE": "-3"}}, "GEXPECT_SEED_OVERRIDE"),
        ({"sigma": {"dim": 2.5, "extremes": [[1, 0, 0, 1]]}}, "sigma"),
        ({"sigma": {"dim": "2", "extremes": [[1, 0, 0, 1]]}}, "sigma"),
        ({"sigma": {"dim": 1, "extremes": [["nan"], [0.25]]}}, "finite"),
        ({"sigma": {"dim": 1, "extremes": [["inf"], [0.25]]}}, "finite"),
        # rank one along (1, sqrt 2): no integer grid direction carries it
        ({"kind": "gpde", "sigma": {"dim": 2, "extremes": [
            [1.0, math.sqrt(2.0), math.sqrt(2.0), 2.0], [1, 0, 0, 1]]},
          "params": {"nodes": 9, "n_paths": 50, "n_probes": 1}},
         "extreme 0"),
        # so are the boxes
        ({"kind": "gpde", "params": {"box": [-2.4, 2.4], "nodes": 9, "n_paths": 50,
                                     "n_probes": 1}}, "'box'"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"box": [-3.0, 3.0], "nodes": 11, "lattice_steps": 20,
                     "n_paths": 50}}, "'box'"),
        # rank one along (1, 1) at t = T, but E(t) (1, 1) = (e^-s, e^-2s) is no
        # integer direction for the segment midpoints s = T - t > 0
        ({"kind": "gpde", "sigma": {"dim": 2, "extremes": [[1, 1, 1, 1], [1, 0, 0, 1]]},
          "params": {"a_diag": [-1.0, -2.0], "nodes": 9, "n_paths": 50, "n_probes": 1}},
         "'sigma'"),
        # a misspelled key, one per kind
        ({"params": {"n_samples": 1000, "m_maxx": 2}}, "'m_maxx'"),
        ({"kind": "band", "params": {"n_samples": 1000, "n_directons": 1}},
         "'n_directons'"),
        ({"kind": "isometry", "params": {"steps": 2, "n_paths": 100, "trial": 1}},
         "'trial'"),
        ({"kind": "bdg", "params": {"steps": 2, "n_paths": 100, "p_value": [2]}},
         "'p_value'"),
        ({"kind": "sigma_integral", "params": {"steps": 4, "n_paths": 50,
                                               "quadsteps": 100}}, "'quadsteps'"),
        ({"kind": "fubini", "params": {"steps": 2, "n_paths": 10, "weight": [1.0]}},
         "'weight'"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"nodes": 11, "lattice_steps": 20, "steps": 2, "n_paths": 50,
                     "termnal": "abs"}}, "'termnal'"),
        ({"kind": "gpde", "params": {"nodes": 9, "steps": 2, "n_paths": 50,
                                     "n_probes": 1, "a-diag": [-1.0, -2.0]}},
         "'a-diag'"),
        ({"kind": "ou", "params": {"steps": 4, "n_paths": 50, "substeps": 2,
                                   "Beta": 0.5}}, "'Beta'"),
        ({"kind": "nested", "params": {"steps": 2, "n_paths": 100, "from": "sum"}},
         "'from'"),
        # the other params that are constants now
        ({"params": {"n_samples": 1000, "scale": 1.0}}, "'scale'"),
        ({"kind": "band", "params": {"n_samples": 1000, "n_directions": 1,
                                     "scale": 1.0}}, "'scale'"),
        ({"kind": "gpde", "params": {"nodes": 9, "steps": 2, "n_paths": 50,
                                     "n_probes": 1, "scalar_lambda": 0.8}},
         "'scalar_lambda'"),
        ({"kind": "gpde", "params": {"nodes": 9, "steps": 2, "n_paths": 50,
                                     "n_probes": 1, "scalar_nodes": 241}},
         "'scalar_nodes'"),
        ({"kind": "ou", "params": {"steps": 4, "n_paths": 50, "substeps": 2,
                                   "quad_steps": 2000}}, "'quad_steps'"),
        ({"kind": "ou", "params": {"steps": 4, "n_paths": 50, "substeps": 2,
                                   "export_paths": 20}}, "'export_paths'"),
        ({"kind": "nested", "params": {"form": "constant", "n_paths": 100,
                                       "constant": 1.0}}, "'constant'"),
        # a misspelled top-level key, and a flag that is not a JSON boolean
        ({"parms": {"m_max": 2}}, "'parms'"),
        ({"params": {"n_samples": 1000, "dump_samples": "no"}}, "'dump_samples'"),
        # a real is a JSON number, not a bool or a string
        ({"kind": "isometry", "params": {"T": True}}, "'T'"),
        ({"kind": "isometry", "params": {"T": "2"}}, "'T'"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"x0": "0.3"}}, "'x0'"),
        ({"kind": "gheat", "sigma": {"dim": 1, "extremes": [[1], [0.25]]},
          "params": {"x0": True}}, "'x0'"),
        # a per-coordinate vector is a flat list with one number per coordinate
        ({"kind": "sigma_integral", "params": {"a_diag": [[-0.5, -1.0]]}}, "'a_diag'"),
        ({"kind": "gpde", "params": {"quad_coeffs": [0.5]}}, "'quad_coeffs'"),
        ({"kind": "ou", "params": {"a_diag": -1.0}}, "'a_diag'"),
        # a list param is a nonempty list
        ({"kind": "fubini", "params": {"weights": []}}, "'weights'"),
        ({"kind": "fubini", "params": {"weights": 0.5}}, "'weights'"),
        # a kind that needs one dimension names it
        ({"kind": "gpde", "sigma": {"dim": 1, "extremes": [[1], [0.25]]}}, "'gpde'"),
        # an integer too large for a float
        ({"kind": "isometry", "params": {"T": 10**400}}, "'T'"),
        # a Monte Carlo sample of one draw has no standard error
        ({"params": {"n_samples": 1}}, "'n_samples'"),
        ({"kind": "band", "params": {"n_samples": 1}}, "'n_samples'"),
        ({"kind": "bdg", "params": {"n_paths": 1}}, "'n_paths'"),
        ({"kind": "gpde", "params": {"n_paths": 1}}, "'n_paths'"),
        # the moment constants are certified up to order 5 and dimension 8
        ({"params": {"m_max": 6}}, "'m_max'"),
        ({"sigma": {"dim": 9, "extremes": [np.eye(9).ravel().tolist()]}}, "'sigma'"),
        # each power names one record
        ({"kind": "bdg", "params": {"p_values": [2, 2]}}, "'p_values'"),
        # an output path is a string that names a directory or nothing yet
        # ("out" is not a config key: the test writes a file "taken" and sets
        # output_dir to this path under tmp_path)
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": "out\u0000"}, "NUL"),
        ({"out": "taken"}, "is a file"),
        ({"out": "taken/sub"}, "is a file"),
        # a sigma object has no other keys than dim, extremes and label
        ({"sigma": {"dim": 1, "extremes": [[1]], "foo": 1}}, "'foo'"),
        ({"sigma": {"dim": 2, "extremes": [[1, 0, 0, 1]], "lable": "s"}}, "'lable'"),
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                            overrides, key):
        if isinstance(overrides, dict):
            overrides = dict(overrides)
            for name, value in overrides.pop("env", {}).items():
                monkeypatch.setenv(name, value)
            if "out" in overrides:
                (tmp_path / "taken").write_text("kept\n")
                overrides["output_dir"] = str(tmp_path / overrides.pop("out"))
            cfg = write_config(tmp_path, **overrides)
        else:  # a whole document that is not an object
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(overrides))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        if "unknown to a" in err:
            assert "; known: " in err
        # rejected before anything runs: no output directory is made
        assert not (tmp_path / "out").exists()
        assert {p.name for p in tmp_path.iterdir()} <= {"config.json", "taken"}
        if (tmp_path / "taken").exists():
            assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("kind, known", [
        ("moments", "dump_samples, m_max, n_samples"),
        ("band", "n_directions, n_samples"),
        ("isometry", "T, mode, n_paths, steps, trials"),
        ("bdg", "T, n_paths, p_values, steps"),
        ("sigma_integral", "T, a_diag, n_paths, quad_steps, steps"),
        ("fubini", "n_paths, steps, weights"),
        ("gheat", "T, lattice_steps, n_paths, nodes, steps, terminal, x0"),
        ("gpde", "T, a_diag, n_paths, n_probes, nodes, quad_coeffs, steps"),
        ("ou", "T, a_diag, beta, n_paths, steps, substeps"),
        ("nested", "T, form, n_paths, steps"),
    ])
    def test_unknown_param_lists_known_params(self, tmp_path, capsys, kind, known):
        sigma = {"dim": 1 if kind == "gheat" else 2,
                 "extremes": [[1], [0.25]] if kind == "gheat" else [[1, 0, 0, 1]]}
        cfg = write_config(tmp_path, kind=kind, sigma=sigma, params={"n_pathz": 10})
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (f"error: param 'n_pathz': unknown to a {kind!r} run; "
                               f"known: {known}")

    def test_unknown_param_costs_nothing(self, tmp_path, capsys, monkeypatch):
        # the params are checked before the run: no draw is made
        def draw(*args, **kwargs):
            raise AssertionError("static_upper_report was called")

        monkeypatch.setattr(experiment_cli, "static_upper_report", draw)
        cfg = write_config(tmp_path, params={"n_sample": 1000})
        assert main(["run", str(cfg)]) == 2
        assert "'n_sample'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_that_is_a_file_costs_nothing(self, tmp_path, capsys, monkeypatch):
        # the output path is checked before the run: no draw is made
        def draw(*args, **kwargs):
            raise AssertionError("static_upper_report was called")

        monkeypatch.setattr(experiment_cli, "static_upper_report", draw)
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        for out in (taken, taken / "sub"):
            assert main(["run", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "is a file" in err
            assert "Traceback" not in err
        assert taken.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_sigma_file_with_nonstandard_number_is_usage_error(self, tmp_path, capsys,
                                                               token):
        (tmp_path / "sigma.json").write_text(
            f'{{"dim": 1, "extremes": [[{token}], [0.25]], "label": "band"}}')
        assert main(["run", str(write_config(tmp_path, sigma="sigma.json"))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and token in err
        assert "Traceback" not in err

    def test_nan_check_value_is_null_and_fails(self, tmp_path, monkeypatch):
        # NaN moment bounds: the first record and the series row hold null
        monkeypatch.setattr(experiment_cli, "moment_bounds_check",
                            lambda gn, m: MomentBounds(math.nan, math.nan, math.nan, False))
        cfg = write_config(tmp_path, params={"n_samples": 1000})
        assert main(["run", str(cfg)]) == 1
        text = (tmp_path / "out" / "report.json").read_text()

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(text, parse_constant=reject)
        record = report["records"][0]
        assert record["lhs"] is None and record["rhs"] is None
        assert record["ok"] is False
        assert report["series"]["moments"]["rows"][0][1:] == [None, None, None]

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2


class TestLoadErrors:
    @pytest.mark.parametrize("make, match", [
        pytest.param(lambda tmp: tmp / "missing.json", "config file not found",
                     id="no-config-file"),
        pytest.param(lambda tmp: write_config(tmp, sigma="missing-sigma.json"),
                     "covariance-set file not found", id="no-sigma-file"),
        pytest.param(lambda tmp: write_config(tmp, params=[1]),
                     "params must be a JSON object", id="params-not-object"),
    ])
    def test_raises(self, tmp_path, make, match):
        with pytest.raises(experiment_cli.UsageError, match=match):
            run(make(tmp_path))
        assert not (tmp_path / "out").exists()


class TestReport:
    """The record format of the runner's one sink."""

    @staticmethod
    def sink(tmp_path):
        return _Report(SimpleNamespace(seed=7), tmp_path)

    def test_check_schema_adds_seed_with_n_paths(self, tmp_path):
        for side, ok in (("two", False), ("le", True), ("ge", False)):
            rep = self.sink(tmp_path)
            rep.check("iso", 1.0, 2.0, 0.1, side, n_paths=100)
            rep.check("exact", 1.0, 2.0, 0.1, side)
            assert rep.records == [
                {"name": "iso", "side": side, "lhs": 1.0, "rhs": 2.0, "tolerance": 0.1,
                 "ok": ok, "n_paths": 100, "seed": 7},
                {"name": "exact", "side": side, "lhs": 1.0, "rhs": 2.0, "tolerance": 0.1,
                 "ok": ok},
            ]

    @pytest.mark.parametrize("lhs, rhs, tol, ok", [
        (1.0, 1.05, 0.1, True), (1.0, 1.2, 0.1, False), (2.0, 1.0, 1.0, True),
        (-1.0, 1.0, 1.5, False),
    ])
    def test_ok_defaults_to_closeness(self, tmp_path, lhs, rhs, tol, ok):
        rep = self.sink(tmp_path)
        rep.check("c", lhs, rhs, tol)
        assert rep.records[0]["ok"] is ok and rep.records[0]["side"] == "two"

    @pytest.mark.parametrize("lhs, rhs, tol, le, ge", [
        (1.0, 1.05, 0.1, True, True), (1.0, 1.2, 0.1, True, False),
        (2.0, 1.0, 1.0, True, True), (2.0, 1.0, 0.5, False, True),
        (-1.0, 1.0, 1.5, True, False), (1.0, 1.0, 0.0, True, True),
    ])
    def test_one_sided_rules(self, tmp_path, lhs, rhs, tol, le, ge):
        rep = self.sink(tmp_path)
        rep.check("le", lhs, rhs, tol, "le")
        rep.check("ge", lhs, rhs, tol, "ge")
        assert [rec["ok"] for rec in rep.records] == [le, ge]

    @pytest.mark.parametrize("se, slack", [(0.1, 0.0), (0.37, 0.02), (2.5, 1e-3)])
    def test_single_monte_carlo_check_allows_three_standard_errors(self, tmp_path,
                                                                  se, slack):
        assert MC_Z == 3.0
        assert self.sink(tmp_path).mc_tol(se, slack) == 3.0 * se + slack
        assert self.sink(tmp_path).mc_tol(se, slack, family=1) == 3.0 * se + slack

    def test_family_tolerance_keeps_the_single_check_error_rate(self, tmp_path):
        # Bonferroni: m comparisons at alpha / m each, alpha = 2 Phi(-3)
        tols = [self.sink(tmp_path).mc_tol(1.0, family=m) for m in (1, 2, 10, 100)]
        assert tols[0] == 3.0
        assert tols[2] == pytest.approx(3.6425, abs=1e-4)
        assert tols == sorted(tols) and len(set(tols)) == 4
        se = np.array([0.5, 2.0])
        assert np.array_equal(self.sink(tmp_path).mc_tol(se, 0.1, family=10),
                              tols[2] * se + 0.1)

    def test_family_z_is_the_scipy_normal_quantile(self, tmp_path):
        sink = self.sink(tmp_path)
        for family in range(2, 1001):
            assert sink.mc_tol(1.0, family=family) == pytest.approx(
                -ndtri(ndtr(-MC_Z) / family), rel=1e-14)

    @pytest.mark.parametrize("side", ["two", "le", "ge"])
    @pytest.mark.parametrize("field", ["lhs", "rhs", "tolerance"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_check_is_null_and_fails(self, tmp_path, side, field, bad):
        # an inf tolerance, lhs of "ge" or rhs of "le" alone would pass
        values = {"lhs": 1.0, "rhs": 1.0, "tolerance": 0.1}
        values[field] = bad
        rep = self.sink(tmp_path)
        rep.check("x", values["lhs"], values["rhs"], values["tolerance"], side)
        rec = rep.records[0]
        assert rec[field] is None and rec["ok"] is False
        json.dumps(rec, allow_nan=False)


class TestPlot:
    def test_series_to_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        report_path = tmp_path / "out" / "report.json"
        assert main(["plot", str(report_path), "--series", "moments",
                     "--out", str(tmp_path / "plots")]) == 0
        lines = (tmp_path / "plots" / "moments.csv").read_text().strip().splitlines()
        assert lines[0] == "m,lower,value,upper"
        assert len(lines) == 3

    def test_unknown_series(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        report_path = tmp_path / "out" / "report.json"
        assert main(["plot", str(report_path), "--series", "nope"]) == 2

    def test_missing_report(self, tmp_path):
        assert main(["plot", str(tmp_path / "nothing.json"), "--series", "x"]) == 2

    @pytest.mark.parametrize("report, key", [
        ([], "'series'"),
        ({"series": {"s": {"rows": [[1.0]]}}}, "'columns'"),
        ({"series": {"s": {"columns": ["a"], "rows": [1.0]}}}, "'rows'"),
    ])
    def test_malformed_report_is_usage_error(self, tmp_path, capsys, report, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["plot", str(path), "--series", "s", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data, key", [
        (b"\x80\xff\x00 not text", "utf-8"),
        (b'{"series": {"s": {"columns": ["a"], "rows": [[NaN]]}}}', "NaN"),
    ], ids=["not-utf8", "nan-token"])
    def test_report_that_is_not_strict_json_is_usage_error(self, tmp_path, capsys,
                                                            data, key):
        path = tmp_path / "report.json"
        path.write_bytes(data)
        out = tmp_path / "plots"
        assert main(["plot", str(path), "--series", "s", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report JSON") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_series_name_that_is_not_one_file_name_is_usage_error(self, tmp_path,
                                                                   capsys):
        # every name is a series of the report: only the name itself is wrong
        names = ["a/b", "../esc", str(tmp_path / "abs")]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(
            {"series": {name: {"columns": ["x"], "rows": [[1.0]]} for name in names}}))
        for name in names:
            assert main(["plot", str(path), "--series", name,
                         "--out", str(tmp_path / "plots")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "not one plain file name" in err
            assert "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["report.json"]

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        report_path = tmp_path / "out" / "report.json"
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        for out in (taken, taken / "sub"):
            assert main(["plot", str(report_path), "--series", "moments",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "is a file" in err
            assert "Traceback" not in err
        assert taken.read_text() == "kept\n"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestArtifacts:
    """The CSV artifacts and sidecar that the runner writes next to a report."""

    def test_samples_csv(self, tmp_path):
        cfg = write_config(tmp_path, params={"m_max": 1, "n_samples": 5,
                                             "dump_samples": True})
        assert main(["run", str(cfg)]) in (0, 1)
        assert load_report(tmp_path)["artifacts"] == ["samples.csv"]
        rows = read_csv(tmp_path / "out" / "samples.csv")
        assert rows[0] == ["x0", "x1"] and len(rows) == 1 + 5

    def test_gheat_slice_csv(self, tmp_path):
        band = {"dim": 1, "extremes": [[1.0], [0.25]], "label": "band"}
        cfg = write_config(tmp_path, kind="gheat", sigma=band, params={
            "T": 0.2, "nodes": 11, "lattice_steps": 50, "steps": 4, "n_paths": 200})
        assert main(["run", str(cfg)]) in (0, 1)
        rows = read_csv(tmp_path / "out" / "gheat_slice.csv")
        assert rows[0] == ["x0", "u"] and len(rows) == 1 + 11
        prob = PdeProblem(1, CovarianceSet.from_dict(band), lambda p: p[..., 0] ** 2,
                          0.2, ((-3.0, 3.0),))
        sol = solve_gheat(prob, MeshSpec(nodes=11))
        got = np.array(rows[1:], dtype=float)
        assert np.array_equal(got[:, 0], sol.axes[0])
        assert np.array_equal(got[:, 1], sol.time_slice(0))

    def test_solver_tables(self, tmp_path):
        band = {"dim": 1, "extremes": [[1.0], [0.25]], "label": "band"}
        cfg = write_config(tmp_path, kind="gheat", sigma=band, params={
            "T": 0.2, "nodes": 11, "lattice_steps": 50, "steps": 4, "n_paths": 200})
        assert main(["run", str(cfg)]) in (0, 1)
        table = load_report(tmp_path)["series"]["solver"]
        assert table["columns"] == ["solve", "n_steps", "dt", "h", "cfl_ratio",
                                    "bytes_held", "residual"]
        prob = PdeProblem(1, CovarianceSet.from_dict(band), lambda p: p[..., 0] ** 2,
                          0.2, ((-3.0, 3.0),))
        sol = solve_gheat(prob, MeshSpec(nodes=11))
        h = float(sol.axes[0][1] - sol.axes[0][0])
        assert table["rows"] == [["gheat", sol.n_steps, sol.dt, h, sol.cfl_ratio,
                                  sol.bytes_held, residual_check(sol, prob)]]
        cfg = write_config(tmp_path, kind="gpde", params={
            "nodes": 9, "steps": 4, "n_paths": 100, "n_probes": 2})
        assert main(["run", str(cfg)]) in (0, 1)
        rows = load_report(tmp_path)["series"]["solver"]["rows"]
        assert [row[0] for row in rows] == ["gpde", "scalar-ou"]
        assert all(row[5] <= (math.isqrt(row[1]) + 2) * 8 * n**dim
                   for row, n, dim in zip(rows, (9, 241), (2, 1)))

    def test_ou_paths_csv_and_sidecar(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="ou", sigma={"dim": 2, "extremes": [[1, 0, 0, 1]]},
            params={"steps": 6, "n_paths": 50, "substeps": 3})
        assert main(["run", str(cfg)]) in (0, 1)
        out = tmp_path / "out"
        assert load_report(tmp_path)["artifacts"] == ["ou_paths.csv", "ou_paths.json"]
        rows = read_csv(out / "ou_paths.csv")
        assert rows[0][:3] == ["path", "coord", "t=0"] and len(rows[0]) == 2 + 7
        assert len(rows) == 1 + 20 * 2
        assert [row[:2] for row in rows[1:3]] == [["0", "0"], ["0", "1"]]
        meta = json.loads((out / "ou_paths.json").read_text())
        assert sorted(meta) == ["T", "n_paths", "policy", "seed", "sigma_label",
                                "steps", "t0"]
        assert meta["n_paths"] == 20 and meta["steps"] == 6


@pytest.mark.parametrize("name", [p.stem for p in sorted(CONFIG_DIR.glob("*.json"))])
def test_shipped_configs_load(name, tmp_path):
    """Every shipped config parses and names a known kind (no execution)."""
    from gexpect.experiment_cli import ExperimentConfig

    cfg = ExperimentConfig.load(CONFIG_DIR / f"{name}.json", tmp_path / "o")
    assert cfg.kind in {
        "moments", "band", "isometry", "bdg", "sigma_integral",
        "fubini", "gheat", "gpde", "ou", "nested",
    }


def test_record_names_are_unique_in_every_kind(tmp_path, monkeypatch):
    """No two records of a report share a name, and each record's ok is its
    rule's verdict, in each kind's shipped config; every shipped config passes."""
    monkeypatch.delenv("GEXPECT_SEED_OVERRIDE", raising=False)
    kinds = set()
    for path in sorted(CONFIG_DIR.glob("*.json")):
        report, _ = run(path, tmp_path / path.stem)
        kinds.add(report["config"]["kind"])
        names = [rec["name"] for rec in report["records"]]
        assert len(set(names)) == len(names), (path.stem, names)
        assert report["records"] and report["ok"], path.stem
        for rec in report["records"]:
            assert rec["ok"] == rule(rec), (path.stem, rec)
    assert kinds == set(experiment_cli.KINDS)
    # ou names its records by time: dense times take more digits
    cfg = write_config(tmp_path, kind="ou", sigma={"dim": 1, "extremes": [[1]]},
                       params={"steps": 2000, "substeps": 1, "n_paths": 50})
    report, _ = run(cfg)
    names = [rec["name"] for rec in report["records"]]
    assert len(set(names)) == len(names) == 2002
    assert names[:2] == ["variance-t0.0005", "variance-t0.001"]


@pytest.mark.parametrize("name", ["bdg", "isometry"])
def test_inequality_records_show_the_rule_that_decides_them(name, tmp_path, monkeypatch):
    """A one-sided Monte Carlo record is ok exactly when lhs <= rhs + tolerance."""
    monkeypatch.delenv("GEXPECT_SEED_OVERRIDE", raising=False)
    assert main(["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "report.json").read_text())["records"]
    assert records
    for rec in records:
        assert rec["side"] == "le", rec
        assert rec["ok"] == (rec["lhs"] <= rec["rhs"] + rec["tolerance"]), rec


def test_moment_lower_record_has_no_constant(tmp_path, monkeypatch):
    """A moments run whose E||X||^(2m) is half of sup Tr[Q^m] for m >= 2 fails
    exactly its moment-lower records, which K_m times the value would pass."""
    check = experiment_cli.moment_bounds_check

    def halved(gn, m):
        b = check(gn, m)
        return b._replace(value=0.5 * b.lower) if m >= 2 else b

    monkeypatch.setattr(experiment_cli, "moment_bounds_check", halved)
    assert main(["run", str(write_config(tmp_path, params={"m_max": 3}))]) == 1
    failed = {rec["name"] for rec in load_report(tmp_path)["records"] if not rec["ok"]}
    assert failed == {"moment-lower-m2", "moment-lower-m3"}


def test_ou_variance_record_shows_the_failing_coordinate(tmp_path, monkeypatch):
    """A 2-d ou run whose coordinate 1 is off by a factor 4 in variance: each
    variance record shows coordinate 1's numbers, and its ok is their rule's."""
    walk = experiment_cli._walk

    def doubled(*args, **kwargs):
        for k, *state, conv in walk(*args, **kwargs):
            yield (k, *state, conv * np.array([1.0, 2.0]))

    monkeypatch.setattr(experiment_cli, "_walk", doubled)
    cfg = write_config(tmp_path, kind="ou",
                       sigma={"dim": 2, "extremes": [[0.8, 0, 0, 0.5]]},
                       params={"steps": 40, "substeps": 10, "n_paths": 2000})
    assert main(["run", str(cfg)]) == 1
    report = load_report(tmp_path)
    records = [rec for rec in report["records"] if rec["name"].startswith("variance-t")]
    rows = report["series"]["variance"]["rows"]  # t, emp0, emp1, exact0, exact1
    assert len(records) == len(rows) == 4
    for rec, row in zip(records, rows):
        assert (rec["lhs"], rec["rhs"]) == (row[2], row[4])
        assert rec["ok"] is False and rule(rec) is False


@pytest.mark.parametrize("key, value, code", [
    ("T", 1e-300, 0), ("T", 1e300, 1), ("a_diag", [-1e300, -1e300], 0),
])
def test_sigma_integral_pairs_each_extreme_with_its_own_integral(tmp_path, capsys, key,
                                                                 value, code):
    """Params under which the two integrals merge into one set member: each
    extreme is still checked against its own integral.  At T = 1e300 the
    closed-form records fail, as they should: the midpoints miss the mass of
    the integrand, which lies in the last unit of [0, T]."""
    params = {"a_diag": [-0.5, -1.0], "quad_steps": 200, "steps": 4, "n_paths": 200}
    cfg = write_config(tmp_path, kind="sigma_integral",
                       sigma={"dim": 2, "extremes": [[1, 0, 0, 1], [0.25, 0, 0, 0.25]]},
                       params={**params, key: value})
    assert main(["run", str(cfg)]) == code
    assert "Traceback" not in capsys.readouterr().err
    names = [rec["name"] for rec in load_report(tmp_path)["records"]]
    assert names == ["closed-form-extreme-0", "closed-form-extreme-1",
                     "empirical-extreme-0", "empirical-extreme-1"]
