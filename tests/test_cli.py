"""CLI contract: exit codes, reproducibility, file handling."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhdlab
from mhdlab import cli
from mhdlab.cli import main
from mhdlab.field_io import read_field, write_field
from mhdlab.fields import ScalarField, make_grid
from mhdlab.kernels import gaussian_bump
from mhdlab.morrey import MorreyParams, morrey_norm
from mhdlab.theory import smallness_threshold

from .oracles import fine_radii, morrey_direct


def _config(tmp_path, **overrides):
    cfg = {
        "grid": {"n": 32, "l": 2 * math.pi},
        "mesh": {"horizon": 1.0, "num_nodes": 9, "spacing": "uniform"},
        "data": {
            "family": "single_mode",
            "wavevector": [1, 0, 0],
            "component": 3,
            "amplitude": 1e-3,
        },
        "exponents": {"p": 1.5, "q": 1.0, "p0": 1.0, "q0": 1.0},
        "tolerances": {"picard_tol": 1e-8, "max_sweeps": 50},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSimulate:
    def test_canonical_run(self, tmp_path, capsys):
        path, cfg = _config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"]
        assert manifest["sweep_count"] <= 10
        assert "constants" not in manifest
        assert manifest["smallness_threshold"] == smallness_threshold(1.5, 1.0)
        assert manifest["config"]["oracle_dt"] is None and manifest["oracle_distance"] is None
        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("t,omega_l2,j_l2")
        assert len(series) == 1 + len(manifest["config"]["mesh"]["nodes"])
        assert (out / "omega_0000.mhf").exists()
        assert (out / "current_0008.mhf").exists()

    def test_reproducible_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        path_a, _ = _config(
            tmp_path / "a",
            data={"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
            output_dir=str(tmp_path / "a" / "out"),
        )
        path_b, _ = _config(
            tmp_path / "b",
            data={"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
            output_dir=str(tmp_path / "b" / "out"),
        )
        assert main(["simulate", "--config", str(path_a)]) == 0
        assert main(["simulate", "--config", str(path_b)]) == 0
        csv_a = (tmp_path / "a" / "out" / "series.csv").read_bytes()
        csv_b = (tmp_path / "b" / "out" / "series.csv").read_bytes()
        assert csv_a == csv_b
        man_a = json.loads((tmp_path / "a" / "out" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "out" / "manifest.json").read_text())
        man_a.pop("timestamp")
        man_b.pop("timestamp")
        assert man_a == man_b

    def test_seed_override_changes_data(self, tmp_path):
        path, _ = _config(
            tmp_path,
            data={"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
        )
        assert main(["simulate", "--config", str(path), "--seed", "11"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["data"]["omega"]["seed"] == 11

    def test_seed_override_keeps_coupled_fields_apart(self, tmp_path):
        data = {
            "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
            "j": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
        }
        path, _ = _config(tmp_path, data=data)
        assert main(["simulate", "--config", str(path), "--seed", "7"]) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = {key: manifest["config"]["data"][key]["seed"] for key in ("omega", "j")}
        assert seeds == {"omega": 7, "j": 8}
        w0 = read_field(out / "omega_0000.mhf").values
        j0 = read_field(out / "current_0000.mhf").values
        assert np.abs(w0 - j0).max() > 0.1 * np.abs(w0).max()

    def test_diverging_run_exits_2_with_manifest(self, tmp_path, capsys):
        # the deltas grow in sweeps 2 and 3 (ratios 4.32, 14.4): the run stops there
        path, _ = _config(
            tmp_path,
            grid={"n": 16, "l": 2 * math.pi},
            data={
                "omega": {"family": "random_divfree", "seed": 11, "cutoff": 4, "amplitude": 30.0},
                "j": {"family": "random_divfree", "seed": 12, "cutoff": 4, "amplitude": 30.0},
            },
            tolerances={"picard_tol": 1e-14, "max_sweeps": 20},
        )
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "stopped contracting in sweep 3 (delta ratios 4.32, 14.4)" in err
        assert "diverged" not in err
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False and manifest["stop"] == "not_contracting"
        assert manifest["sweep_count"] == 3
        sweeps = manifest["sweeps"]
        assert all(math.isfinite(s["delta"]) for s in sweeps)
        assert sweeps[0]["ratio"] is None
        assert [s["ratio"] for s in sweeps[1:]] == pytest.approx([4.32, 14.4], rel=2e-3)
        assert all(s["error_bound"] is None for s in sweeps)
        nodes = len(manifest["config"]["mesh"]["nodes"])
        assert len((out / "series.csv").read_text().splitlines()) == 1 + nodes
        assert np.isfinite(read_field(out / f"omega_{nodes - 1:04d}.mhf").values).all()

    def test_no_smallness_threshold_outside_its_region(self, tmp_path, capsys):
        # (p, q) = (2.2, 0.5) passes the config's region check but not the threshold's
        exponents = {"p": 2.2, "q": 0.5, "p0": 1.25, "q0": 0.5}
        path, _ = _config(tmp_path, grid={"n": 16, "l": 2 * math.pi}, exponents=exponents,
                          mesh={"horizon": 0.25, "num_nodes": 3, "spacing": "uniform"})
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["smallness_threshold"] is None

    def test_manifest_records_ratios_and_bounds(self, tmp_path, capsys):
        path, _ = _config(
            tmp_path,
            grid={"n": 16, "l": 2 * math.pi},
            data={
                "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 0.5},
                "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": 0.5},
            },
        )
        assert main(["simulate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("converged in ")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stop"] == "converged"
        sweeps = manifest["sweeps"]
        assert len(sweeps) >= 3 and sweeps[-1]["delta"] <= 1e-8
        assert sweeps[0]["ratio"] is None and sweeps[0]["error_bound"] is None
        for prev, cur in zip(sweeps, sweeps[1:]):
            rho = cur["delta"] / prev["delta"]
            assert cur["ratio"] == rho < 1.0
            assert cur["error_bound"] == cur["delta"] * rho / (1.0 - rho)

    @pytest.mark.parametrize("amplitude, sweeps", [(1e-3, None), (1e150, 1)])
    def test_series_norms_are_those_of_the_snapshots(self, tmp_path, amplitude, sweeps):
        # the series reuses the last sweep's per-node norms; a first sweep
        # that diverges leaves the heat flow, whose norms are estimated anew
        path, cfg = _config(
            tmp_path,
            grid={"n": 16, "l": 2 * math.pi},
            mesh={"horizon": 1.0, "num_nodes": 5, "spacing": "uniform"},
            data={
                "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": amplitude},
                "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": amplitude},
            },
        )
        assert main(["simulate", "--config", str(path)]) == (0 if sweeps is None else 2)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        if sweeps is not None:
            assert manifest["sweep_count"] == sweeps and manifest["sweeps"][-1]["delta"] == math.inf
            assert manifest["stop"] == "overflow"
        mp = MorreyParams(cfg["exponents"]["p"], cfg["exponents"]["q"])
        rows = (out / "series.csv").read_text().splitlines()[1:]
        for m, row in enumerate(rows):
            mw, mj = (float(v) for v in row.split(",")[3:5])
            assert mw == morrey_norm(read_field(out / f"omega_{m:04d}.mhf"), mp)
            assert mj == morrey_norm(read_field(out / f"current_{m:04d}.mhf"), mp)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_oracle_is_an_error(self, tmp_path, capsys):
        # the sweeps diverge, then the Heun oracle's nodes overflow: an error
        # message and exit 1, not a traceback
        path, _ = _config(
            tmp_path,
            grid={"n": 16, "l": 2 * math.pi},
            mesh={"horizon": 0.1, "num_nodes": 3, "spacing": "uniform"},
            data={
                "omega": {"family": "random_divfree", "seed": 1, "cutoff": 4, "amplitude": 1e300},
                "j": {"family": "random_divfree", "seed": 2, "cutoff": 4, "amplitude": 1e300},
            },
            oracle={"enabled": True},
        )
        assert main(["simulate", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_large_amplitude_reports_nonconvergence(self, tmp_path, capsys):
        path, _ = _config(
            tmp_path,
            data={
                "omega": {"family": "random_divfree", "seed": 5, "cutoff": 6, "amplitude": 1.0},
                "j": {"family": "random_divfree", "seed": 6, "cutoff": 6, "amplitude": 1.0},
            },
            tolerances={"picard_tol": 1e-12, "max_sweeps": 3},
        )
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "did not contract" in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["converged"] is False and manifest["stop"] == "budget"

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_rejects_sweep_budget_below_one(self, tmp_path, capsys, max_sweeps):
        path, _ = _config(tmp_path, tolerances={"picard_tol": 1e-8, "max_sweeps": max_sweeps})
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: max_sweeps must be at least 1" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_rejects_zero_oracle_step(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the solve ran before the oracle step was checked")

        monkeypatch.setattr(cli, "run_picard", forbidden)
        # at n = 16 the fastest retained mode has |k|^2 = 75, so dt = 1 is unresolved
        for dt, message in ((0, "dt must be positive"), (1.0, "does not resolve the fastest retained mode")):
            path, _ = _config(
                tmp_path,
                grid={"n": 16, "l": 2 * math.pi},
                mesh={"horizon": 0.1, "num_nodes": 3, "spacing": "uniform"},
                oracle={"enabled": True, "dt": dt},
            )
            assert main(["simulate", "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tolerances": {"max_sweep": 1}}, "'max_sweep' in tolerances"),
            ({"data": {"family": "single_mode", "amplitud": 1e-3}}, "'amplitud' in data"),
            ({"data": {"omega": {"family": "zero"}, "current": {"family": "zero"}}}, "'current' in data"),
            ({"data": {"family": "random_divfree", "amplitude": None}}, "data.amplitude must be a number"),
            ({"oracle": {"enabled": "false"}}, "oracle.enabled must be true or false"),
            ({"tolerances": {"max_sweeps": 2.9}}, "tolerances.max_sweeps must be a whole number"),
            ({"tolerances": {"picard_tol": 0}}, "picard_tol must be positive"),
            ({"grid": 5}, "grid must be an object"),
            ({"grid": {"n": 32.5}}, "grid.n must be a whole number"),
            ({"constants": [1]}, "'constants' in the config"),
            ({"constants": {"heat_smothing": 2.0}}, "'constants' in the config"),
            ({"exponents": {"p": None}}, "exponents.p must be a number"),
            ({"mesh": {"num_nodes": "9"}}, "mesh.num_nodes must be a whole number"),
            ({"mesh": {"quad_order": 2.5}}, "mesh.quad_order must be a whole number"),
            ({"mesh": {"ratio": 2.0}}, "mesh.ratio applies only to graded spacing"),
            ({"sampling": {"stride": 1.5}}, "sampling.stride must be a whole number"),
            ({"sampling": {"radii_per_octave": True}}, "sampling.radii_per_octave must be a whole number"),
            ({"box_study": {}}, "'box_study' in the config"),
            ({"oracle": {"enabled": False, "dt": -5.0}}, "oracle.dt applies only to an enabled oracle"),
            ({"oracle": {"dt": 1e9}}, "oracle.dt applies only to an enabled oracle"),
            ({"output": "elsewhere"}, "'output'"),
            ({"data": {"family": "single_mode", "component": 4}}, "data.component"),
            ({"data": {"family": "random_divfree", "seed": -1}}, "data.seed"),
            ({"data": {"family": "single_mode", "wavevector": [0, 0, 0]}}, "data.wavevector"),
            ({"data": {"family": "single_mode", "wavevector": [0, 0, 1], "component": 3}}, "data.wavevector"),
            (
                {"grid": {"n": 16}, "data": {"family": "gaussian_vortex_ring", "core_width": 0.1}},
                "data.core_width",
            ),
            ({"constants": {}}, "'constants' in the config"),
        ],
    )
    def test_rejects_bad_config_before_any_work(self, tmp_path, capsys, monkeypatch, overrides, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        for name in ("generate_initial_data", "initial_size_report", "run_picard"):
            monkeypatch.setattr(cli, name, forbidden)
        path, _ = _config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_rejects_config_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"grid": {"n": 32}}]))
        assert main(["simulate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"

    def test_rejects_seed_for_unseeded_data(self, tmp_path, capsys):
        path, _ = _config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "4"]) == 1
        assert "no family of this data spec takes one" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejects_inadmissible_exponents(self, tmp_path, capsys):
        path, _ = _config(tmp_path, exponents={"p": 1.0, "q": 1.0, "p0": 1.0, "q0": 1.0})
        assert main(["simulate", "--config", str(path)]) == 1
        assert "region check" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path, _ = _config(tmp_path, output_dir=str(blocker / "out"))

        def forbidden(*args, **kwargs):
            raise AssertionError("the solve ran before the output directory was made")

        monkeypatch.setattr(cli, "run_picard", forbidden)
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_run_writes_nothing_and_matches_the_manifest(self, tmp_path, monkeypatch):
        # Experiment.run computes in this process; simulate writes what it returns
        path, cfg = _config(
            tmp_path,
            grid={"n": 16, "l": 2 * math.pi},
            mesh={"horizon": 0.25, "num_nodes": 5, "spacing": "uniform"},
            data={
                "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 0.5},
                "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": 0.5},
            },
            oracle={"enabled": True},
            output_dir="out",
        )
        monkeypatch.chdir(tmp_path)
        exp = cli.Experiment.from_config(cfg)
        before = sorted(tmp_path.rglob("*"))
        run = exp.run()
        assert sorted(tmp_path.rglob("*")) == before
        assert main(["simulate", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert run.sizes == manifest["initial_norms"]
        assert run.report.stop == manifest["stop"] == "converged"
        assert list(run.report.deltas) == [s["delta"] for s in manifest["sweeps"]]
        assert run.oracle_distance == manifest["oracle_distance"] and run.oracle_distance > 0
        assert manifest["config"]["oracle_dt"] == exp.oracle_dt == 1.0 / 75

    def test_missing_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


class TestVerify:
    def test_fast_suites_green(self, capsys):
        assert main(["verify", "recursions"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert main(["verify", "regions"]) == 0
        capsys.readouterr()


class TestRegion:
    def test_pair_query(self, capsys):
        assert main(["region", "1.5", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        entry = report["queries"][0]
        assert entry["a1"] and entry["a2"]

    def test_witness_query(self, capsys):
        assert main(["region", "1.5", "1.0", "1.0", "1.0", "1.0", "1.0"]) == 0
        entry = json.loads(capsys.readouterr().out)["queries"][0]
        assert entry["e1"]
        assert entry["witness"]["p_tilde"] == pytest.approx(1.2, abs=1e-9)

    def test_csv_input(self, tmp_path, capsys):
        csv_file = tmp_path / "q.csv"
        csv_file.write_text("1.5,1.0\n1.0,1.0\n1.5,1.0,1.0,1.0\n")
        assert main(["region", "--csv", str(csv_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["a1"] for e in report["queries"]] == [True, False, True]

    def test_no_query_is_error(self, capsys):
        assert main(["region"]) == 1

    def test_bad_arity(self, capsys):
        assert main(["region", "1.5", "1.0", "1.0"]) == 1


class TestNorms:
    def test_constant_field_row(self, tmp_path, capsys):
        g = make_grid(32, 2 * math.pi)
        c = 0.25
        write_field(tmp_path / "const.mhf", ScalarField(g, np.full((32,) * 3, c)))
        assert main(["norms", str(tmp_path / "const.mhf"), "--exponents", "1:0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split(",")[:3] == ["p", "lambda", "value"]
        value = float(rows[1].split(",")[2])
        assert value == pytest.approx(c * g.volume, rel=1e-12)

    def test_bump_matches_oracle(self, tmp_path, capsys):
        g = make_grid(32, 2 * math.pi)
        bump = gaussian_bump(g, 0.2)
        write_field(tmp_path / "bump.mhf", bump)
        assert (
            main(
                [
                    "norms",
                    str(tmp_path / "bump.mhf"),
                    "--exponents",
                    "1:1",
                    "--radii-per-octave",
                    "4",
                ]
            )
            == 0
        )
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        oracle = morrey_direct(
            bump, MorreyParams(1, 1), fine_radii(g, 16), stride=2, window_center=(16, 16, 16)
        )
        assert abs(value - oracle) <= 0.05 * oracle

    def test_rejects_bad_lambda(self, tmp_path, capsys):
        g = make_grid(32, 2 * math.pi)
        write_field(tmp_path / "f.mhf", ScalarField(g, np.zeros((32,) * 3)))
        assert main(["norms", str(tmp_path / "f.mhf"), "--exponents", "1:3.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "scaling exponent must lie in [0, 3)" in err

    def test_rejects_bad_lambda_before_reading_the_file(self, tmp_path, capsys):
        assert main(["norms", str(tmp_path / "missing.mhf"), "--exponents", "1:3.5"]) == 1
        err = capsys.readouterr().err
        assert err == "error: scaling exponent must lie in [0, 3), got 3.5\n"

    def test_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mhf"
        bad.write_bytes(b"not a field file at all")
        assert main(["norms", str(bad), "--exponents", "1:0"]) == 1
        err = capsys.readouterr().err
        assert "offset" in err or "magic" in err or "truncated" in err


def test_import_loads_no_quadrature_or_root_finder_and_starts_no_thread():
    # scipy.integrate and scipy.optimize are imported by the theory functions
    # that use them; together they were most of the CLI's import time.  The
    # smallness threshold, which every simulate manifest records, needs neither
    code = (
        "import sys, threading, mhdlab.cli\n"
        "mhdlab.cli.smallness_threshold(1.5, 1.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))))\n"
        "print(threading.active_count())"
    )
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "1"]


def test_benchmark_harness_runs_and_its_span_names_resolve(tmp_path):
    # perfbench/launch.py patches the solver calls on mhdlab.cli, its tracer
    # wraps the public functions named in perfbench/run.py, and microbench.py
    # calls public functions of mhdlab directly
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    cfg = {
        "grid": {"n": 8, "l": 2 * math.pi},
        "mesh": {"horizon": 0.1, "num_nodes": 3, "spacing": "uniform", "quad_order": 4},
        "data": {
            "omega": {"family": "random_divfree", "amplitude": 0.05, "seed": 1},
            "j": {"family": "random_divfree", "amplitude": 0.05, "seed": 2},
        },
        "oracle": {"enabled": True, "dt": None},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    launch = [sys.executable, str(bench / "launch.py"), "--timing", "timing.json", "--spans", "spans.json"]
    for cmd in (
        [*launch, "--", "simulate", "--config", "config.json"],
        [sys.executable, str(bench / "microbench.py"), "--run-dir", "out"],
    ):
        proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for names, _field in run.SPAN_METRICS.values():
        for span in names:
            module, name = span.split(".")
            fn = getattr(importlib.import_module(f"mhdlab.{module}"), name, None)
            assert not name.startswith("_") and inspect.isfunction(fn), span
            assert fn.__module__ == f"mhdlab.{module}", span


def test_benchmark_and_readme_configs_pass_the_config_checks(tmp_path, monkeypatch):
    # the benchmark's simulate configs and the README example are checked as
    # simulate checks them, without solving anything
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = []
    for name, build in workloads.WORKLOADS.items():
        for op in build(tmp_path / name, 1):
            if op.args[0] == "simulate":
                configs.append(json.loads((op.cwd / op.args[op.args.index("--config") + 1]).read_text()))
    assert len(configs) == 4
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Experiment config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    configs.append(json.loads(example))
    for cfg in configs:
        exp = cli.Experiment.from_config(cfg)
        assert exp.manifest_config()["grid"] == {"n": cfg["grid"]["n"], "l": cfg["grid"]["l"]}
