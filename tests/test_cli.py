"""CLI contract: exit codes, reproducibility, file handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mhdlab
from mhdlab.cli import main
from mhdlab.field_io import read_field, write_field
from mhdlab.fields import ScalarField, make_grid
from mhdlab.kernels import gaussian_bump
from mhdlab.morrey import MorreyParams

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
        assert manifest["constants"]["heat_smoothing"]["provenance"] == "default"
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
        assert manifest["config"]["data"]["seed"] == 11

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
        assert "diverged" in capsys.readouterr().err
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False
        assert manifest["sweeps"][-1]["delta"] == math.inf
        assert manifest["sweep_count"] < 20
        nodes = len(manifest["config"]["mesh"]["nodes"])
        assert len((out / "series.csv").read_text().splitlines()) == 1 + nodes
        assert np.isfinite(read_field(out / f"omega_{nodes - 1:04d}.mhf").values).all()

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
        assert manifest["converged"] is False

    def test_rejects_inadmissible_exponents(self, tmp_path, capsys):
        path, _ = _config(tmp_path, exponents={"p": 1.0, "q": 1.0, "p0": 1.0, "q0": 1.0})
        assert main(["simulate", "--config", str(path)]) == 1
        assert "region check" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path, _ = _config(tmp_path, output_dir=str(blocker / "out"))
        assert main(["simulate", "--config", str(path)]) == 1

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
        assert "lambda out of" in capsys.readouterr().err

    def test_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mhf"
        bad.write_bytes(b"not a field file at all")
        assert main(["norms", str(bad), "--exponents", "1:0"]) == 1
        err = capsys.readouterr().err
        assert "offset" in err or "magic" in err or "truncated" in err


def test_import_loads_no_quadrature_or_root_finder_and_starts_no_thread():
    # scipy.integrate and scipy.optimize are imported by the theory functions
    # that use them; together they were most of the CLI's import time
    code = (
        "import sys, threading, mhdlab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))))\n"
        "print(threading.active_count())"
    )
    src = str(Path(mhdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "1"]
