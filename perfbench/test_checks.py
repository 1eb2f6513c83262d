"""Each output check passes a good output and rejects a deliberately corrupted one.

Run with ``python3 -m pytest perfbench``.  The good outputs come from a small
real ``mhdlab simulate`` run and a ``mhdlab norms`` run on a generated field.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _mhdlab(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "mhdlab.cli", *args], cwd=cwd, env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A converged coupled run with the oracle on: n = 16, nine nodes on [0, 0.5]."""
    cwd = tmp_path_factory.mktemp("simulate")
    cfg = workloads._config(16, 0.5, 9, workloads._coupled(0.05, (3, 4)), oracle={"enabled": True})
    (cwd / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    proc = _mhdlab(["simulate", "--config", "config.json"], cwd)
    assert proc.returncode == 0, proc.stderr
    out = cwd / "out"
    manifest = checks.read_manifest(out / "manifest.json")
    nodes = manifest["config"]["mesh"]["nodes"]
    omega, current, l = checks.read_snapshots(out, len(nodes))
    return {
        "manifest": manifest,
        "nodes": nodes,
        "omega": omega,
        "current": current,
        "l": l,
        "series": checks.read_series(out / "series.csv"),
    }


def test_reader_matches_mhdlab_and_rejects_bad_files(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from mhdlab.field_io import read_field

    values = np.random.default_rng(0).standard_normal((3, 8, 8, 8))
    checks.write_mhf(tmp_path / "f.mhf", values, 2.0)
    ours, l = checks.read_mhf(tmp_path / "f.mhf")
    assert l == 2.0 and np.array_equal(ours, values)
    assert np.array_equal(read_field(tmp_path / "f.mhf").values, values)
    raw = (tmp_path / "f.mhf").read_bytes()
    (tmp_path / "short.mhf").write_bytes(raw[:-8])
    (tmp_path / "magic.mhf").write_bytes(b"X" + raw[1:])
    for bad in ("short.mhf", "magic.mhf"):
        with pytest.raises(ValueError):
            checks.read_mhf(tmp_path / bad)


def test_divergence_free(run):
    assert checks.check_divergence_free(run["omega"], run["l"], "omega") == []
    n, l = run["omega"][0].shape[-1], run["l"]
    x = np.arange(n) * (l / n)
    bad = [f.copy() for f in run["omega"]]
    bad[2][0] += 1e-3 * np.sin(x)[:, None, None]  # a gradient: d/dx1 of -cos(x1)
    assert checks.check_divergence_free(bad, l, "omega")


def test_energy_monotone_and_balanced(run):
    energy, defect = checks.energy_balance(run["omega"], run["current"], run["nodes"], run["l"])
    assert all(b < a for a, b in zip(energy, energy[1:])) and defect < checks.ENERGY_BALANCE_TOL
    assert checks.check_energy(run["omega"], run["current"], run["nodes"], run["l"]) == []
    rising = [f.copy() for f in run["omega"]]
    rising[-1] *= 1.5
    assert any("rises" in p for p in checks.check_energy(rising, run["current"], run["nodes"], run["l"]))
    slow = [f * math.exp(0.2 * t) for f, t in zip(run["omega"], run["nodes"])]  # decays too slowly
    problems = checks.check_energy(slow, run["current"], run["nodes"], run["l"])
    assert any("balance" in p for p in problems)


def test_series_l2_columns(run):
    args = (run["omega"], run["current"], run["nodes"], run["l"])
    assert checks.check_series(run["series"], *args) == []
    bad = copy.deepcopy(run["series"])
    bad["j_l2"][3] *= 1 + 1e-9
    assert checks.check_series(bad, *args)
    bad = copy.deepcopy(run["series"])
    bad["t"].pop()
    assert checks.check_series(bad, *args)


def test_manifest_and_oracle_distance(run):
    m = run["manifest"]
    assert checks.check_manifest(m, converged=True) == []
    assert checks.check_manifest(m, converged=False)
    assert checks.check_manifest(m, converged=True, sweep_count=m["sweep_count"] + 1)
    assert checks.check_oracle_distance(m, workloads.ORACLE_BOUND) == []
    for bad in (float("nan"), float("inf"), 10 * workloads.ORACLE_BOUND, None):
        assert checks.check_oracle_distance(dict(m, oracle_distance=bad), workloads.ORACLE_BOUND)


def test_amplitude(run):
    assert checks.check_amplitude(run["omega"][0], 0.05, "omega") == []
    assert checks.check_amplitude(run["omega"][0] * (1 + 1e-9), 0.05, "omega")


def test_norm_rows(tmp_path):
    ring, _ = workloads.norm_fields(seed=5, n=16)
    path = tmp_path / "ring.mhf"
    checks.write_mhf(path, ring, workloads.L)
    exponents = ",".join(f"{p!r}:{lam!r}" for p, lam in workloads.NORM_EXPONENTS)
    proc = _mhdlab(["norms", str(path), "--exponents", exponents, "--stride", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = checks.parse_norm_rows(proc.stdout)
    assert checks.check_norm_rows(rows, ring, workloads.L, workloads.NORM_EXPONENTS) == []
    finite = next(i for i, r in enumerate(rows) if r["radius"] != math.inf)
    for key, factor in (("value", 1 + 1e-7), ("radius", 2.0), ("center_x2", 0.0)):
        bad = copy.deepcopy(rows)
        bad[finite][key] = bad[finite][key] * factor if factor else bad[finite][key] + 1.0
        assert checks.check_norm_rows(bad, ring, workloads.L, workloads.NORM_EXPONENTS), key
    global_row = next(i for i, r in enumerate(rows) if r["lambda"] == 0.0)
    bad = copy.deepcopy(rows)
    bad[global_row]["value"] *= 0.999
    assert checks.check_norm_rows(bad, ring, workloads.L, workloads.NORM_EXPONENTS)


def test_verify_report():
    check = {"name": "a", "measured": 0.0, "bound": 1.0, "passed": True}
    good = {"suite": "all", "passed": True, "suites": [{"suite": "regions", "passed": True, "checks": [check]}]}
    assert checks.check_verify_report(good) == []
    bad = copy.deepcopy(good)
    bad["suites"][0]["checks"][0]["passed"] = False
    assert checks.check_verify_report(bad)
    assert checks.check_verify_report(dict(good, passed=False))

