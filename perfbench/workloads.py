"""The four workloads: the mhdlab invocations each makes and the checks on their outputs.

Every workload is a list of operations; one operation is one fresh ``mhdlab``
process, started the way a user starts it, with the program's defaults (one
FFT worker).  The workload seed only shapes the generated configs and field
files: ``simulate`` never receives ``--seed``, because the CLI override gives
the vorticity and the current the same seed, which makes coupled data collapse
to omega = j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

L = 2.0 * math.pi
#: ``--seed`` data never changes these: the operation fails today on every input
DIVERGING_SEEDS = (11, 12)
#: sweep budget of picard_no_contract; the amplitude-30 iterates overflow after 10 sweeps
MAX_SWEEPS = 20
NORM_EXPONENTS = ((1.0, 0.0), (2.0, 0.0), (1.5, 1.0), (1.0, 1.0), (3.0, 2.0), (1.2, 0.5))
#: oracle_distance bound for n = 32, h = 1/40, amplitude 0.05 (measured about 1e-5 to 2e-5)
ORACLE_BOUND = 1e-3
DIVERGENCE_FAULT = (
    "known fault: mild.run_picard guards only picard_sweep, so weighted_seminorms of an "
    "overflowing iterate raises ValueError and the CLI exits 1 instead of 2"
)


@dataclass
class Op:
    """One ``mhdlab`` invocation, run with ``cwd`` set to its own directory."""

    name: str
    cwd: Path
    args: list[str]
    expect_exit: int
    check: Callable[[Path, str], list[str]]
    fault: str = ""
    microbench: list[str] | None = None  # microbench.py arguments, relative to ``cwd``


def data_seeds(seed: int) -> tuple[int, int]:
    """Distinct seeds for the vorticity and the current, both non-negative."""
    base = 1000 + 2 * (seed % 2**30)
    return base, base + 1


def _coupled(amplitude: float, seeds: tuple[int, int], **extra) -> dict:
    return {
        "omega": {"family": "random_divfree", "amplitude": amplitude, "seed": seeds[0], **extra},
        "j": {"family": "random_divfree", "amplitude": amplitude, "seed": seeds[1], **extra},
    }


def _config(n: int, horizon: float, nodes: int, data: dict, **extra) -> dict:
    cfg = {
        "grid": {"n": n, "l": L},
        "mesh": {"horizon": horizon, "num_nodes": nodes, "spacing": "uniform", "quad_order": 4},
        "data": data,
        "output_dir": "out",
    }
    cfg.update(extra)
    return cfg


def _simulate_op(op_dir: Path, name: str, cfg: dict, expect_exit: int, check, fault: str = "") -> Op:
    op_dir.mkdir(parents=True, exist_ok=True)
    (op_dir / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    args = ["simulate", "--config", "config.json"]
    return Op(name, op_dir, args, expect_exit, check, fault, microbench=["--run-dir", "out"])


def _trajectory_check(amplitude: float, converged: bool, sweeps=None, oracle=False):
    """Checks on a simulate run that wrote its manifest, series and snapshots.

    A run that is not expected to converge must still contract: its last
    sweep delta is below its first.
    """

    def check(op_dir: Path, _stdout: str) -> list[str]:
        out = op_dir / "out"
        manifest = checks.read_manifest(out / "manifest.json")
        nodes = manifest["config"]["mesh"]["nodes"]
        omega, current, l = checks.read_snapshots(out, len(nodes))
        problems = checks.check_manifest(manifest, converged, sweeps)
        deltas = [s["delta"] for s in manifest["sweeps"]]
        if not converged and deltas and not deltas[-1] < deltas[0]:
            problems.append(f"sweep deltas do not shrink: {deltas[0]!r} -> {deltas[-1]!r}")
        problems += checks.check_amplitude(omega[0], amplitude, "omega at t = 0")
        problems += checks.check_amplitude(current[0], amplitude, "current at t = 0")
        problems += checks.check_divergence_free(omega, l, "omega")
        problems += checks.check_divergence_free(current, l, "current")
        problems += checks.check_series(checks.read_series(out / "series.csv"), omega, current, nodes, l)
        if converged:
            problems += checks.check_energy(omega, current, nodes, l)
        if oracle:
            problems += checks.check_oracle_distance(manifest, ORACLE_BOUND)
        return problems

    return check


def _diverging_check(op_dir: Path, _stdout: str) -> list[str]:
    manifest = checks.read_manifest(op_dir / "out" / "manifest.json")
    return [] if manifest.get("converged") is False else ["a diverging run reports convergence"]


def _verify_check(_op_dir: Path, stdout: str) -> list[str]:
    return checks.check_verify_report(json.loads(stdout))


def _norms_check(field_path: Path):
    def check(_op_dir: Path, stdout: str) -> list[str]:
        values, l = checks.read_mhf(field_path)
        return checks.check_norm_rows(checks.parse_norm_rows(stdout), values, l, NORM_EXPONENTS)

    return check


def _solenoidal(raw: np.ndarray) -> np.ndarray:
    """Dealias (2/3 rule), Leray-project, de-mean and scale to unit peak magnitude."""
    n = raw.shape[-1]
    kint = np.fft.fftfreq(n, d=1.0 / n)
    k = np.stack(np.meshgrid(kint, kint, kint, indexing="ij"))
    keep = np.all(np.abs(k) <= n / 3.0, axis=0)
    k2 = np.sum(k**2, axis=0)
    vh = np.fft.fftn(raw, axes=(1, 2, 3)) * keep
    kdotv = np.sum(k * vh, axis=0) / np.where(k2 > 0, k2, 1.0)
    vh = vh - k * kdotv
    vh[:, 0, 0, 0] = 0.0
    v = np.fft.ifftn(vh, axes=(1, 2, 3)).real
    return v / np.sqrt(np.sum(v**2, axis=0)).max()


def norm_fields(seed: int, n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """A vortex ring with a seeded centre and radius, and a seeded random field."""
    rng = np.random.default_rng(data_seeds(seed)[0])
    x = np.arange(n) * (L / n)
    x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
    c = L / 2 + rng.uniform(-0.3, 0.3, size=3)
    radius, core = rng.uniform(0.6, 0.9), 0.45
    rho = np.maximum(np.hypot(x1 - c[0], x2 - c[1]), 1e-12)
    mag = np.exp(-((rho - radius) ** 2 + (x3 - c[2]) ** 2) / (2.0 * core**2))
    ring = np.stack([-mag * (x2 - c[1]) / rho, mag * (x1 - c[0]) / rho, np.zeros_like(mag)])

    kint = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.sqrt(kint[:, None, None] ** 2 + kint[None, :, None] ** 2 + kint[None, None, :] ** 2)
    envelope = np.where((kmag > 0) & (kmag <= 12), np.maximum(kmag, 1.0) ** -2.0, 0.0)
    white = rng.standard_normal((3, n, n, n))
    random = np.fft.ifftn(envelope * np.fft.fftn(white, axes=(1, 2, 3)), axes=(1, 2, 3)).real
    return _solenoidal(ring), _solenoidal(random)


def picard_fine_mesh(work: Path, seed: int) -> list[Op]:
    cfg = _config(32, 0.5, 9, _coupled(0.05, data_seeds(seed)), oracle={"enabled": False})
    return [_simulate_op(work / "fine", "fine_mesh", cfg, 0, _trajectory_check(0.05, True))]


def oracle_heun(work: Path, seed: int) -> list[Op]:
    cfg = _config(32, 0.1, 5, _coupled(0.05, data_seeds(seed)), oracle={"enabled": True, "dt": None})
    return [_simulate_op(work / "heun", "heun", cfg, 0, _trajectory_check(0.05, True, oracle=True))]


def verify_all(work: Path, seed: int) -> list[Op]:
    work.mkdir(parents=True, exist_ok=True)
    ops = [Op("verify_all", work, ["verify", "all"], 0, _verify_check)]
    exponents = ",".join(f"{p!r}:{lam!r}" for p, lam in NORM_EXPONENTS)
    paths = []
    for label, values in zip(("ring", "random"), norm_fields(seed)):
        path = work / f"{label}.mhf"
        checks.write_mhf(path, values, L)
        paths.append(path)
        args = ["norms", str(path), "--exponents", exponents, "--stride", "1", "--radii-per-octave", "4"]
        ops.append(Op(f"norms_{label}", work, args, 0, _norms_check(path)))
    ops[-1].microbench = ["--fields", str(paths[0]), str(paths[1])]
    return ops


def picard_no_contract(work: Path, seed: int) -> list[Op]:
    # At amplitude 7 every seed tried contracts with ratios 0.56-0.86, so no
    # seed converges to 1e-14 within MAX_SWEEPS sweeps and none diverges;
    # amplitude 10 diverges on some seeds.
    tolerances = {"picard_tol": 1e-14, "max_sweeps": MAX_SWEEPS}
    slow = _config(16, 1.0, 9, _coupled(7.0, data_seeds(seed), cutoff=4), tolerances=tolerances)
    wild = _config(16, 1.0, 9, _coupled(30.0, DIVERGING_SEEDS, cutoff=4), tolerances=tolerances)
    return [
        _simulate_op(work / "slow", "amplitude_7", slow, 2, _trajectory_check(7.0, False, MAX_SWEEPS)),
        _simulate_op(work / "wild", "amplitude_30", wild, 2, _diverging_check, DIVERGENCE_FAULT),
    ]


WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "picard_fine_mesh": picard_fine_mesh,
    "oracle_heun": oracle_heun,
    "verify_all": verify_all,
    "picard_no_contract": picard_no_contract,
}
