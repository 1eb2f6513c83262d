"""Output checks computed apart from mhdlab, with numpy and the standard library only.

Each ``check_*`` function returns a list of problem strings; an empty list
means the output passed.  The readers here parse the MHF1 field format,
``series.csv`` and ``manifest.json`` themselves, so a fault in mhdlab's own
reader or writer cannot hide a fault in its numbers.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"MHF1FIELD\x00\x00\x00"
_HEADER = struct.Struct("<12sIIdI")  # magic, version, n, l, component count

#: max |div f| allowed, relative to (largest wavenumber) * max |f|
DIV_TOL = 1e-9
#: relative mismatch allowed between the series.csv L2 columns and the snapshots
L2_TOL = 1e-12
#: energy may not rise between nodes by more than this share (round-off only)
ENERGY_RISE_TOL = 1e-12
#: |E(T) - E(0) + int_0^T (|w|^2 + |j|^2) dt| over the dissipated energy.  The
#: dissipation integral is taken by the trapezoid rule on the mesh, whose error
#: is O(h^2); at h = 1/16 the benchmark's runs close it to 1 % to 2.3 %.
ENERGY_BALANCE_TOL = 0.05
#: relative mismatch allowed between a norms row and the direct ball sum
NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# readers and writers


def write_mhf(path: str | Path, values: np.ndarray, l: float) -> None:
    """Write a (3, n, n, n) or (n, n, n) array indexed [i1, i2, i3] as MHF1."""
    comps = values[None] if values.ndim == 3 else values
    n = comps.shape[-1]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, n, float(l), comps.shape[0]))
        for c in comps:
            fh.write(np.ascontiguousarray(c.transpose(2, 1, 0), dtype="<f8").tobytes())


def read_mhf(path: str | Path) -> tuple[np.ndarray, float]:
    """Read an MHF1 file into a (components, n, n, n) array indexed [c, i1, i2, i3]."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, n, l, ncomp = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC or version != 1 or ncomp not in (1, 3):
        raise ValueError(f"{path}: not an MHF1 version 1 file")
    if len(raw) != _HEADER.size + ncomp * n**3 * 8:
        raise ValueError(f"{path}: payload length does not match the header")
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return flat.reshape(ncomp, n, n, n).transpose(0, 3, 2, 1), float(l)


def read_series(path: str | Path) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def read_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_snapshots(out_dir: Path, count: int) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    omega, current = [], []
    l = 0.0
    for m in range(count):
        w, l = read_mhf(out_dir / f"omega_{m:04d}.mhf")
        j, _ = read_mhf(out_dir / f"current_{m:04d}.mhf")
        omega.append(w)
        current.append(j)
    return omega, current, l


# ---------------------------------------------------------------------------
# spectral helpers (full complex FFT, wavevectors 2*pi/l times integers)


def _wavevectors(n: int, l: float) -> np.ndarray:
    k1 = 2.0 * math.pi / l * np.fft.fftfreq(n, d=1.0 / n)
    return np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))


def divergence(v: np.ndarray, l: float) -> np.ndarray:
    k = _wavevectors(v.shape[-1], l)
    vh = np.fft.fftn(v, axes=(1, 2, 3))
    return np.fft.ifftn(1j * np.sum(k * vh, axis=0)).real


def inverse_curl(w: np.ndarray, l: float) -> np.ndarray:
    """The mean-free solenoidal u with curl u = w: u_hat = i k x w_hat / |k|^2."""
    k = _wavevectors(w.shape[-1], l)
    k2 = np.sum(k**2, axis=0)
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
    wh = np.fft.fftn(w, axes=(1, 2, 3)) * inv_k2
    uh = 1j * np.cross(k, wh, axis=0)
    return np.fft.ifftn(uh, axes=(1, 2, 3)).real


def l2_norm(v: np.ndarray, l: float) -> float:
    h3 = (l / v.shape[-1]) ** 3
    return float(math.sqrt(np.sum(v**2) * h3))


def lp_of_magnitude(v: np.ndarray, l: float, p: float) -> float:
    h3 = (l / v.shape[-1]) ** 3
    mag = np.sqrt(np.sum(v**2, axis=0))
    return float((np.sum(mag**p) * h3) ** (1.0 / p))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# checks


def check_divergence_free(fields: list[np.ndarray], l: float, label: str) -> list[str]:
    problems = []
    for m, f in enumerate(fields):
        n = f.shape[-1]
        scale = (2.0 * math.pi / l) * (n / 2) * max(float(np.abs(f).max()), np.finfo(float).tiny)
        div = float(np.abs(divergence(f, l)).max())
        if not div <= DIV_TOL * scale:
            problems.append(f"{label}[{m}] is not divergence-free: max|div| = {div:.3e}")
    return problems


def energy_balance(
    omega: list[np.ndarray], current: list[np.ndarray], nodes: list[float], l: float
) -> tuple[list[float], float]:
    """Energies 1/2(|u|^2 + |b|^2) per node and the relative balance defect."""
    energy, dissipation = [], []
    for w, j in zip(omega, current):
        u, b = inverse_curl(w, l), inverse_curl(j, l)
        energy.append(0.5 * (l2_norm(u, l) ** 2 + l2_norm(b, l) ** 2))
        dissipation.append(l2_norm(w, l) ** 2 + l2_norm(j, l) ** 2)
    dissipated = float(np.trapezoid(dissipation, nodes))
    defect = abs(energy[-1] - energy[0] + dissipated) / max(dissipated, np.finfo(float).tiny)
    return energy, defect


def check_energy(
    omega: list[np.ndarray], current: list[np.ndarray], nodes: list[float], l: float
) -> list[str]:
    energy, defect = energy_balance(omega, current, nodes, l)
    problems = [
        f"energy rises from node {m} to {m + 1}: {a!r} -> {b!r}"
        for m, (a, b) in enumerate(zip(energy, energy[1:]))
        if not b <= a * (1.0 + ENERGY_RISE_TOL)
    ]
    if not defect <= ENERGY_BALANCE_TOL:
        problems.append(
            f"energy balance defect {defect:.3e} exceeds {ENERGY_BALANCE_TOL} of the dissipation"
        )
    return problems


def check_series(
    series: dict[str, list[float]],
    omega: list[np.ndarray],
    current: list[np.ndarray],
    nodes: list[float],
    l: float,
) -> list[str]:
    if len(series.get("t", [])) != len(nodes):
        return [f"series.csv has {len(series.get('t', []))} rows for {len(nodes)} nodes"]
    problems = []
    for m, t in enumerate(nodes):
        if series["t"][m] != t:
            problems.append(f"series.csv row {m}: t = {series['t'][m]!r}, mesh node {t!r}")
        for col, f in (("omega_l2", omega[m]), ("j_l2", current[m])):
            direct = l2_norm(f, l)
            if not _rel(series[col][m], direct) <= L2_TOL:
                problems.append(f"series.csv row {m}: {col} = {series[col][m]!r}, snapshot {direct!r}")
    return problems


def ball_value(f: np.ndarray, l: float, p: float, lam: float, center: tuple, radius: float) -> float:
    """Direct scaled ball mass ``r**(-lam/p) * (sum over the ball of h^3 |f|^p)**(1/p)``.

    The ball holds the cell centres whose torus distance to ``center`` (a grid
    point) is below ``radius``.
    """
    n = f.shape[-1]
    h = l / n
    mag_p = np.sum(f**2, axis=0) ** (p / 2.0) * h**3
    idx = [int(round(c / h)) % n for c in center]
    off = [np.minimum((np.arange(n) - i) % n, (i - np.arange(n)) % n) for i in idx]
    s2 = off[0][:, None, None] ** 2 + off[1][None, :, None] ** 2 + off[2][None, None, :] ** 2
    mass = float(np.sum(mag_p[s2 < (radius / h) ** 2]))
    return radius ** (-lam / p) * mass ** (1.0 / p)


def check_norm_rows(rows: list[dict[str, float]], f: np.ndarray, l: float, exponents) -> list[str]:
    if [(r["p"], r["lambda"]) for r in rows] != [tuple(e) for e in exponents]:
        return [f"norms rows {[(r['p'], r['lambda']) for r in rows]} do not match {exponents}"]
    problems = []
    for r in rows:
        p, lam, value, radius = r["p"], r["lambda"], r["value"], r["radius"]
        center = (r["center_x1"], r["center_x2"], r["center_x3"])
        if radius == math.inf:
            direct = lp_of_magnitude(f, l, p) if lam == 0.0 else math.nan
        else:
            direct = ball_value(f, l, p, lam, center, radius)
        if not _rel(value, direct) <= NORM_TOL:
            problems.append(f"norms row p={p} lambda={lam}: {value!r}, direct ball sum {direct!r}")
        if lam == 0.0 and not _rel(value, lp_of_magnitude(f, l, p)) <= NORM_TOL:
            problems.append(f"norms row p={p} lambda=0: {value!r} is not the global L^p norm")
    return problems


def parse_norm_rows(text: str) -> list[dict[str, float]]:
    rows = list(csv.reader(text.splitlines()))
    return [{k: float(v) for k, v in zip(rows[0], r)} for r in rows[1:]]


def check_manifest(manifest: dict, converged: bool, sweep_count: int | None = None) -> list[str]:
    problems = []
    if manifest.get("converged") is not converged:
        problems.append(f"manifest converged = {manifest.get('converged')}, expected {converged}")
    deltas = [s["delta"] for s in manifest.get("sweeps", [])]
    if sweep_count is not None and len(deltas) != sweep_count:
        problems.append(f"manifest has {len(deltas)} sweeps, expected {sweep_count}")
    if not deltas or not all(math.isfinite(d) for d in deltas):
        problems.append(f"sweep deltas are missing or not finite: {deltas[-3:]}")
    elif converged and not deltas[-1] <= manifest["config"]["tolerances"]["picard_tol"]:
        problems.append(f"converged with last delta {deltas[-1]!r} above the tolerance")
    return problems


def check_oracle_distance(manifest: dict, bound: float) -> list[str]:
    d = manifest.get("oracle_distance")
    if d is None or not math.isfinite(d) or not 0.0 <= d <= bound:
        return [f"oracle_distance {d!r} is not finite and below {bound}"]
    return []


def check_amplitude(field: np.ndarray, amplitude: float, label: str) -> list[str]:
    """Generated data is scaled so that its largest pointwise magnitude is the amplitude."""
    peak = float(np.sqrt(np.sum(field**2, axis=0)).max())
    if not _rel(peak, amplitude) <= 1e-12:
        return [f"{label}: max magnitude {peak!r}, configured amplitude {amplitude!r}"]
    return []


def check_verify_report(report: dict) -> list[str]:
    problems = []
    for block in report.get("suites", []):
        problems += [
            f"verify {block['suite']}.{c['name']}: {c['measured']} against {c['bound']}"
            for c in block.get("checks", [])
            if not c["passed"]
        ]
    if not report.get("passed") or not report.get("suites"):
        problems.append("verify all did not pass")
    return problems
