"""Command-line front end.

Subcommands:

- ``simulate --config cfg.json [--seed N]``: run the fixed-point construction,
  write a manifest, CSV time series, and MHF1 snapshots.  Exit 0 on
  convergence; 2 when the sweep budget runs out, when the sweep deltas grow
  (or stay level) in two consecutive sweeps, or when the iterates overflow,
  with the manifest's ``stop`` and a line on standard error naming which; 1
  on error.  ``--seed N`` seeds the vorticity with N and the current with
  N + 1.
- ``verify {props,identities,recursions,regions,all}``: run a property suite,
  print the JSON verdict; nonzero exit naming the failing checks.
- ``region p q [p0 q0 [q0_tilde q1]] | --csv file``: membership booleans and
  witnesses as JSON.
- ``norms field.mhf --exponents p:lam[,p:lam...]``: norm table as CSV.

The ``MHDLAB_THREADS`` environment variable sets how many threads compute the
per-node work of a sweep and of the seminorms, whose per-node norms
``series.csv`` reuses (default: the CPUs the process may use); every output is
the same for any value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from pathlib import Path

from .field_io import read_field, write_field
from .fields import lp_norm, make_grid
from .initial_data import box_study, generate_initial_data, initial_size_report
from .mild import (
    DivergenceError,
    TimeMesh,
    oracle_step,
    reference_timestepper,
    run_picard,
    trace_distance,
)
from .morrey import BallSampling, MorreyParams, WeightedSeminorms, morrey_norm_detail, weighted_seminorms
from .theory import ConstantsLedger, RegionQuery, e2_witness_search, region_a1, region_a2, region_e1
from .verify import run_suite

_DEF_TOL = 1e-8
_DEF_SWEEPS = 50


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _mesh_from_config(cfg: dict) -> TimeMesh:
    horizon = float(cfg.get("horizon", 1.0))
    num = int(cfg.get("num_nodes", 17))
    spacing = cfg.get("spacing", "uniform")
    quad = int(cfg.get("quad_order", 4))
    if horizon <= 0:
        raise ValueError("mesh horizon must be positive")
    if spacing == "uniform":
        return TimeMesh.uniform(horizon, num, quad)
    if spacing == "graded":
        return TimeMesh.graded(horizon, num, float(cfg.get("ratio", 1.5)), quad)
    raise ValueError(f"unknown mesh spacing {spacing!r}")


def _apply_seed(data_spec: dict, seed: int) -> dict:
    """Flat specs take ``seed``; coupled specs give omega ``seed`` and j ``seed + 1``.

    Distinct seeds keep coupled data from collapsing to omega = j, where both
    nonlinear terms cancel identically.
    """
    out = dict(data_spec)
    if "family" in out:
        out["seed"] = seed
        return out
    for offset, key in enumerate(("omega", "j")):
        if out.get(key):
            out[key] = {**out[key], "seed": seed + offset}
    return out


def _float_cell(x: float) -> str:
    return repr(float(x))


def _series_csv(nodes, omega, current, sem: WeightedSeminorms, p: float, q: float) -> str:
    """Per-node table of a trace, with the Morrey norms that its (p, q) seminorms ``sem`` hold."""
    e0 = 1.0 - (3.0 - q) / (2.0 * p)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "omega_l2", "j_l2", "omega_mpq", "j_mpq", "weighted_omega", "weighted_j"])
    for t, w, j, mw, mj in zip(nodes, omega, current, sem.omega_norms, sem.current_norms):
        wt = 0.0 if t == 0.0 else t**e0
        writer.writerow(
            [_float_cell(v) for v in (t, lp_norm(w, 2), lp_norm(j, 2), mw, mj, wt * mw, wt * mj)]
        )
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    grid_cfg = cfg.get("grid", {})
    grid = make_grid(int(grid_cfg.get("n", 32)), float(grid_cfg.get("l", 2 * math.pi)))
    mesh = _mesh_from_config(cfg.get("mesh", {}))
    data_spec = cfg.get("data", {"family": "single_mode"})
    if args.seed is not None:
        data_spec = _apply_seed(data_spec, args.seed)

    exps = cfg.get("exponents", {})
    p = float(exps.get("p", 1.5))
    q = float(exps.get("q", 1.0))
    p0 = float(exps.get("p0", 1.0))
    q0 = float(exps.get("q0", 1.0))
    if not region_e1(p, q, p0, q0):
        raise ValueError(f"exponents (p, q, p0, q0) = ({p}, {q}, {p0}, {q0}) fail the region check")

    tols = cfg.get("tolerances", {})
    tol = float(tols.get("picard_tol", _DEF_TOL))
    max_sweeps = int(tols.get("max_sweeps", _DEF_SWEEPS))
    samp_cfg = cfg.get("sampling", {})
    sampling = BallSampling(
        stride=int(samp_cfg.get("stride", 2)),
        radii_per_octave=int(samp_cfg.get("radii_per_octave", 1)),
    )

    ledger = ConstantsLedger()
    for name, value in cfg.get("constants", {}).items():
        ledger.set(name, float(value), "user")

    oracle_cfg = cfg.get("oracle", {})
    dt = oracle_step(grid, oracle_cfg.get("dt")) if oracle_cfg.get("enabled") else None

    out_dir = Path(cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    w0, j0 = generate_initial_data(data_spec, grid)
    sizes = initial_size_report(w0, j0, sampling, p0=p0, q0=q0)
    box_report = None
    if cfg.get("box_study"):
        box_report = box_study(data_spec, grid, cfg["box_study"].get("factors", [2]), sampling)

    trace, report = run_picard(w0, j0, mesh, tol=tol, max_sweeps=max_sweeps, p=p, q=q, sampling=sampling)

    oracle = None if dt is None else reference_timestepper(w0, j0, mesh, dt=dt)
    oracle_distance = None if oracle is None else trace_distance(oracle, trace)

    # the last seminorms belong to the returned trace; none if the first sweep diverged
    sem = next((s.seminorms for s in reversed(report.sweeps) if s.seminorms), None)
    sem = sem or weighted_seminorms(trace, p, q, sampling)
    omega, current = trace.omega, trace.current
    series = _series_csv(mesh.nodes, omega, current, sem, p, q)
    (out_dir / "series.csv").write_text(series, encoding="utf-8")
    for m, (w, j) in enumerate(zip(omega, current)):
        write_field(out_dir / f"omega_{m:04d}.mhf", w)
        write_field(out_dir / f"current_{m:04d}.mhf", j)

    manifest = {
        "config": {
            "grid": {"n": grid.n, "l": grid.l},
            "mesh": {"nodes": list(mesh.nodes), "quad_order": mesh.quad_order},
            "data": data_spec,
            "exponents": {"p": p, "q": q, "p0": p0, "q0": q0},
            "tolerances": {"picard_tol": tol, "max_sweeps": max_sweeps},
            "sampling": {"stride": sampling.stride, "radii_per_octave": sampling.radii_per_octave},
        },
        "constants": ledger.as_dict(),
        "initial_norms": sizes,
        "converged": report.converged,
        "stop": report.stop,
        "sweep_count": report.sweep_count,
        "sweeps": [
            {
                "index": s.index,
                "delta": s.delta,
                "ratio": s.ratio,
                "error_bound": s.error_bound,
                "seminorms": s.seminorms.as_dict() if s.seminorms else None,
            }
            for s in report.sweeps
        ],
        "oracle_distance": oracle_distance,
        "box_study": box_report,
        "timestamp": time.time(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not report.converged:
        print(f"{report.reason}; outputs in {out_dir}", file=sys.stderr)
        return 2
    print(f"{report.reason}; outputs in {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    print(json.dumps(report, indent=1, sort_keys=True))
    if report["passed"]:
        return 0
    failing = []
    for block in report.get("suites", [report]):
        failing += [c["name"] for c in block.get("checks", []) if not c["passed"]]
    print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
    return 1


def _region_entry(values: list[float]) -> dict:
    entry: dict = {"input": values}
    if len(values) >= 2:
        entry["a1"] = region_a1(values[0], values[1])
        entry["a2"] = region_a2(values[0], values[1])
    if len(values) >= 4:
        entry["e1"] = region_e1(*values[:4])
    if len(values) == 6:
        if entry["e1"] and 0 <= values[5] - values[4] < 1:
            w = e2_witness_search(RegionQuery(*values))
            entry["witness"] = (
                {"q2": w.q2, "q3": w.q3, "p_tilde": w.p_tilde, "theta": w.theta} if w else None
            )
        else:
            entry["witness"] = None
    elif len(values) not in (2, 4):
        raise ValueError(f"expected 2, 4 or 6 exponents per query, got {len(values)}")
    return entry


def _cmd_region(args) -> int:
    queries: list[list[float]] = []
    if args.csv:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row and not row[0].lstrip().startswith("#"):
                    queries.append([float(v) for v in row])
    if args.values:
        queries.append([float(v) for v in args.values])
    if not queries:
        raise ValueError("no region queries given (pass exponents or --csv)")
    print(json.dumps({"queries": [_region_entry(q) for q in queries]}, indent=1, sort_keys=True))
    return 0


def _parse_exponents(text: str) -> list[MorreyParams]:
    out = []
    for part in text.split(","):
        p_str, _, lam_str = part.partition(":")
        if not lam_str:
            raise ValueError(f"bad exponent {part!r}; expected p:lambda")
        p, lam = float(p_str), float(lam_str)
        if not 0 <= lam < 3:
            raise ValueError("lambda out of [0,3)")
        out.append(MorreyParams(p, lam))
    return out


def _cmd_norms(args) -> int:
    field = read_field(args.field)
    exponents = _parse_exponents(args.exponents)
    sampling = BallSampling(stride=args.stride, radii_per_octave=args.radii_per_octave)
    writer = csv.writer(sys.stdout)
    writer.writerow(["p", "lambda", "value", "center_x1", "center_x2", "center_x3", "radius"])
    for mp in exponents:
        value, center, radius = morrey_norm_detail(field, mp, sampling)
        writer.writerow([_float_cell(v) for v in (mp.p, mp.lam, value, *center, radius)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="Mild-solution laboratory for 3-D incompressible MHD on a periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the fixed-point construction from a JSON config")
    sim.add_argument("--config", required=True, help="path to the experiment JSON")
    sim.add_argument(
        "--seed", type=int, default=None,
        help="override the data seed (coupled data: omega gets N, j gets N + 1)",
    )

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("suite", choices=["props", "identities", "recursions", "regions", "all"])

    reg = sub.add_parser("region", help="exponent-region membership and witnesses")
    reg.add_argument("values", nargs="*", help="2, 4 or 6 exponents: p q [p0 q0 [q0_tilde q1]]")
    reg.add_argument("--csv", default=None, help="CSV file with one query per row")

    nrm = sub.add_parser("norms", help="norm table of an MHF1 field file")
    nrm.add_argument("field", help="MHF1 field file")
    nrm.add_argument("--exponents", required=True, help="comma list p:lambda[,p:lambda...]")
    nrm.add_argument("--stride", type=int, default=2)
    nrm.add_argument("--radii-per-octave", type=int, default=1, dest="radii_per_octave")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "region": _cmd_region,
        "norms": _cmd_norms,
    }
    try:
        return handlers[args.command](args)
    # run_picard reports diverging sweeps itself; a DivergenceError that gets
    # here comes from data whose heat flow, Heun oracle or final fields overflow
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
