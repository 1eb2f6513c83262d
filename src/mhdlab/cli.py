"""Command-line front end.

Subcommands:

- ``simulate --config cfg.json [--seed N]``: run the fixed-point construction,
  write a manifest, CSV time series, and MHF1 snapshots.  Exit 0 on
  convergence; 2 when the sweep budget runs out, when the sweep deltas grow
  (or stay level) in two consecutive sweeps, or when the iterates overflow,
  with the manifest's ``stop`` and a line on standard error naming which; 1
  on error.  The config is read into one :class:`Experiment`, which checks
  every key and value (unknown keys are errors) before any output directory
  or data is made.  The data spec is read by the config's own schema reader
  and resolved once on the configured grid, into the coupled shape that the
  manifest records.  ``--seed N`` seeds the vorticity with N and the current
  with N + 1; data with no seeded family rejects it.  :meth:`Experiment.run`
  computes the run with no I/O; ``simulate`` makes the output directory, runs
  it and writes what it returns.
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
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

from .field_io import read_field, write_field
from .fields import Grid, lp_norm, make_grid
from .initial_data import (
    _OWN_DEFAULT,
    _read_block,
    generate_initial_data,
    initial_size_report,
    read_data_spec,
)
from .mild import (
    DivergenceError,
    IterationReport,
    MhdTrace,
    TimeMesh,
    oracle_step,
    reference_timestepper,
    run_picard,
    trace_distance,
)
from .morrey import BallSampling, MorreyParams, WeightedSeminorms, morrey_norm_detail, weighted_seminorms
from .theory import RegionQuery, e2_witness_search, region_a1, region_a2, region_e1, smallness_threshold
from .verify import run_suite

#: the schema of every block of a simulate config, and of its top level (see ``_read_block``)
_BLOCKS = {
    "grid": {"n": (int, 32), "l": (float, 2 * math.pi)},
    "mesh": {
        "horizon": (float, 1.0),
        "num_nodes": (int, 17),
        "spacing": (str, "uniform"),
        "quad_order": (int, _OWN_DEFAULT),
        "ratio": (float, _OWN_DEFAULT),
    },
    "exponents": {"p": (float, 1.5), "q": (float, 1.0), "p0": (float, 1.0), "q0": (float, 1.0)},
    "tolerances": {"picard_tol": (float, 1e-8), "max_sweeps": (int, 50)},
    "sampling": {"stride": (int, _OWN_DEFAULT), "radii_per_octave": (int, _OWN_DEFAULT)},
    "oracle": {"enabled": (bool, False), "dt": (float, None)},
}
_CONFIG = {
    **{name: (dict, None) for name in _BLOCKS},
    "data": (dict, {"family": "single_mode"}),
    "output_dir": (str, "out"),
}


@dataclass(frozen=True)
class Experiment:
    """One ``simulate`` run, read from its JSON config and checked in full before any work.

    ``data`` is the data spec as :func:`read_data_spec` resolves it on
    ``grid``; ``exponents`` holds p, q, p0, q0 and ``tolerances`` picard_tol and
    max_sweeps; ``oracle_dt`` is None when the oracle is off.  :meth:`run`
    computes the run in this process.
    """

    grid: Grid
    mesh: TimeMesh
    data: dict
    exponents: dict
    tolerances: dict
    sampling: BallSampling
    oracle_dt: float | None
    output_dir: Path

    @classmethod
    def from_config(cls, cfg, seed: int | None = None) -> "Experiment":
        """Parse, default and check a config; ``seed`` reseeds the data as :func:`read_data_spec` does."""
        if not isinstance(cfg, dict):
            raise ValueError(f"config must be a JSON object, got {type(cfg).__name__}")
        top = _read_block("", cfg, _CONFIG)
        block = {name: _read_block(f"{name}.", top[name] or {}, keys) for name, keys in _BLOCKS.items()}

        grid = make_grid(**block["grid"])
        mesh_cfg = block["mesh"]
        spacing = mesh_cfg.pop("spacing")
        if spacing not in ("uniform", "graded"):
            raise ValueError(f"unknown mesh spacing {spacing!r}")
        if spacing == "uniform" and "ratio" in mesh_cfg:
            raise ValueError("mesh.ratio applies only to graded spacing")
        if mesh_cfg["horizon"] <= 0:
            raise ValueError("mesh horizon must be positive")
        mesh = getattr(TimeMesh, spacing)(**mesh_cfg)

        exps = block["exponents"]
        if not region_e1(**exps):
            values = ", ".join(str(v) for v in exps.values())
            raise ValueError(f"exponents (p, q, p0, q0) = ({values}) fail the region check")
        tols = block["tolerances"]
        if tols["picard_tol"] <= 0:
            raise ValueError(f"picard_tol must be positive, got {tols['picard_tol']}")
        if tols["max_sweeps"] < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {tols['max_sweeps']}")
        oracle = block["oracle"]
        if not oracle["enabled"] and oracle["dt"] is not None:
            raise ValueError("oracle.dt applies only to an enabled oracle")

        data = read_data_spec(top["data"], grid, seed)
        return cls(
            grid=grid,
            mesh=mesh,
            data=data,
            exponents=exps,
            tolerances=tols,
            sampling=BallSampling(**block["sampling"]),
            oracle_dt=oracle_step(grid, oracle["dt"]) if oracle["enabled"] else None,
            output_dir=Path(top["output_dir"]),
        )

    def manifest_config(self) -> dict:
        """The manifest's ``config`` block: the grid, the mesh nodes, the data and the numerical settings."""
        names = ("grid", "mesh", "data", "exponents", "tolerances", "sampling", "oracle_dt")
        recorded = {name: getattr(self, name) for name in names}
        return {name: asdict(value) if is_dataclass(value) else value for name, value in recorded.items()}

    def run(self) -> "Run":
        """Generate the data, size it, iterate to the fixed point and run the oracle if it is on; no I/O."""
        p, q = self.exponents["p"], self.exponents["q"]
        w0, j0 = generate_initial_data(self.data, self.grid)
        sizes = initial_size_report(w0, j0, self.sampling, p0=self.exponents["p0"], q0=self.exponents["q0"])
        trace, report = run_picard(
            w0, j0, self.mesh, tol=self.tolerances["picard_tol"], max_sweeps=self.tolerances["max_sweeps"],
            p=p, q=q, sampling=self.sampling,
        )
        oracle_distance = None
        if self.oracle_dt is not None:
            oracle_distance = trace_distance(reference_timestepper(w0, j0, self.mesh, dt=self.oracle_dt), trace)
        # the last seminorms belong to the returned trace; none if the first sweep diverged
        sem = next((s.seminorms for s in reversed(report.sweeps) if s.seminorms), None)
        return Run(sizes, trace, report, sem or weighted_seminorms(trace, p, q, self.sampling), oracle_distance)


@dataclass(frozen=True)
class Run:
    """What :meth:`Experiment.run` computes; ``seminorms`` are ``trace``'s, ``oracle_distance`` None if no oracle."""

    sizes: dict[str, float]
    trace: MhdTrace
    report: IterationReport
    seminorms: WeightedSeminorms
    oracle_distance: float | None


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


def _write_run(exp: Experiment, run: Run) -> None:
    """Write series.csv, the snapshots and manifest.json to ``exp.output_dir``, one node's fields at a time.

    A first pass forms every node's vorticity and current, which raises
    :class:`DivergenceError` before any file is written if one is not finite,
    and builds the series from them; a second forms them again to write the
    snapshots.  Neither holds more than one node's physical fields.
    """
    out_dir = exp.output_dir
    trace, nodes = run.trace, range(len(exp.mesh.nodes))
    omega = (trace.node_field("omega", m) for m in nodes)
    current = (trace.node_field("current", m) for m in nodes)
    series = _series_csv(exp.mesh.nodes, omega, current, run.seminorms, exp.exponents["p"], exp.exponents["q"])
    (out_dir / "series.csv").write_text(series, encoding="utf-8")
    for m in nodes:
        write_field(out_dir / f"omega_{m:04d}.mhf", trace.node_field("omega", m))
        write_field(out_dir / f"current_{m:04d}.mhf", trace.node_field("current", m))

    report = run.report
    p, q = exp.exponents["p"], exp.exponents["q"]
    manifest = {
        "config": exp.manifest_config(),
        "initial_norms": run.sizes,
        "smallness_threshold": smallness_threshold(p, q) if region_a1(p, q) else None,
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
        "oracle_distance": run.oracle_distance,
        "timestamp": time.time(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_simulate(args) -> int:
    exp = Experiment.from_config(json.loads(Path(args.config).read_text(encoding="utf-8")), args.seed)
    exp.output_dir.mkdir(parents=True, exist_ok=True)
    run = exp.run()
    _write_run(exp, run)
    report = run.report
    if not report.converged:
        print(f"{report.reason}; outputs in {exp.output_dir}", file=sys.stderr)
        return 2
    print(f"{report.reason}; outputs in {exp.output_dir}")
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
        out.append(MorreyParams(float(p_str), float(lam_str)))
    return out


def _cmd_norms(args) -> int:
    exponents = _parse_exponents(args.exponents)
    sampling = BallSampling(stride=args.stride, radii_per_octave=args.radii_per_octave)
    field = read_field(args.field)
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
    nrm.add_argument("--stride", type=int, default=BallSampling.stride)
    nrm.add_argument(
        "--radii-per-octave", type=int, default=BallSampling.radii_per_octave, dest="radii_per_octave"
    )
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
