"""mhdlab benchmark: run one workload for a while, check its outputs, print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation of the workload is a fresh
process (``launch.py``).  A run first makes ``SETUP_PROBES`` set-up-only
rounds (which also warm the file cache), then whole rounds of the operations
while one more round, as long as the rounds so far on average, still ends
within ``S`` seconds of the start (at least one round).  Every round runs the same
operations, so the share of failed operations is the same in every run.  Each
output is checked against independent computations (``checks.py``).

``--trace 0`` prints the end-to-end metrics, medians over the rounds of the
per-round sums over operations; ``setup_s`` is the median over the rounds and
the set-up-only rounds.  ``--trace 1`` runs the untraced
rounds, then one more round with the span tracer on, then ``microbench.py`` on
that round's fields, and prints the per-layer metrics together with the
tracing overhead (traced minus untraced ``wall_s``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 3
#: environment variables that would move the program off its defaults
CLEARED_ENV = ("MHDLAB_THREADS", "MALLOC_ARENA_MAX", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")

#: per-layer metric -> (span names summed, span field); the other per-layer
#: metrics are computed in ``per_layer``.  Names and units are in BENCHMARK.json.
SPAN_METRICS = {
    "kernels.biot_savart_calls": (["kernels.biot_savart"], "calls"),
    "kernels.biot_savart_s": (["kernels.biot_savart"], "total_s"),
    "kernels.heat_propagate_calls": (["kernels.heat_propagate"], "calls"),
    "kernels.heat_propagate_s": (["kernels.heat_propagate"], "total_s"),
    "kernels.gaussian_bump_calls": (["kernels.gaussian_bump"], "calls"),
    "kernels.gaussian_bump_s": (["kernels.gaussian_bump"], "total_s"),
    "mild.picard_sweep_s": (["mild.picard_sweep"], "total_s"),
    "mild.picard_sweep_self_s": (["mild.picard_sweep"], "self_s"),
    "mild.heat_flow_trace_s": (["mild.heat_flow_trace"], "total_s"),
    "mild.trace_distance_s": (["mild.trace_distance"], "total_s"),
    "mild.reference_timestepper_s": (["mild.reference_timestepper"], "total_s"),
    "mild.sweeps": (["mild.picard_sweep"], "calls"),
    "morrey.morrey_norm_calls": (["morrey.morrey_norm", "morrey.morrey_norm_detail"], "calls"),
    "morrey.morrey_norm_s": (["morrey.morrey_norm", "morrey.morrey_norm_detail"], "total_s"),
    "morrey.weighted_seminorms_s": (["morrey.weighted_seminorms"], "total_s"),
    "initial_data.generate_s": (["initial_data.generate_initial_data"], "total_s"),
    "initial_data.size_report_s": (["initial_data.initial_size_report"], "total_s"),
    "field_io.write_calls": (["field_io.write_field"], "calls"),
    "field_io.write_s": (["field_io.write_field"], "total_s"),
    "field_io.read_s": (["field_io.read_field"], "total_s"),
    "verify.suite_props_s": (["verify.suite_props"], "total_s"),
    "verify.suite_identities_s": (["verify.suite_identities"], "total_s"),
    "verify.suite_recursions_s": (["verify.suite_recursions"], "total_s"),
    "verify.suite_regions_s": (["verify.suite_regions"], "total_s"),
    "theory.vector_identity_check_s": (["theory.vector_identity_check"], "total_s"),
}
FFT_SPANS = ["scipy.fft.fftn", "scipy.fft.ifftn", "scipy.fft.rfftn", "scipy.fft.irfftn"]


def run_op(op, mode: list[str]) -> dict:
    """Start one fresh process for ``op`` and wait for it; ``mode`` goes to ``launch.py``."""
    shutil.rmtree(op.cwd / "out", ignore_errors=True)
    timing = op.cwd / f"{op.name}.timing.json"
    timing.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    cmd = [sys.executable, str(HERE / "launch.py"), "--timing", str(timing), *mode, "--", *op.args]
    stem = op.cwd / op.name
    with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=op.cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(timing.read_text(encoding="utf-8")) if timing.exists() else {}
    first = record.get("first_call")
    return {
        "exit": proc.returncode,
        "wall_s": end - start,
        "setup_s": (first if first is not None else end) - start,
        "solve_s": record.get("solve_s", 0.0),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minflt": usage.ru_minflt,
    }


def run_round(ops, mode: list[str], tally: dict) -> list[dict]:
    """Run every operation once, check what it wrote, and print one line per operation."""
    results = []
    for op in ops:
        res = run_op(op, mode)
        tally["attempted"] += 1
        stdout = (op.cwd / f"{op.name}.stdout").read_text(encoding="utf-8", errors="replace")
        stderr = (op.cwd / f"{op.name}.stderr").read_text(encoding="utf-8", errors="replace").strip()
        line = (
            f"{op.name}: exit {res['exit']} wall {res['wall_s']:.3f} s setup {res['setup_s']:.3f} s "
            f"solve {res['solve_s']:.3f} s rss {res['peak_rss_mb']:.0f} MB"
        )
        if res["exit"] != op.expect_exit:
            tally["failed"] += 1
            last = stderr.splitlines()[-1] if stderr else ""
            print(f"FAILED {line}; expected exit {op.expect_exit} ({last}); {op.fault or 'unexpected'}")
        else:
            try:
                problems = op.check(op.cwd, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output missing or unreadable: {exc!r}"]
            if problems:
                tally["correct"] = False
                print(f"WRONG {line}: " + "; ".join(problems[:5]))
            else:
                print(f"ok {line}")
        results.append(res)
    return results


def sums(results: list[dict]) -> dict:
    keys = ("wall_s", "setup_s", "solve_s", "user_s", "sys_s", "minflt")
    out = {k: sum(r[k] for r in results) for k in keys}
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    return out


def end_to_end(rounds: list[dict], probes: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median([r["setup_s"] for r in rounds] + [p["setup_s"] for p in probes]),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(ops, traced: dict, untraced: dict, span_files: list[Path], trace_dir: Path) -> dict:
    summaries = [json.loads(p.read_text(encoding="utf-8")) for p in span_files]

    def total(names, field):
        return sum(s["summary"].get(n, {}).get(field, 0) for s in summaries for n in names)

    values = {name: total(names, field) for name, (names, field) in SPAN_METRICS.items()}
    values.update({
        "fields.fft_calls": total(FFT_SPANS, "calls"),
        "fields.fft_s": total(FFT_SPANS, "total_s"),
        "fields.fft_points": sum(s["fft_points"] for s in summaries),
        "mild.heun_substeps": sum(s["heun_evaluations"] for s in summaries) // 2,
        "cli.import_s": sum(s["import_s"] for s in summaries),
        "field_io.write_bytes": sum(f.stat().st_size for op in ops for f in (op.cwd / "out").glob("*.mhf")),
        "process.user_s": untraced["user_s"],
        "process.sys_s": untraced["sys_s"],
        "process.minflt": untraced["minflt"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })

    bench_op = next(op for op in ops if op.microbench)
    proc = subprocess.run(
        [sys.executable, str(HERE / "microbench.py"), *bench_op.microbench],
        cwd=bench_op.cwd, capture_output=True, text=True, check=True,
    )
    values.update(json.loads(proc.stdout))

    merged: dict[str, dict] = {}
    for s in summaries:
        for name, e in s["summary"].items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += e[key]
    with open(trace_dir / "summary.txt", "w", encoding="utf-8") as fh:
        for name, e in sorted(merged.items(), key=lambda item: -item[1]["self_s"]):
            fh.write(f"{name:40s} {e['calls']:8d} calls {e['total_s']:9.4f} s total {e['self_s']:9.4f} s self\n")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not (ROOT / "src" / "mhdlab" / "cli.py").is_file():
        print(f"error: no mhdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = RUNS / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops = WORKLOADS[args.workload](work, args.seed)
        tally = {"attempted": 0, "failed": 0, "correct": True}
        start = time.monotonic()
        probes = [sums([run_op(op, ["--probe"]) for op in ops]) for _ in range(SETUP_PROBES)]
        rounds = [sums(run_round(ops, [], tally))]
        while time.monotonic() - start + statistics.mean(r["wall_s"] for r in rounds) <= args.seconds:
            rounds.append(sums(run_round(ops, [], tally)))
        if args.trace:
            trace_dir = RUNS / "traces" / f"{args.workload}-s{args.seed}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            span_files = [trace_dir / f"{op.name}.spans.json" for op in ops]
            traced = sums(
                [res for op, path in zip(ops, span_files) for res in run_round([op], ["--spans", str(path)], tally)]
            )
            values = per_layer(ops, traced, rounds[-1], span_files, trace_dir)
            print(f"spans and per-name summary in {trace_dir}")
        else:
            values = end_to_end(rounds, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally["correct"],
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
