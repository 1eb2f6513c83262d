"""Run-to-run spread of the end-to-end metrics, from interleaved runs of every workload.

Usage::

    python3 perfbench/stability.py [--runs 10] [--seed0 100] [--out set.json] [--compare earlier.json]

Round i runs every workload of ``BENCHMARK.json`` once, at its
``run_seconds`` and with seed ``seed0 + i``, so slow drifts of the machine
touch all workloads alike, and prints each run's metrics and duration.  For
each workload and metric it then prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and the bound from ``BENCHMARK.json``; with ``--compare`` it also
prints how far each median moved against an earlier set written with
``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--out", default=None, help="write the raw results here")
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed0 + i),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(last)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
            tally = f"correct={last['correct']} failed={last['failed']}/{last['attempted']}"
            print(f"run {i} {w}: {tally} {values} ({took:.1f} s)", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results), encoding="utf-8")
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else {}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':20s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
          f"{'bound':>6s} {'shift':>7s}  failed share")
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            shift = ""
            if w in earlier:
                before = statistics.median(r["metrics"][metric]["value"] for r in earlier[w])
                shift = f"{(med - before) / before:+.3f}"
            print(f"{w:20s} {metric:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} {(q3 - q1) / med:7.3f} "
                  f"{bound:6.3f} {shift:>7s}  {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
