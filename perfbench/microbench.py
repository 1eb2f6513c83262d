"""Median call times of mhdlab's public functions on a workload's own fields.

Usage: ``python3 perfbench/microbench.py (--run-dir DIR | --fields W.mhf J.mhf)``

``--run-dir`` takes the snapshots and mesh of a finished ``simulate`` run;
``--fields`` takes two solenoidal field files and a five-node mesh on
[0, 0.25].  Prints one JSON object of ``*_ms`` figures: the median of
``REPEATS`` timed calls after one untimed call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7


def _median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from mhdlab.field_io import read_field
    from mhdlab.fields import to_physical, to_spectral
    from mhdlab.kernels import biot_savart
    from mhdlab.mild import TimeMesh, current_source, duhamel_integral, vorticity_flux

    if argv[0] == "--run-dir":
        run_dir = Path(argv[1])
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        mesh_cfg = manifest["config"]["mesh"]
        mesh = TimeMesh(tuple(mesh_cfg["nodes"]), mesh_cfg["quad_order"])
        omega = [read_field(run_dir / f"omega_{m:04d}.mhf") for m in range(len(mesh.nodes))]
        current = [read_field(run_dir / f"current_{m:04d}.mhf") for m in range(len(mesh.nodes))]
    else:
        mesh = TimeMesh.uniform(0.25, 5)
        omega = [read_field(argv[1])] * len(mesh.nodes)
        current = [read_field(argv[2])] * len(mesh.nodes)
    w, j = omega[-1], current[-1]
    u, b = biot_savart(w), biot_savart(j)
    forcing = [vorticity_flux(biot_savart(a), a, biot_savart(c), c) for a, c in zip(omega, current)]

    def roundtrip():
        for c in w.components:
            to_physical(to_spectral(c))

    figures = {
        "fields.roundtrip_ms": _median_ms(roundtrip),
        "mild.vorticity_flux_ms": _median_ms(lambda: vorticity_flux(u, w, b, j)),
        "mild.current_source_ms": _median_ms(lambda: current_source(u, b)),
        "mild.duhamel_integral_ms": _median_ms(lambda: duhamel_integral(forcing, mesh, mesh.horizon)),
    }
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
