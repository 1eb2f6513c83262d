"""Run one ``mhdlab`` command-line invocation in this process and record its timings.

Usage: ``python3 perfbench/launch.py --timing OUT.json [--probe] [--spans SPANS.json] -- ARGS...``

``ARGS`` go to ``mhdlab.cli.main`` unchanged, exactly as the ``mhdlab``
console script passes them.  The package is imported from ``src`` of the
checkout that holds this file.  The calls into the solver and suite runner
(``run_picard``, ``reference_timestepper``, ``run_suite`` and the norm
estimator ``morrey_norm_detail``) are timed; the instant of the first such
call ends set-up.  ``--probe`` exits right there, to measure set-up alone.
``--spans`` installs the span tracer of ``spans.py``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_CALLS = ("run_picard", "reference_timestepper", "run_suite", "morrey_norm_detail")


def _write(path: str, record: dict) -> None:
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    timing_path = opts[opts.index("--timing") + 1]
    probe = "--probe" in opts
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    sys.path.insert(0, str(ROOT / "src"))
    start = time.monotonic()
    from mhdlab import cli

    record = {"import_s": time.monotonic() - start, "first_call": None, "solve_s": 0.0}
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.monotonic()
            if record["first_call"] is None:
                record["first_call"] = t0
                if probe:
                    _write(timing_path, record)
                    sys.stdout.flush()
                    os._exit(0)
            try:
                return fn(*args, **kwargs)
            finally:
                record["solve_s"] += time.monotonic() - t0

        return call

    for name in ENTRY_CALLS:
        setattr(cli, name, timed(getattr(cli, name)))
    rc = cli.main(cli_args)
    _write(timing_path, record)
    if tracer is not None:
        tracer.write(spans_path, {"import_s": record["import_s"]})
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
