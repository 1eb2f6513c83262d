"""In-memory span tracer for one mhdlab process.

``Tracer.install`` wraps every public function of the mhdlab modules and
replaces each reference to it in the modules' namespaces, so calls are caught
under the names other modules import (``mhdlab.mild.biot_savart`` is traced as
``kernels.biot_savart``).  The ``scipy.fft`` transforms are wrapped as well,
which counts every FFT and the points it transforms.  Spans hold a name, the
index of their parent span, a start and an end; they stay in memory until
``write`` saves them when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = ("fields", "field_io", "kernels", "morrey", "mild", "theory", "initial_data", "verify", "cli")
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, start, end]
        self.stack: list[int] = []
        self.fft_points = 0
        self.heun_evaluations = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][2:] = [start, time.perf_counter()]
                stack.pop()

        return traced

    def _wrap_fft(self, name: str, fn):
        traced = self._wrap(f"scipy.fft.{name}", fn)
        inverse_real = name == "irfftn"

        def counted(x, *args, **kwargs):
            out = traced(x, *args, **kwargs)
            # points of the real-space array the transform maps to or from
            self.fft_points += out.size if inverse_real else x.size
            return out

        return counted

    def _count_heun(self, fn):
        def counted(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == "mild.reference_timestepper":
                self.heun_evaluations += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        import importlib

        from scipy import fft

        for name in FFT_NAMES:
            setattr(fft, name, self._wrap_fft(name, getattr(fft, name)))
        mods = [importlib.import_module(f"mhdlab.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                public = not name.startswith("_")
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        # every Heun substep evaluates the flux twice, directly from the stepper
        mild = importlib.import_module("mhdlab.mild")
        wrapped[mild._flux_hat] = self._count_heun(mild._flux_hat)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):  # dispatch tables such as verify._SUITES
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds (outermost calls) and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                entry["total_s"] += end - start
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "summary": self.summary(),
                    "fft_points": self.fft_points,
                    "heun_evaluations": self.heun_evaluations,
                    **extra,
                    "spans": self.spans,
                },
                fh,
            )
