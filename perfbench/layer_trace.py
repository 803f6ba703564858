"""Outside-in layer trace of one CLI process.

``install()`` wraps the public functions listed in ``TARGETS`` in every
``cnlse_ansatz`` module namespace that holds them.  ``from ... import``
bindings are separate names: ``quartic`` holds its own ``wp_pair``,
``verify`` its own ``z_with_rate``, ``cli`` its own ``report_at``, so
patching only the defining module would miss those callers.  Nothing under
``src/`` changes; the wrappers live only in the traced process.

Each call records a span ``[name, start_ns, end_ns, parent]`` in memory.
Work counters (wp elements, split-step steps and cells, FFT calls, scan
note names) are kept beside the spans, and both are written out once, at
the end of the process, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

TARGETS = {
    "elliptic": ("wp_pair",),
    "quartic": ("weierstrass_solution", "solution_denominator"),
    "ansatz": ("z_with_rate", "phi_of_t"),
    "verify": ("residual_P", "residual_R1", "residual_R2", "cnlse_residual", "report_at"),
    "reference": ("split_step_evolve", "ansatz_divergence"),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_wp(counts, args, kwargs, result):
    counts["elliptic.wp_pair.elements"] += getattr(_arg(args, kwargs, 0, "u"), "size", 1)


def _count_split_step(counts, args, kwargs, result):
    steps = int(_arg(args, kwargs, 4, "steps"))
    counts["reference.split_step_evolve.steps"] += steps
    counts["reference.split_step_evolve.cell_steps"] += steps * result.size


def _count_notes(counts, args, kwargs, result):
    for note in filter(None, result.notes.split(";")):
        counts[f"verify.report_at.notes.{note}"] += 1


COUNTERS = {
    "elliptic.wp_pair": _count_wp,
    "reference.split_step_evolve": _count_split_step,
    "verify.report_at": _count_notes,
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter_ns
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def count_calls(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def install() -> Tracer:
    """Wrap every target in every namespace that binds it; count FFTs."""
    tracer = Tracer()
    package = [m for n, m in list(sys.modules.items())
               if n == "cnlse_ansatz" or n.startswith("cnlse_ansatz.")]
    for module_name, functions in TARGETS.items():
        module = importlib.import_module(f"cnlse_ansatz.{module_name}")
        for fn_name in functions:
            original = getattr(module, fn_name)
            wrapped = tracer.wrap(f"{module_name}.{fn_name}", original)
            for namespace in package:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)
    for fn_name in ("fft", "ifft"):
        setattr(np.fft, fn_name,
                tracer.count_calls("reference.fft_calls", getattr(np.fft, fn_name)))
    return tracer
