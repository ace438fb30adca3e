"""Span recording around the calls into each driventb layer.

The wrappers are installed from outside the package: every public function
of a layer module (its ``__all__``) and the public methods of the drive
classes are replaced, on every module namespace that refers to them, by a
wrapper that records a span (layer, name, start, end, parent). Spans stay in
memory; ``self_times`` turns them into per-layer self time, which is a
span's duration minus the durations of its direct children (calls are
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("bessel", "drives", "lattice", "propagator", "observables",
          "floquet", "classical", "oracle", "scenario")
DRIVE_METHODS = ("f", "g", "eta", "chi", "uv", "int_exp_eta",
                 "fourier_amplitude")
COUNTERS = {
    "drives.chi_points_vector": "count", "drives.chi_calls_scalar": "count",
    "bessel.orders": "count", "bessel.max_x": "1",
    "propagator.sites": "count", "propagator.bloch_calls": "count",
    "propagator.site_calls": "count",
    "oracle.site_time": "site-time", "oracle.block_columns": "count",
    "observables.points": "count", "classical.sample_times": "count",
    "floquet.invariant_calls": "count",
    "scenario.files_written": "count", "scenario.bytes_written": "B",
}


class SpanRecorder:
    """In-memory spans plus the per-layer counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [layer, name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def enter(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int):
        self.spans[index][3] = self.clock()
        self._stack.pop()

    def depth_in(self, layer: str) -> int:
        """How many open spans belong to ``layer``."""
        return sum(1 for i in self._stack if self.spans[i][0] == layer)

    def self_times(self):
        """({layer: self seconds}, {layer: calls})."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            calls[layer] += 1
        return dict(self_s), dict(calls)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_phase(counts, args, kwargs, result):
    t = _arg(args, kwargs, 1, "t")
    if np.ndim(t) == 0:
        counts["drives.chi_calls_scalar"] += 1
    else:
        counts["drives.chi_points_vector"] += int(np.size(t))


def _count_bessel(counts, args, kwargs, result):
    counts["bessel.orders"] += int(np.size(result))
    x = _arg(args, kwargs, 1, "x")
    if x is not None:
        counts["bessel.max_x"] = max(counts["bessel.max_x"], abs(float(x)))


def _count_multivar(counts, args, kwargs, result):
    counts["bessel.orders"] += 1


def _count_evolve(counts, args, kwargs, result):
    counts["propagator.sites"] += int(args[0].amplitudes.size)
    path = _arg(args, kwargs, 3, "path", "bloch")
    counts["propagator.site_calls" if path == "site"
           else "propagator.bloch_calls"] += 1


def _count_single_band(counts, args, kwargs, result):
    counts["propagator.sites"] += int(args[0].amplitudes.size)
    counts["propagator.bloch_calls"] += 1


def _count_series(counts, args, kwargs, result):
    times = [float(t) for t in _arg(args, kwargs, 2, "times")]
    if times:
        counts["oracle.site_time"] += args[0].amplitudes.size * times[-1]


def _count_monodromy(counts, args, kwargs, result):
    counts["oracle.block_columns"] += int(_arg(args, kwargs, 1, "ring_sites"))


def _count_points(counts, args, kwargs, result):
    counts["observables.points"] += int(np.size(_arg(args, kwargs, 2, "times")))


def _count_classical(counts, args, kwargs, result):
    counts["classical.sample_times"] += 1


def _count_invariant(counts, args, kwargs, result):
    counts["floquet.invariant_calls"] += 1


def _count_files(counts, args, kwargs, result):
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    if "outputs" in result:
        names = list(result["outputs"]) + ["summary.json"]
        if "oracle" in result:
            names.append("comparison.json")
    else:
        names = ["comparison.json"]
    counts["scenario.files_written"] += len(names)
    counts["scenario.bytes_written"] += sum(
        (out_dir / name).stat().st_size for name in names)


_FUNCTION_COUNTERS = {
    ("bessel", "bessel_j_array"): _count_bessel,
    ("bessel", "bessel_j"): _count_bessel,
    ("bessel", "bessel_j_multivar"): _count_multivar,
    ("propagator", "evolve"): _count_evolve,
    ("propagator", "evolve_single_band"): _count_single_band,
    ("oracle", "integrate_series"): _count_series,
    ("oracle", "monodromy_spectrum"): _count_monodromy,
    ("observables", "observable_series"): _count_points,
    ("classical", "ensemble_moments"): _count_classical,
    ("classical", "trajectory"): _count_classical,
    ("classical", "classical_invariant"): _count_classical,
    ("floquet", "invariant_expectation"): _count_invariant,
    ("scenario", "run_scenario"): _count_files,
    ("scenario", "compare_with_oracle"): _count_files,
}
_PHASE_METHODS = ("eta", "chi", "uv", "int_exp_eta")


def _wrap(fn, layer: str, name: str, recorder: SpanRecorder, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # files are counted once per outermost scenario call
        count = counter is not None and not (
            layer == "scenario" and recorder.depth_in("scenario"))
        index = recorder.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(index)
        if count:
            counter(recorder.counts, args, kwargs, result)
        return result
    return wrapper


def install(recorder: SpanRecorder, package: str = "driventb"):
    """Wrap every layer's public functions and drive methods; returns an undo."""
    modules = {layer: sys.modules.get(f"{package}.{layer}") for layer in LAYERS}
    missing = [layer for layer, mod in modules.items() if mod is None]
    if missing:
        raise RuntimeError(f"layers not imported: {missing}")

    wrappers = {}
    for layer, mod in modules.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = _wrap(fn, layer, name, recorder,
                                     _FUNCTION_COUNTERS.get((layer, name)))

    undo = []
    namespaces = [m for key, m in sys.modules.items()
                  if m is not None and (key == package
                                        or key.startswith(package + "."))]
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))

    drives = modules["drives"]
    for cls in vars(drives).values():
        if not (inspect.isclass(cls) and issubclass(cls, drives.DriveProtocol)):
            continue
        for meth in DRIVE_METHODS:
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                counter = _count_phase if meth in _PHASE_METHODS else None
                setattr(cls, meth, _wrap(fn, "drives", f"{cls.__name__}.{meth}",
                                         recorder, counter))
                undo.append((cls, meth, fn))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall
