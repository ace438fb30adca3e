"""The library calls the benchmark makes, run once per workload.

Each workload that BENCHMARK.json lists is built at seed 1 into a scratch
directory by ``bench/workloads.py`` (imported from its file, never edited),
and its first op runs through that op's own check, plain and under the
span recorder of ``bench/spans.py`` that ``bench/run.py --trace 1`` installs.
A change that breaks a call the benchmark makes fails here rather than as a
failed benchmark run.
"""

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import driventb

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench_module(name: str):
    """Yield bench/<name>.py, imported from its file as bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _bench_module("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from _bench_module("spans")


def test_every_exported_name_resolves():
    # install getattr's each name of a layer's __all__, so a name left there
    # after its definition goes breaks the traced bench
    for info in pkgutil.iter_modules(driventb.__path__):
        module = importlib.import_module(f"driventb.{info.name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not stale, (info.name, stale)


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_op_passes_its_check(workloads, tmp_path, name):
    ops = workloads.WORKLOADS[name].build(ROOT, 1, tmp_path)
    assert ops
    op = ops[0]
    ok, values = op.check(op.run())
    assert ok, (op.name, values)


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_op_passes_its_check_traced(workloads, spans, tmp_path, name):
    # install raises unless every layer module is imported, and wraps the
    # public functions on every driventb namespace that refers to them
    ops = workloads.WORKLOADS[name].build(ROOT, 1, tmp_path)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        op = ops[0]
        ok, values = op.check(op.run())
    finally:
        uninstall()
    assert ok, (op.name, values)
    assert recorder.spans


def test_every_wide_evolve_drive_builds(workloads, tmp_path):
    # the first op is a dc drive; the later ones call HarmonicDrive positionally
    path, = workloads.WORKLOADS["wide_evolve"].generate(1, tmp_path)
    specs = [s["drive"] for s in json.loads(path.read_text())]
    assert {s["kind"] for s in specs} == {"dc", "harmonic"}
    for spec in specs:
        drive = workloads.make_drive(spec)
        assert (drive.f0, drive.g0) == (spec["f0"], spec["g0"])
        if spec["kind"] == "harmonic":
            assert (drive.f1, drive.omega) == (spec["f1"], spec["omega"])


def test_trace_sees_the_layers_a_scenario_calls(workloads, spans, tmp_path):
    # run_scenario and compare_with_oracle reach the public closed forms, which
    # the recorder wraps, so their work shows in its per-layer counts
    series = {op.name: op for op in workloads.WORKLOADS["closed_form_series"].build(
        ROOT, 1, tmp_path / "series")}
    ops = [series["series_invariant_classical"],
           workloads.WORKLOADS["oracle_verify"].build(ROOT, 1, tmp_path / "oracle")[0]]
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        for op in ops:
            ok, values = op.check(op.run())
            assert ok, (op.name, values)
    finally:
        uninstall()
    for key in ("observables.points", "floquet.invariant_calls",
                "classical.sample_times", "propagator.bloch_calls"):
        assert recorder.counts[key] > 0, key
