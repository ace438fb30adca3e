"""Tests of the benchmark's own arithmetic and input generation.

Run with ``python -m pytest -q bench``; they need numpy but not driventb.
"""

import itertools

import numpy as np
import pytest

from calibrate import REFERENCE_S, scale
from spans import SpanRecorder
from stats import percentile, tail_latency
from workloads import WORKLOADS, chi_reference


class TestTailRule:
    def test_highest_candidate_with_ten_above(self):
        values = [float(v) for v in range(1, 201)]          # 200 samples
        value, p, above = tail_latency(values)
        assert p == 75.0
        assert above == 50
        assert value == pytest.approx(percentile(values, 75.0))

    def test_boundary_exactly_ten_above(self):
        values = [float(v) for v in range(40)]
        value, p, above = tail_latency(values)
        assert (p, above) == (75.0, 10)

    def test_nine_above_falls_back_one_step(self):
        values = [float(v) for v in range(36)]             # p75 has 9 above
        value, p, above = tail_latency(values)
        assert (p, above) == (50.0, 18)

    def test_few_samples_report_the_median_and_its_shortfall(self):
        value, p, above = tail_latency([3.0, 1.0, 2.0, 5.0])
        assert (value, p, above) == (2.5, 50.0, 2)

    def test_ties_do_not_count_as_above(self):
        values = [1.0] * 50 + [2.0] * 5
        value, p, above = tail_latency(values)
        assert (value, p, above) == (1.0, 50.0, 5)


class TestScale:
    def test_nominal_host_keeps_the_latency(self):
        assert scale(0.25, REFERENCE_S, REFERENCE_S) == pytest.approx(0.25)

    def test_a_uniformly_slower_host_cancels(self):
        assert scale(0.4, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.2)

    def test_brackets_enter_as_their_geometric_mean(self):
        assert scale(1.0, REFERENCE_S, 4 * REFERENCE_S) == pytest.approx(0.5)


class TestSelfTime:
    def test_nested_spans(self):
        ticks = itertools.count()
        rec = SpanRecorder(clock=lambda: float(next(ticks)))
        outer = rec.enter("scenario", "run")        # t = 0
        mid = rec.enter("oracle", "series")         # t = 1
        inner = rec.enter("drives", "f")            # t = 2
        rec.exit(inner)                             # t = 3
        rec.exit(mid)                               # t = 4
        same = rec.enter("scenario", "compare")     # t = 5
        rec.exit(same)                              # t = 6
        rec.exit(outer)                             # t = 7
        self_s, calls = rec.self_times()
        assert self_s == {"scenario": 7 - 3 - 1 + 1, "oracle": 3 - 1,
                          "drives": 1}
        assert calls == {"scenario": 2, "oracle": 1, "drives": 1}
        assert sum(self_s.values()) == 7     # self times tile the outer span

    def test_siblings_are_both_subtracted(self):
        ticks = iter([0.0, 1.0, 1.5, 2.0, 4.0, 10.0])
        rec = SpanRecorder(clock=lambda: next(ticks))
        top = rec.enter("floquet", "invariant_expectation")
        a = rec.enter("propagator", "evolve")
        rec.exit(a)
        b = rec.enter("drives", "chi")
        rec.exit(b)
        rec.exit(top)
        self_s, _ = rec.self_times()
        assert self_s["floquet"] == pytest.approx(10.0 - 0.5 - 2.0)
        assert self_s["propagator"] == pytest.approx(0.5)
        assert self_s["drives"] == pytest.approx(2.0)


def _tree(path):
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    workload = WORKLOADS[name]
    workload.generate(7, tmp_path / "a")
    workload.generate(7, tmp_path / "b")
    workload.generate(8, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def test_chi_reference_matches_dc_closed_form():
    f0, g0 = 0.7, 0.4
    times = np.array([0.3, 2.0, 17.5])
    ref = chi_reference({"kind": "dc", "f0": str(f0), "g0": str(g0)}, None, times)
    exact = g0 * (1.0 - np.exp(-1j * f0 * times)) / (1j * f0)
    assert np.max(np.abs(ref - exact)) < 1e-13
