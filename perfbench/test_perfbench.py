"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracer_module  # noqa: E402
from check import Answer, failed_requests, mismatch  # noqa: E402
from hostspeed import NOMINAL_NS, SAMPLE_EVERY_NS, SpeedProbe  # noqa: E402
from stats import (  # noqa: E402
    TooFewSamples,
    min_samples_for,
    percentile,
    tail_percentile,
)
from tracer import Trace, Tracer, self_times  # noqa: E402


class TestTailPercentile:
    def test_p95_needs_two_hundred_samples_for_ten_beyond(self):
        assert min_samples_for(95) == 200
        assert min_samples_for(50) == 20

    def test_reports_when_ten_samples_lie_beyond(self):
        samples = list(range(200))
        assert percentile(samples, 95) == 189
        assert tail_percentile(samples, 95) == 189

    def test_refuses_one_sample_short(self):
        with pytest.raises(TooFewSamples):
            tail_percentile(list(range(199)), 95)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        assert tail_percentile([1.0] * 195 + [2.0] * 10, 95) == 1.0
        with pytest.raises(TooFewSamples):
            tail_percentile([1.0] * 190 + [2.0] * 15, 95)

    def test_order_of_samples_does_not_matter(self):
        samples = [float((i * 37) % 211) for i in range(211)]
        assert tail_percentile(samples, 95) == tail_percentile(
            sorted(samples), 95
        )


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 100] calls a [10, 40] and b [50, 90]; a calls c [20, 30].
        start = np.array([0, 10, 20, 50])
        end = np.array([100, 40, 30, 90])
        parent = np.array([-1, 0, 1, 0])
        assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]

    def test_roots_of_separate_requests_are_independent(self):
        start = np.array([0, 5, 100, 110])
        end = np.array([50, 45, 200, 120])
        parent = np.array([-1, 0, -1, 2])
        assert self_times(start, end, parent).tolist() == [10, 40, 90, 10]


class _Layer:
    def outer(self, n: int, *, scale: int = 1) -> int:
        return sum(self.inner(i) for i in range(n)) * scale

    def inner(self, i: int) -> int:
        return i


class TestTracer:
    @pytest.fixture
    def ticking_clock(self, monkeypatch):
        ticks = iter(range(0, 10_000, 10))
        monkeypatch.setattr(tracer_module.time, "perf_counter_ns",
                            lambda: next(ticks))

    def _traced(self) -> Tracer:
        tracer = Tracer()
        tracer.wrap(_Layer, "outer", "layer.outer")
        tracer.wrap(_Layer, "inner", "layer.inner")
        return tracer

    def test_spans_nest_and_self_time_excludes_callees(self, ticking_clock):
        tracer = self._traced()
        try:
            with tracer.span("request", tag="q1"):
                assert _Layer().outer(2) == 1
        finally:
            tracer.uninstall()
        trace = tracer.collect()
        request, = trace.spans_named("request")
        outer, = trace.spans_named("layer.outer")
        inners = trace.spans_named("layer.inner")
        assert trace.parent[outer] == request
        assert trace.parent[inners].tolist() == [outer, outer]
        assert set(trace.root.tolist()) == {request}
        assert trace.tags[request] == "q1"
        # Ticks of 10 ns: each inner span lasts one tick; outer lasts
        # five ticks, two of them inside inner.
        self_ns = trace.self_ns()
        assert self_ns[inners].tolist() == [10, 10]
        assert self_ns[outer] == 50 - 20

    def test_wrappers_keep_signatures_and_uninstall_restores(self):
        original = _Layer.__dict__["outer"]
        tracer = self._traced()
        parameters = inspect.signature(_Layer().outer).parameters
        assert list(parameters) == ["n", "scale"]
        tracer.uninstall()
        assert _Layer.__dict__["outer"] is original

    def test_each_thread_keeps_its_own_stack(self):
        tracer = self._traced()
        try:
            with tracer.span("request"):
                worker = threading.Thread(target=lambda: _Layer().inner(1))
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
                _Layer().inner(2)
        finally:
            tracer.uninstall()
        trace = tracer.collect()
        request, = trace.spans_named("request")
        parents = sorted(trace.parent[trace.spans_named("layer.inner")])
        # The other thread's call is a root of its own.
        assert parents == [-1, request]

    def test_write_and_read_round_trip(self, tmp_path):
        tracer = self._traced()
        try:
            with tracer.span("request", tag="q"):
                _Layer().outer(3)
        finally:
            tracer.uninstall()
        trace = tracer.collect()
        trace.counts[(0, "probes")] = 4.0
        path = tmp_path / "spans.npz"
        trace.write(path)
        loaded = Trace.read(path)
        assert loaded.names == trace.names
        assert loaded.parent.tolist() == trace.parent.tolist()
        assert loaded.tags == trace.tags
        assert loaded.counts == {(0, "probes"): 4.0}


class TestAnswerCheck:
    RIGHT = Answer(("db1", "db2", "db3"), 0.93, 2, ("db4", "db2"))

    def test_planted_wrong_answer_is_flagged(self):
        wrong = Answer(("db1", "db2", "db5"), 0.93, 2, ("db4", "db2"))
        answers = [(0, "q1", self.RIGHT), (1, "q1", wrong), (2, "q1", self.RIGHT)]
        failures = failed_requests(answers, lambda query: self.RIGHT)
        assert list(failures) == [1]
        assert "db5" in failures[1]

    def test_reference_is_computed_once_per_query(self):
        calls = []

        def reference(query):
            calls.append(query)
            return self.RIGHT

        failed_requests(
            [(i, "q1" if i % 2 else "q2", self.RIGHT) for i in range(6)],
            reference,
        )
        assert sorted(calls) == ["q1", "q2"]

    def test_probe_order_and_certainty_are_checked(self):
        reordered = Answer(self.RIGHT.selected, 0.93, 2, ("db2", "db4"))
        assert "probe order" in mismatch(reordered, self.RIGHT)
        drifted = Answer(self.RIGHT.selected, 0.93 + 1e-6, 2, ("db4", "db2"))
        assert "certainty" in mismatch(drifted, self.RIGHT)
        close = Answer(self.RIGHT.selected, 0.93 + 1e-12, 2, None)
        assert mismatch(close, self.RIGHT) is None


class TestSpeedProbe:
    def _probe(self) -> SpeedProbe:
        # Nominal speed for 10 s, then half speed for 10 s.
        probe = SpeedProbe()
        probe.times = [i * 1_000_000_000 for i in range(20)]
        probe.durations = [NOMINAL_NS] * 10 + [2 * NOMINAL_NS] * 10
        return probe

    def test_scale_follows_the_samples_nearest_in_time(self):
        probe = self._probe()
        assert probe.scale_at(2_000_000_000) == 1.0
        assert probe.scale_at(18_000_000_000) == 0.5
        assert probe.scale_at(-5) == 1.0
        assert probe.scale_at(99_000_000_000) == 0.5

    def test_run_scale_is_the_median_sample(self):
        assert self._probe().scale() == pytest.approx(1 / 1.5)

    def test_mean_scale_weighs_time_at_each_speed(self):
        probe = self._probe()
        assert probe.mean_scale(0, 4_000_000_000) == 1.0
        # Half of this window at nominal speed, half at half speed.
        assert probe.mean_scale(
            0, 20_000_000_000) == pytest.approx(0.75, abs=0.05)

    def test_samples_at_most_once_per_interval(self):
        now = [0]

        def clock():
            now[0] += 1_000_000  # every reading advances 1 ms
            return now[0]

        probe = SpeedProbe(clock=clock, work=lambda: None)
        for _ in range(500):
            probe.maybe_sample()
        gaps = [b - a for a, b in zip(probe.times, probe.times[1:])]
        assert len(probe.times) > 2
        assert min(gaps) >= SAMPLE_EVERY_NS
