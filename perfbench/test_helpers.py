"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/test_helpers.py -q`` from the
repository root.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import CallLog, finite, median, percentile  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentiles --------------------------------------------------------
def test_percentile_counts_samples():
    samples = list(np.random.default_rng(3).exponential(1.0, size=997))
    result = percentile(samples, 90)
    assert result.samples == 997
    assert result.tail == sum(1 for sample in samples if sample > result.value)


def test_percentile_stays_finite_next_to_a_failed_call():
    # NumPy alone returns NaN here: it interpolates 2.0 with inf.
    assert percentile([1.0, 2.0, math.inf], 50).value == 2.0
    assert percentile([1.0, math.inf], 0).value == 1.0
    assert math.isinf(percentile([1.0, math.inf, math.inf], 75).value)


def test_percentile_reports_samples_above():
    samples = [float(i) for i in range(1, 1001)]  # 1..1000
    p99 = percentile(samples, 99)
    assert p99.value == pytest.approx(990.01)
    assert p99.tail == 10  # 991..1000
    assert percentile(samples, 50).tail == 500
    assert percentile(samples, 100).tail == 0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_failed_calls_sort_last_and_stay_worse_than_anything():
    samples = [1.0] * 98 + [math.inf] * 2
    assert percentile(samples, 50).value == 1.0
    p99 = percentile(samples, 99)
    assert math.isinf(p99.value)
    assert finite(p99.value) > 1e300
    assert finite(2.5) == 2.5


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5


# -- failure accounting -------------------------------------------------
def test_call_log_counts_failures_and_continues():
    log = CallLog()

    def flaky(x):
        if x % 4 == 0:
            raise ValueError(f"bad {x}")
        return x * 2

    results = [log.call(flaky, x) for x in range(10)]
    assert log.attempted == 10
    assert log.failed == 3  # 0, 4, 8
    assert log.failed_ratio == pytest.approx(0.3)
    assert log.success_ratio == pytest.approx(0.7)
    ok, value, seconds = results[1]
    assert ok and value == 2 and 0 <= seconds < 1
    ok, value, seconds = results[4]
    assert not ok and value is None and math.isinf(seconds)
    assert log.errors[0] == "ValueError: bad 0"


def test_call_log_lets_interrupts_through():
    log = CallLog()

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        log.call(interrupted)


def test_empty_call_log_has_no_failures():
    assert CallLog().failed_ratio == 0.0


# -- self time ----------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 3.0, 0, 1),
        ("b", 4.0, 8.0, 0, 1),
        ("b.inner", 5.0, 6.0, 2, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 5.0, 0, 1),
        ("b", 3.0, 7.0, 0, 1),  # overlaps a (another thread)
        ("c", 9.0, 12.0, 0, 1),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# -- tracer -------------------------------------------------------------
class _Layer:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return "done"

    def inner(self):
        return None

    def per_event(self, items):
        return len(items)


def test_tracer_records_nesting_requests_and_restores():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(_Layer, "outer", lambda fn: tracer.span("client.outer", fn))
    tracer.patch(_Layer, "inner", lambda fn: tracer.span("store.inner", fn))
    tracer.patch(
        _Layer, "per_event", lambda fn: tracer.count(fn, "calls", "items")
    )
    layer = _Layer()
    assert layer.outer(2) == "done"
    assert layer.outer(1) == "done"
    assert layer.per_event([1, 2, 3]) == 3
    names = [span[0] for span in tracer.spans]
    assert names == ["client.outer", "store.inner", "store.inner"] + [
        "client.outer",
        "store.inner",
    ]
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 0, -1, 3]
    requests = [span[4] for span in tracer.spans]
    assert requests == [1, 1, 1, 2, 2]
    assert all(span[2] >= span[1] for span in tracer.spans)
    assert tracer.counters["calls"] == 1 and tracer.counters["items"] == 3

    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    before = len(tracer.spans)
    layer.outer(1)
    assert len(tracer.spans) == before


def test_tracer_removes_shadowing_of_inherited_methods():
    class Child(_Layer):
        pass

    tracer = Tracer()
    tracer.patch(Child, "inner", lambda fn: tracer.span("x", fn))
    assert "inner" in Child.__dict__
    tracer.uninstall()
    assert "inner" not in Child.__dict__


def test_layer_metrics_service_self_time_and_zero_for_bypassed_layers():
    tracer = Tracer()
    tracer.spans.extend(
        [
            ["client.predict", 0.0, 1.0, -1, 1],
            ["store.materialise", 0.1, 0.4, 0, 1],
            ["service.score", 0.5, 0.9, 0, 1],
        ]
    )
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["service.self_s"] == pytest.approx(0.3)
    assert metrics["store.materialise_s"] == pytest.approx(0.3)
    assert metrics["store.materialise_calls"] == 1
    assert metrics["service.score_s"] == pytest.approx(0.4)
    assert metrics["slim.fit_s"] == 0.0
    assert metrics["replay.vectorised_share"] == 0.0


def test_reported_metrics_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_UNITS
    assert list(layer_metrics(Tracer(), passes=1)) == list(LAYER_UNITS)
