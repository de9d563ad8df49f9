"""Tracing layer: span nesting, JSONL schema, rotation, validation, config."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.obs.summarize import (
    load_events,
    render_table,
    summarize,
    validate_trace,
)
from repro.obs.trace import TRACE_SCHEMA, TRACE_SCHEMA_VERSION, TraceWriter


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and a clean slate."""
    obs.configure("off")
    obs.reset_metrics()
    yield
    obs.configure("off")
    obs.reset_metrics()


def test_off_mode_span_is_shared_noop():
    first = obs.span("a", batch=1)
    second = obs.span("b")
    assert first is second  # the shared null context manager — no allocation
    with first:
        pass
    obs.inc("x")
    obs.set_gauge("y", 1.0)
    obs.observe("z", 0.5)
    assert obs.get_registry().snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_metrics_mode_feeds_span_histograms():
    obs.configure("metrics")
    with obs.span("store.ingest", batch=128):
        pass
    snap = obs.get_registry().snapshot()
    assert "obs.span.seconds{span=store.ingest}" in snap["histograms"]
    assert snap["histograms"]["obs.span.seconds{span=store.ingest}"]["count"] == 1


def test_trace_mode_emits_schema_valid_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path)
    with obs.span("outer", batch=5):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    obs.configure("off")  # closes + flushes the writer

    events = load_events(path)
    assert validate_trace(events) == []
    header = events[0]
    assert header["schema"] == TRACE_SCHEMA
    assert header["version"] == TRACE_SCHEMA_VERSION

    starts = [e for e in events if e["type"] == "span_start"]
    ends = [e for e in events if e["type"] == "span_end"]
    assert len(starts) == len(ends) == 3
    outer = next(e for e in starts if e["name"] == "outer")
    assert outer["attrs"] == {"batch": 5}
    assert "parent" not in outer
    for inner in (e for e in starts if e["name"] == "inner"):
        assert inner["parent"] == outer["span"]
    for end in ends:
        assert end["dur"] >= 0.0


def test_span_ids_are_unique_across_threads(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path)

    def work():
        for _ in range(20):
            with obs.span("t"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    obs.configure("off")
    events = load_events(path)
    assert validate_trace(events) == []
    ids = [e["span"] for e in events if e["type"] == "span_start"]
    assert len(ids) == len(set(ids)) == 80


def test_validation_catches_unclosed_and_nonmonotonic(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path)
    with obs.span("a"):
        pass
    obs.configure("off")
    events = load_events(path)

    unclosed = [e for e in events if e.get("type") != "span_end"]
    errors = validate_trace(unclosed)
    assert any("never closed" in e for e in errors)

    # Rewind one timestamp on the same thread: must be flagged.
    broken = [dict(e) for e in events]
    broken[-1]["ts"] = broken[-2]["ts"] - 1.0
    errors = validate_trace(broken)
    assert any("non-monotonic" in e or "ends before" in e for e in errors)

    assert validate_trace([]) != []
    assert validate_trace(events[1:]) != []  # header missing


def test_validation_catches_duplicate_and_orphan_spans():
    header = {"type": "header", "schema": TRACE_SCHEMA, "version": 1}
    dup = [
        header,
        {"type": "span_start", "span": 1, "name": "a", "ts": 1.0, "thread": 0},
        {"type": "span_start", "span": 1, "name": "b", "ts": 2.0, "thread": 0},
    ]
    assert any("duplicate span id" in e for e in validate_trace(dup))
    orphan = [
        header,
        {"type": "span_end", "span": 9, "name": "a", "ts": 1.0, "thread": 0},
    ]
    assert any("unopened" in e for e in validate_trace(orphan))


def test_trace_writer_rotation(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    writer = TraceWriter(path, rotate_bytes=4096, flush_every=1)
    for i in range(200):
        writer.emit({"type": "span_start", "span": i, "ts": float(i), "thread": 0})
        writer.emit(
            {
                "type": "span_end",
                "span": i,
                "ts": float(i),
                "dur": 0.0,
                "thread": 0,
            }
        )
    writer.close()
    assert writer.rotations > 0
    rotated = sorted(tmp_path.glob("trace.jsonl.*"))
    assert rotated
    # Every physical file begins with its own schema header.
    for candidate in [tmp_path / "trace.jsonl", *rotated]:
        with open(candidate, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first["type"] == "header"
        assert first["schema"] == TRACE_SCHEMA


def test_summarize_table_lists_span_names(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path)
    for _ in range(5):
        with obs.span("store.ingest", batch=64):
            pass
    obs.configure("off")
    stats = summarize(load_events(path))
    assert stats["store.ingest"].count == 5
    table = render_table(stats)
    assert "store.ingest" in table
    assert "p99_ms" in table
    assert render_table({}).endswith("(no closed spans)")


def test_summarize_cli(tmp_path, capsys):
    from repro.obs.summarize import main

    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path)
    with obs.span("cli.span"):
        pass
    obs.configure("off")
    assert main([path, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "cli.span" in out

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span_end", "span": 1, "ts": 0.0}\n')
    assert main([str(bad), "--validate"]) == 1


def test_configure_validation():
    with pytest.raises(ValueError):
        obs.configure("verbose")
    with pytest.raises(ValueError):
        obs.configure("trace", flush_interval=0.0)


def test_observability_context_restores_mode(tmp_path):
    assert obs.current_mode() == "off"
    with obs.observability("metrics"):
        assert obs.current_mode() == "metrics"
        assert obs.enabled()
    assert obs.current_mode() == "off"
    assert not obs.enabled()


def test_env_var_parsing():
    from repro.obs import _parse_env

    assert _parse_env("metrics") == {"mode": "metrics"}
    assert _parse_env("off") == {"mode": "off"}
    assert _parse_env("trace:/tmp/t.jsonl") == {
        "mode": "trace",
        "trace_path": "/tmp/t.jsonl",
    }
    with pytest.raises(ValueError):
        _parse_env("loud")
    with pytest.raises(ValueError):
        _parse_env("metrics:/tmp/t.jsonl")


def test_execution_config_obs_fields():
    from repro.pipeline.splash import ExecutionConfig

    cfg = ExecutionConfig(obs="trace", obs_trace_path="x.jsonl")
    assert cfg.obs == "trace"
    assert ExecutionConfig().obs is None  # None → leave ambient recorder alone
    with pytest.raises(ValueError):
        ExecutionConfig(obs="loud")
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="obs_flush_interval"):
            ExecutionConfig(obs="metrics", obs_flush_interval=bad)
    with pytest.warns(UserWarning, match="obs_trace_path has no effect"):
        ExecutionConfig(obs="metrics", obs_trace_path="x.jsonl")


def test_flush_interval_background_flusher(tmp_path):
    import time

    path = str(tmp_path / "trace.jsonl")
    obs.configure("trace", trace_path=path, flush_interval=0.05)
    with obs.span("periodic"):
        pass
    # The writer buffers 256 events; only the periodic flusher can have
    # written these two to disk this early.
    deadline = time.time() + 2.0
    seen = False
    while time.time() < deadline and not seen:
        events = load_events(path)
        seen = any(e.get("type") == "span_end" for e in events)
        time.sleep(0.02)
    assert seen
