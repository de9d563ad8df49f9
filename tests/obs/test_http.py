"""The telemetry HTTP plane: real sockets, stdlib client."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.http import (
    PROMETHEUS_CONTENT_TYPE,
    TelemetryServer,
    span_latency_table,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import GaugeRule, SloEngine
from repro.obs.trace import SPAN_SECONDS_METRIC


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.configure("off")
    obs.reset_metrics()
    yield
    obs.stop_http_server()
    obs.configure("off")
    obs.reset_metrics()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture()
def server():
    registry = MetricsRegistry()
    registry.counter("serving.queries").inc(41)
    registry.gauge("serving.ingest.backlog").set(3.0)
    registry.histogram(SPAN_SECONDS_METRIC, span="serving.score").observe(0.01)
    engine = SloEngine(
        [GaugeRule("serving.ingest.backlog", max_value=10.0)],
        registry=registry,
        burn_window=2,
        failing_fraction=0.5,
    )
    server = TelemetryServer(port=0, registry=registry, health=engine).start()
    yield server, registry, engine
    server.stop()


def test_metrics_endpoint_serves_prometheus_text(server):
    srv, _, _ = server
    status, headers, body = _get(f"{srv.address}/metrics")
    assert status == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    assert "serving_queries_total 41" in body
    assert "# TYPE serving_queries_total counter" in body
    assert "obs_span_seconds_bucket" in body


def test_healthz_ok_and_failing(server):
    srv, registry, engine = server
    status, _, body = _get(f"{srv.address}/healthz")
    assert status == 200
    verdict = json.loads(body)
    assert verdict["status"] == "ok"
    assert verdict["rules"][0]["rule"] == "serving.ingest.backlog"

    registry.gauge("serving.ingest.backlog").set(500.0)
    engine.evaluate()  # failing_count = 1 → immediately failing
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{srv.address}/healthz")
    assert excinfo.value.code == 503
    verdict = json.loads(excinfo.value.read().decode())
    assert verdict["status"] == "failing"


def test_healthz_without_engine_reports_alive():
    srv = TelemetryServer(port=0, registry=MetricsRegistry()).start()
    try:
        status, _, body = _get(f"{srv.address}/healthz")
        assert status == 200
        assert json.loads(body) == {
            "status": "ok",
            "rules": [],
            "evaluations": 0,
        }
    finally:
        srv.stop()


def test_statusz_renders_health_and_span_table(server):
    srv, _, _ = server
    status, _, body = _get(f"{srv.address}/statusz")
    assert status == 200
    assert "pid:" in body
    assert "health: ok" in body
    assert "serving.score" in body  # span latency table row


def test_statusz_extra_callable_is_rendered():
    srv = TelemetryServer(
        port=0,
        registry=MetricsRegistry(),
        statusz_extra=lambda: {"queries_served": 7},
    ).start()
    try:
        _, _, body = _get(f"{srv.address}/statusz")
        assert "queries_served: 7" in body
    finally:
        srv.stop()


def test_unknown_path_is_404(server):
    srv, _, _ = server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{srv.address}/nope")
    assert excinfo.value.code == 404


def test_ephemeral_port_and_lifecycle(server):
    srv, _, _ = server
    assert srv.running
    assert srv.port != 0
    assert srv.address.endswith(str(srv.port))
    srv.stop()
    assert not srv.running
    with pytest.raises(urllib.error.URLError):
        _get(f"http://127.0.0.1:{srv.port}/metrics")
    srv.stop()  # idempotent


def test_port_validation():
    with pytest.raises(ValueError, match="port"):
        TelemetryServer(port=70000)


def test_span_latency_table_pools_proc_series():
    registry = MetricsRegistry()
    registry.histogram(SPAN_SECONDS_METRIC, span="ingest").observe(0.001)
    registry.histogram(
        SPAN_SECONDS_METRIC, span="ingest", proc="shard0"
    ).observe(0.001)
    table = span_latency_table(registry)
    lines = [ln for ln in table.splitlines() if ln.startswith("ingest")]
    assert len(lines) == 1  # merged, not one row per proc
    assert lines[0].split()[1] == "2"


def test_span_latency_table_empty_registry():
    assert "(no spans recorded)" in span_latency_table(MetricsRegistry())


# ---------------------------------------------------------------------------
# Module-level facade


def test_obs_start_http_server_serves_global_registry():
    obs.configure("metrics")
    obs.inc("serving.queries", 5)
    server = obs.start_http_server(port=0)
    assert obs.get_http_server() is server
    status, _, body = _get(f"{server.address}/metrics")
    assert status == 200
    assert "serving_queries_total 5" in body
    # healthz has a default SLO engine over the stock serving rules
    status, _, body = _get(f"{server.address}/healthz")
    assert status == 200
    rules = {r["rule"] for r in json.loads(body)["rules"]}
    assert "serving.ingest.backlog" in rules
    # idempotent while running
    assert obs.start_http_server(port=0) is server
    obs.stop_http_server()
    assert obs.get_http_server() is None


def test_execution_config_validates_http_port():
    from repro.pipeline import ExecutionConfig

    for bad in (-1, True, 80.7):
        with pytest.raises(ValueError, match="obs_http_port"):
            ExecutionConfig(obs_http_port=bad)
    assert ExecutionConfig(obs_http_port=8080).obs_http_port == 8080
