"""Tests for the monitor's metrics core and its HTTP surface."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from functools import partial

import pytest

from repro.pipeline.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.pipeline.monitor import MonitorConfig, run_monitor
from repro.serve import HttpServer, serve_metrics
from tests.pipeline.conftest import small_source
from tests.serve.test_app import build_app


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.to_value() == 5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.inc(-1.5)
        assert gauge.to_value() == 2.0


class TestHistogram:
    def test_bounds_must_be_sorted_and_non_empty(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", bounds=())
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_observations_land_in_buckets(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        value = hist.to_value()
        assert value["count"] == 4
        assert value["sum"] == pytest.approx(56.2)
        assert value["max"] == 50.0
        assert value["buckets"] == {"1": 2, "10": 1}
        assert value["overflow"] == 1

    def test_quantiles_interpolate_to_bucket_bounds(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(42.0)
        assert hist.quantile(0.5) == 1.0
        # The tail bucket answers with its bound capped at the max seen.
        assert hist.quantile(1.0) == 42.0
        assert hist.quantile(0.0) == 0.5 or hist.quantile(0.0) <= 1.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").quantile(1.5)

    def test_render_is_cumulative_prometheus_style(self):
        hist = Histogram("lag", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(99.0)
        lines = hist.render()
        assert 'lag_bucket{le="1"} 1' in lines
        assert 'lag_bucket{le="10"} 2' in lines
        assert 'lag_bucket{le="+Inf"} 3' in lines
        assert "lag_count 3" in lines


class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="not a gauge"):
            registry.gauge("a")
        with pytest.raises(ValueError, match="not a histogram"):
            registry.histogram("a")

    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("z").set(1)
        registry.counter("a").inc()
        registry.histogram("m").observe(0.2)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "m", "z"]
        json.dumps(snapshot)  # must not raise

    def test_render_text_carries_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "things counted").inc(2)
        text = registry.render_text()
        assert "# HELP repro_x_total things counted" in text
        assert "# TYPE repro_x_total counter" in text
        assert "repro_x_total 2" in text


def assert_one_type_line_per_family(registry):
    families = [
        line.split()[2]
        for line in registry.render_text().splitlines()
        if line.startswith("# TYPE ")
    ]
    assert len(families) == len(set(families))
    assert sorted(registry.snapshot()) == sorted(families)


class TestFamilies:
    def test_a_monitor_registry_with_incidents(self):
        registry = MetricsRegistry()
        result = run_monitor(
            small_source(),
            MonitorConfig(
                window=120, slide=60, batch_size=64, resolve_after=300
            ),
            registry=registry,
        )
        assert result.incidents.all_incidents()
        assert "repro_incidents_total" in registry.snapshot()
        assert_one_type_line_per_family(registry)

    def test_a_serve_app_registry(self):
        shard_set, _, _, app = build_app()
        for event in small_source().events():
            shard_set.offer(event)
        shard_set.finish()
        assert "repro_serve_shards_alive" in app.registry.snapshot()
        assert_one_type_line_per_family(app.registry)


def mounted(registry):
    """The ``repro monitor --metrics-port`` mount: the serve layer's
    server and metrics handler, running on the server's own thread."""
    server = HttpServer()
    for path in ("/metrics", "/metrics.json"):
        server.route(path, partial(serve_metrics, registry))
    server.start_in_thread()
    return server


def server_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-http"
    ]


def read_response(sock_file):
    """One ``Content-Length`` response off a keep-alive socket."""
    status = int(sock_file.readline().split()[1])
    length = 0
    for line in iter(sock_file.readline, b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return status, sock_file.read(length)


class TestServer:
    def test_serves_text_and_json_on_an_ephemeral_port(self):
        registry = MetricsRegistry()
        events = registry.counter("repro_pipeline_events_total")
        events.inc(7)
        server = mounted(registry)
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.read().decode() == registry.render_text()
            with urllib.request.urlopen(f"{base}/metrics.json") as resp:
                assert resp.read().decode() == json.dumps(
                    registry.snapshot(), sort_keys=True
                )
            # Incremented on this thread, scraped from the server's.
            events.inc(5)
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert "repro_pipeline_events_total 12" in (
                    resp.read().decode()
                )
        finally:
            server.stop_thread()

    def test_unknown_paths_and_methods_are_refused(self):
        server = mounted(MetricsRegistry())
        try:
            base = f"http://127.0.0.1:{server.port}"
            for path, data, code in (
                ("/nope", None, 404),
                ("/", None, 404),
                ("/metrics", b"", 405),  # a body makes it a POST
            ):
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(base + path, data=data)
                with refused.value as response:
                    assert response.code == code
        finally:
            server.stop_thread()

    def test_pipelined_scrapes_share_one_keep_alive_socket(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        server = mounted(registry)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n" * 2)
                with sock.makefile("rb") as responses:
                    answers = [read_response(responses) for _ in "12"]
            body = registry.render_text().encode()
            assert answers == [(200, body), (200, body)]
        finally:
            server.stop_thread()

    def test_close_is_idempotent(self):
        server = mounted(MetricsRegistry())
        # An idle keep-alive client must not be able to hold the stop.
        with socket.create_connection(("127.0.0.1", server.port)):
            server.stop_thread()
            server.stop_thread()
            # The stop waits only so long; a loaded host may need more.
            deadline = time.monotonic() + 10
            while server_threads() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server_threads() == []

    def test_a_taken_port_fails_in_the_callers_thread(self):
        server = mounted(MetricsRegistry())
        try:
            with pytest.raises(OSError):
                HttpServer().start_in_thread(port=server.port)
        finally:
            server.stop_thread()
