"""Tests for the monitor's metrics core and its HTTP surface."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.pipeline.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
)


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


class TestServer:
    def test_serves_text_and_json_on_an_ephemeral_port(self):
        registry = MetricsRegistry()
        registry.counter("repro_pipeline_events_total").inc(7)
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                text = resp.read().decode()
            assert "repro_pipeline_events_total 7" in text
            with urllib.request.urlopen(f"{base}/metrics.json") as resp:
                data = json.loads(resp.read().decode())
            assert data["repro_pipeline_events_total"] == 7
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")

    def test_close_is_idempotent(self):
        server = MetricsServer(MetricsRegistry(), port=0)
        server.close()
        server.close()

    def test_thread_cap_bounds_concurrency_but_serves_everyone(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        with MetricsServer(registry, port=0, max_threads=2) as server:
            assert server._httpd.max_threads == 2
            url = f"http://127.0.0.1:{server.port}/metrics"
            results: list[int] = []

            def fetch() -> None:
                with urllib.request.urlopen(url) as resp:
                    resp.read()
                    results.append(resp.status)

            threads = [
                threading.Thread(target=fetch) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            # Far more requests than threads: all are answered, just
            # never more than max_threads at once.
            assert results == [200] * 8
            gate = server._httpd._thread_gate
            # A handler thread returns its slot after its client has
            # the whole response: give the last ones a moment.
            deadline = time.monotonic() + 10
            while gate._value < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gate._value == 2  # every slot returned
