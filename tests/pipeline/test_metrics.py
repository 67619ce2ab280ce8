"""Tests for the monitor's metrics core and its HTTP surface."""

import asyncio
import json
import socket
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelledGauge,
    MetricsRegistry,
)
from repro.pipeline.monitor import MonitorConfig, run_monitor
from repro.serve import HttpServer, serve_metrics
from tests.pipeline import reference_metrics
from tests.pipeline.conftest import small_source
from tests.serve.conftest import http_get, read_reply
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


    def test_non_finite_values_render_as_prometheus_spells_them(self):
        registry = MetricsRegistry()
        registry.gauge("g_nan").set(float("nan"))
        registry.gauge("g_pos").set(float("inf"))
        registry.gauge("g_neg").set(float("-inf"))
        registry.histogram("h", bounds=(1.0,)).observe(float("inf"))
        for _ in "12":  # held or not, the same text
            lines = registry.render_text().splitlines()
            for line in (
                "g_nan NaN",
                "g_pos +Inf",
                "g_neg -Inf",
                'h_bucket{le="1"} 0',
                'h_bucket{le="+Inf"} 1',
                "h_sum +Inf",
                "h_count 1",
            ):
                assert line in lines


def moved_steps():
    """What can happen to a registry between (and around) scrapes."""
    small_int = st.integers(0, 10**6)
    amount = st.one_of(
        small_int, st.floats(0.0, 1e6, allow_nan=False)
    )
    value = st.one_of(
        st.integers(-(10**6), 10**6),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("register"),
                st.sampled_from(["counter", "gauge", "histogram"]),
                st.integers(0, 5),
                st.booleans(),
            ),
            st.tuples(st.just("inc"), small_int, amount),
            st.tuples(st.just("set"), small_int, value),
            st.tuples(st.just("observe"), small_int, amount),
            st.tuples(st.just("collected"), value),
            st.tuples(st.just("collector")),
            st.tuples(st.just("scrape")),
        ),
        max_size=60,
    )


class TestHeldFamilies:
    """Held family text scrapes exactly as rendering every line did."""

    @settings(max_examples=150, deadline=None)
    @given(moved_steps())
    def test_every_scrape_equals_the_reference_renderer(self, steps):
        registry = MetricsRegistry()
        registered: dict[str, object] = {}
        collectors = []
        state = {"value": 0, "labels": {}, "observed": []}

        def collector():
            gauge = Gauge("zz_collected", "collected fresh")
            gauge.set(state["value"])
            histogram = Histogram("zz_collected_h", bounds=(1, 10))
            for observed in state["observed"]:
                histogram.observe(observed)
            labelled = LabelledGauge(
                "zz_collected_by", "", "key", dict(state["labels"])
            )
            return [gauge, histogram, labelled]

        def of(kinds, index):
            chosen = [m for m in registered.values() if m.kind in kinds]
            return chosen[index % len(chosen)] if chosen else None

        def check():
            assert registry.render_text() == reference_metrics.render_text(
                registered.values(), collectors
            )

        for step in steps:
            match step:
                case ("register", kind, index, helped):
                    name = f"m{index}_{kind}"
                    help = f"the {kind} {index}" if helped else ""
                    if kind == "histogram":
                        bounds = (0.5, 2.0, 100.0) if index % 2 else None
                        metric = (
                            registry.histogram(name, help, bounds)
                            if bounds
                            else registry.histogram(name, help)
                        )
                    else:
                        metric = getattr(registry, kind)(name, help)
                    registered.setdefault(name, metric)
                    assert registered[name] is metric
                case ("inc", index, amount):
                    metric = of(("counter", "gauge"), index)
                    if metric is not None:
                        metric.inc(amount)
                case ("set", index, value):
                    metric = of(("gauge",), index)
                    if metric is not None:
                        metric.set(value)
                case ("observe", index, amount):
                    metric = of(("histogram",), index)
                    if metric is not None:
                        metric.observe(amount)
                case ("collected", value):
                    state["value"] = value
                    state["labels"][f"k{len(state['labels']) % 3}"] = value
                    state["observed"].append(abs(value))
                case ("collector",):
                    registry.register_collector(collector)
                    collectors.append(collector)
                case ("scrape",):
                    check()
        check()

    def test_a_scrape_renders_only_the_families_that_moved(
        self, monkeypatch
    ):
        registry = MetricsRegistry()
        counter = registry.counter("a_total", "counted")
        gauge = registry.gauge("b")
        histogram = registry.histogram("c_seconds")
        registry.render_text()
        rendered = []
        for cls in (Counter, Gauge, Histogram):
            monkeypatch.setattr(
                cls,
                "render",
                lambda self, render=cls.render: (
                    rendered.append(self.name) or render(self)
                ),
            )
        text = registry.render_text()
        assert registry.render_text() == text
        assert rendered == []
        counter.inc()
        assert registry.render_text() != text
        assert rendered == ["a_total"]
        rendered.clear()
        gauge.set(3)
        histogram.observe(0.2)
        registry.render_text()
        assert rendered == ["b", "c_seconds"]
        rendered.clear()
        gauge.set(3)  # set, but not moved
        registry.render_text()
        assert rendered == []


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
    server and metrics handler, started on the caller's event loop."""
    server = HttpServer()
    for path in ("/metrics", "/metrics.json"):
        server.route(path, partial(serve_metrics, registry))
    return server


async def scrape(server, path):
    status, _, body = await http_get(server.port, path)
    assert status == 200
    return body.decode()


class TestServer:
    def test_serves_text_and_json_on_an_ephemeral_port(self):
        registry = MetricsRegistry()
        events = registry.counter("repro_pipeline_events_total")
        events.inc(7)
        server = mounted(registry)

        async def main():
            port = await server.start()
            assert port != 0 and port == server.port
            try:
                assert await scrape(server, "/metrics") == (
                    registry.render_text()
                )
                assert await scrape(server, "/metrics.json") == json.dumps(
                    registry.snapshot(), sort_keys=True
                )
                # Incremented between two scrapes on the one loop.
                events.inc(5)
                assert "repro_pipeline_events_total 12" in (
                    await scrape(server, "/metrics")
                )
            finally:
                await server.close()

        asyncio.run(main())

    def test_unknown_paths_and_methods_are_refused(self):
        server = mounted(MetricsRegistry())

        async def main():
            await server.start()
            try:
                for path in ("/nope", "/"):
                    status, _, _ = await http_get(server.port, path)
                    assert status == 404
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
                )
                reply = await read_reply(reader)
                writer.close()
                await writer.wait_closed()
                assert reply.startswith(b"HTTP/1.1 405 ")
            finally:
                await server.close()

        asyncio.run(main())

    def test_pipelined_scrapes_share_one_keep_alive_socket(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        server = mounted(registry)

        async def main():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n" * 2)
                answers = [await read_reply(reader) for _ in "12"]
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                await server.close()

        body = registry.render_text().encode()
        for answer in asyncio.run(main()):
            assert answer.startswith(b"HTTP/1.1 200 ")
            assert answer.endswith(b"\r\n\r\n" + body)

    def test_close_is_idempotent(self):
        # An idle keep-alive client must not be able to hold the stop:
        # the loop ends with it still connected, and the server's end
        # of the connection is closed with the loop.
        server = mounted(MetricsRegistry())

        async def main():
            loop = asyncio.get_running_loop()
            await server.start()
            client = socket.create_connection(("127.0.0.1", server.port))
            client.setblocking(False)
            await loop.sock_sendall(client, b"GET /nope HTTP/1.1\r\n\r\n")
            reply = b""
            while not reply.endswith(b"not found"):
                reply += await loop.sock_recv(client, 4096)
            await server.close()
            await server.close()
            return client

        started = time.monotonic()
        with asyncio.run(main()) as client:
            assert time.monotonic() - started < 10
            client.settimeout(10)
            assert client.recv(1) == b""  # hung up on, not left open

    def test_a_taken_port_fails_in_the_callers_thread(self):
        server = mounted(MetricsRegistry())

        async def main():
            await server.start()
            try:
                with pytest.raises(OSError):
                    await mounted(MetricsRegistry()).start(port=server.port)
            finally:
                await server.close()

        asyncio.run(main())
