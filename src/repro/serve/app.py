"""The route table: what ``repro serve`` answers on its one port.

==================  ==================================================
``/picture.svg``    Cached TAMP picture; strong ETag, 304 on match.
``/incidents``      Cached merged shard-tagged incident rows
                    (``?status=``); strong ETag, 304 on match.
``/incidents/<id>`` One incident off the cached rows' index
                    (``?shard=`` to disambiguate).
``/events``         SSE transition feed (``Last-Event-ID`` replay).
``/metrics``        Prometheus-style text exposition of the serve
``/metrics.json``   families (and its JSON snapshot).
``/healthz``        Liveness probe.
``/status``         Shard/version/cache introspection JSON.
==================  ==================================================

Every handler reads exclusively through the snapshot surface —
:class:`~repro.serve.snapshot.SnapshotHub` (picture and incidents),
:meth:`~repro.serve.sharding.ShardSet.status` and friends, the
:class:`~repro.serve.events.TransitionFeed` ring — never the live
pipeline objects (rule SRV001: ``live_``-prefixed state is for the
sharding/snapshot layer only).

The picture and incident listings answer from held bytes under their
snapshot keys, ``/status`` from the reply to the last body it built
(a request builds the body and encodes it only when it differs),
``/metrics`` family by family
(:class:`~repro.pipeline.metrics.MetricsRegistry` re-renders only the
families whose value moved).

Per-route request counters and latency histograms live on a
:class:`~repro.pipeline.metrics.MetricsRegistry`; serve-level live
values (render and incident-build counts, feed position, shard
liveness) ride the same exposition through :meth:`ServeApp.gauges`,
registered as a collector. The shard pipelines keep no registry, so
no ``repro_pipeline_*`` or ``repro_incidents_*`` family appears here:
``/status`` and ``/incidents`` carry that view.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Optional

from repro.pipeline.metrics import Gauge, MetricsRegistry
from repro.serve.events import TransitionFeed
from repro.serve.http import (
    Handler,
    HandlerResult,
    HttpServer,
    Request,
    Response,
    StreamingResponse,
)
from repro.serve.sharding import ShardSet
from repro.serve.snapshot import SnapshotHub

_ROUTES = (
    "picture",
    "incidents",
    "incident",
    "events",
    "metrics",
    "healthz",
    "status",
)


async def serve_metrics(
    registry: MetricsRegistry, request: Request
) -> Response:
    """Answer ``/metrics`` (text) or ``/metrics.json`` (snapshot).

    The one metrics handler: ``repro serve`` routes to it through
    :class:`ServeApp`, ``repro monitor --metrics-port`` mounts it on a
    bare :class:`HttpServer`.
    """
    if request.path == "/metrics.json":
        return Response(
            200,
            json.dumps(registry.snapshot(), sort_keys=True),
            "application/json",
        )
    return Response(
        200, registry.render_text(), "text/plain; charset=utf-8"
    )


def _canonical(text: str) -> Optional[int]:
    """*text* as a non-negative integer, if it is that integer's one
    decimal spelling: no sign, padding, zero fill or digit separator,
    so one incident has one URL."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 and str(value) == text else None


class ServeApp:
    """Wires the snapshot surfaces into an :class:`HttpServer`."""

    def __init__(
        self,
        hub: SnapshotHub,
        feed: TransitionFeed,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.hub = hub
        self.shards: ShardSet = hub.shards
        self.feed = feed
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.registry.register_collector(self.gauges)
        #: ``/status``'s last body and its wire reply.
        self._status_body: Optional[dict[str, object]] = None
        self._status_reply = b""
        self._counters = {
            name: self.registry.counter(
                f"repro_serve_requests_total_{name}",
                f"requests served on the {name} route",
            )
            for name in _ROUTES
        }
        self._latency = {
            name: self.registry.histogram(
                f"repro_serve_request_seconds_{name}",
                f"request latency on the {name} route",
            )
            for name in _ROUTES
        }
        self.server = HttpServer()
        self.server.route(
            "/picture.svg", self._timed("picture", self.picture)
        )
        self.server.route(
            "/incidents", self._timed("incidents", self.incidents)
        )
        self.server.route_prefix(
            "/incidents/", self._timed("incident", self.incident)
        )
        self.server.route("/events", self._timed("events", self.events))
        for path in ("/metrics", "/metrics.json"):
            self.server.route(
                path, self._timed("metrics", self.metrics_text)
            )
        self.server.route(
            "/healthz", self._timed("healthz", self.healthz)
        )
        self.server.route("/status", self._timed("status", self.status))

    def gauges(self) -> list[Gauge]:
        """Serve-level live values, read fresh at every scrape."""
        values = {
            "repro_serve_events_offered_total": self.shards.events_offered,
            "repro_serve_incident_builds_total": self.hub.incident_builds,
            "repro_serve_picture_renders_total": self.hub.renders,
            "repro_serve_shards_alive": sum(self.shards.alive()),
            "repro_serve_sse_events_total": self.feed.published,
        }
        gauges = []
        for name, value in values.items():
            gauge = Gauge(name)
            gauge.set(value)
            gauges.append(gauge)
        return gauges

    def _timed(self, name: str, handler: Handler) -> Handler:
        counter = self._counters[name]
        latency = self._latency[name]
        clock = time.perf_counter

        async def timed(request: Request) -> HandlerResult:
            started = clock()
            result = await handler(request)
            counter.inc()
            latency.observe(clock() - started)
            return result

        return timed

    # -- Handlers (snapshot reads only: SRV001) ------------------------

    async def picture(self, request: Request) -> HandlerResult:
        snapshot = await self.hub.snapshot()
        return snapshot.wire.answer(request.header("if-none-match"))

    async def incidents(self, request: Request) -> HandlerResult:
        status = request.query_params().get("status", "")
        listing = self.hub.incidents().listing(status)
        return listing.answer(request.header("if-none-match"))

    async def incident(self, request: Request) -> HandlerResult:
        incident_id = _canonical(request.path.rsplit("/", 1)[-1])
        if incident_id is None:
            return Response(404, b"no such incident")
        params = request.query_params()
        shard: Optional[int] = None
        if "shard" in params:
            shard = _canonical(params["shard"])
            if shard is None:
                return Response(404, b"bad shard")
        body = self.hub.incidents().row_json(incident_id, shard)
        if body is None:
            return Response(404, b"no such incident")
        return Response(200, body, "application/json")

    async def events(self, request: Request) -> HandlerResult:
        raw = request.header("last-event-id")
        try:
            last_id = int(raw) if raw else 0
        except ValueError:
            last_id = 0
        replay = b"".join(self.feed.replay_since(last_id))
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b"retry: 2000\n\n" + replay
        )
        feed = self.feed

        async def pump(writer: asyncio.StreamWriter) -> None:
            queue = feed.subscribe()
            try:
                while True:
                    frame = await queue.get()
                    if frame is None:  # feed closed: end the stream
                        break
                    writer.write(frame)
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                feed.unsubscribe(queue)

        return StreamingResponse(head, pump)

    async def metrics_text(self, request: Request) -> HandlerResult:
        """Both metrics paths, JSON included: :func:`serve_metrics`."""
        return await serve_metrics(self.registry, request)

    async def healthz(self, request: Request) -> HandlerResult:
        return Response(200, b"ok")

    async def status(self, request: Request) -> HandlerResult:
        """The held reply while the body it encodes is unchanged."""
        snapshot = self.hub.current()
        incidents = self.hub.current_incidents()
        body = {
            "version": [list(part) for part in self.shards.version()],
            "etag": None if snapshot is None else snapshot.etag,
            "renders": self.hub.renders,
            "incident_etag": None if incidents is None else incidents.etag,
            "incident_builds": self.hub.incident_builds,
            "sse_last_id": self.feed.last_id,
            **self.shards.status(),
        }
        if body != self._status_body:
            self._status_reply = Response(
                200, json.dumps(body, sort_keys=True), "application/json"
            ).encode()
            self._status_body = body
        return self._status_reply

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        return await self.server.start(host, port)

    async def close(self) -> None:
        """End the SSE streams, then the server and its connections."""
        self.feed.close()
        await self.server.close()
