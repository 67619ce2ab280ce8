"""The two ``repro.serve`` workloads, untraced and traced.

``serve_live`` runs :func:`repro.serve.run_serve` — feeder, shards,
checkpoints, HTTP — beside an open-loop poller and an SSE subscriber;
``serve_reads`` stands a :class:`~repro.serve.ServeApp` on an already
fed shard set and reads from it in pipelined bursts. Clients and
server share one asyncio loop and one process, as
``benchmarks/test_serve.py`` already does on this 2-core box: client
CPU is inside every number here, and a request can only be answered
when the feeder yields.

The traced pass re-expresses ``run_serve``'s loop out of the same
public objects. Calls the program makes below that loop (a shard
pumping its pipeline, the hub rendering) are spanned by rebinding
methods on the instances involved (:meth:`bench.trace.Tracer.wrap`);
the handlers are spanned by a :class:`ServeApp` subclass; a request's
spans find their parent through an ``X-Span`` header.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

from bench.clock import Lap, Meter
from bench.common import (
    BATCH_SIZE,
    N_ROUTES,
    PROFILE,
    STREAM_RATE,
    Outcome,
    Sample,
    fresh_dir,
    layer_values,
    peak_rss_mb,
    percentile,
    require,
    timed_setups,
    typical,
    typical_worst,
)
from bench.monitor import instrument_stages, latest_checkpoint_text
from bench.trace import Tracer, self_times
from repro.pipeline import CheckpointStore, MonitorConfig, SyntheticSource
from repro.serve import (
    Request,
    ServeApp,
    ShardSet,
    SnapshotHub,
    TransitionFeed,
    run_serve,
    shard_dir,
)
from repro.serve.http import HandlerResult
from repro.tamp.prune import DEFAULT_THRESHOLD, prune_flat
from repro.tamp.render import render_svg

WINDOW, SLIDE, SHARDS = 60.0, 15.0, 2

#: ``serve_live``: replay speed-up (about 670 events per calibrated
#: second: with the poller beside it the loop is busy well under half
#: the time, so the median request finds it idle and the tail does
#: not); poller requests per calibrated second, cycling these routes;
#: how long ``run_serve`` keeps answering after the stream ends (wall
#: seconds), so the last polls are not cut off.
LIVE_PACE = 60.0
POLL_RATE = 100.0
POLL_ROUTES = ("picture", "incidents", "status")
LINGER = 0.25

#: ``serve_reads``: stream seconds fed in set-up, requests per repeat
#: (split over two connections), requests written per burst, and the
#: seeded mix they are drawn from.
PREFEED_TIMERANGE = 720.0
REQUESTS_PER_REPEAT = 5_000
CONNECTIONS = 2
BURST = 50
MIX = (
    ("picture_304", 0.80),
    ("incidents", 0.10),
    ("status", 0.05),
    ("metrics", 0.04),
    ("picture_200", 0.01),
)
#: Sequential conditional GETs in the traced pass's socket-cost probe.
PROBE_REQUESTS = 200

PATHS = {
    "picture": "/picture.svg",
    "picture_304": "/picture.svg",
    "picture_200": "/picture.svg",
    "incidents": "/incidents",
    "status": "/status",
    "metrics": "/metrics",
}

WORKLOADS = ("serve_live", "serve_reads")


def serve_config(pace: float = 0.0) -> MonitorConfig:
    return MonitorConfig(
        window=WINDOW,
        slide=SLIDE,
        batch_size=BATCH_SIZE,
        checkpoint_every=1,
        pace=pace,
    )


def make_source(timerange: float, seed: int) -> SyntheticSource:
    source = SyntheticSource(
        max(2, round(timerange * STREAM_RATE)),
        timerange,
        profile=PROFILE,
        n_routes=N_ROUTES,
        seed=seed,
    )
    next(source.events())  # generate now, not inside a timed region
    return source


# -- the bench's HTTP client ---------------------------------------------


def request_bytes(
    kind: str, etag: str = "", span: Optional[int] = None
) -> bytes:
    lines = [f"GET {PATHS[kind]} HTTP/1.1", "Host: bench"]
    if etag and kind in ("picture", "picture_304"):
        lines.append(f"If-None-Match: {etag}")
    if span is not None:
        lines.append(f"X-Span: {span}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes
    wire_bytes: int


async def read_reply(reader: asyncio.StreamReader) -> Reply:
    """One response; raises ``IncompleteReadError`` on a short one."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(": ")
        if sep:
            headers[name.lower()] = value
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return Reply(
        int(lines[0].split(" ", 2)[1]), headers, body, len(head) + len(body)
    )


@dataclass
class ClientStats:
    """What the load generators sent, got back, and how long it took."""

    #: Calibrated time the pass began; samples are dated from it.
    started: float
    attempted: int = 0
    failed: int = 0
    bytes_in: int = 0
    picture_requests: int = 0
    answered: int = 0
    #: Latency is due time (or burst write) to last byte.
    latencies: list[Sample] = field(default_factory=list)
    #: ``serve_live``: how long each full picture took.
    picture_200_latency: list[float] = field(default_factory=list)
    late_max: float = 0.0
    #: Body of the last full picture received.
    picture_body: bytes = b""

    def sample(self, sent: float, now: float) -> None:
        self.latencies.append((now - self.started, now - sent))

    def check(self, kind: str, reply: Reply) -> None:
        self.answered += 1
        self.bytes_in += reply.wire_bytes
        if kind.startswith("picture"):
            self.picture_requests += 1
        if reply.status == 200 and kind.startswith("picture"):
            self.picture_body = reply.body
        expected = {
            "picture": (200, 304),
            "picture_304": (304,),
        }.get(kind, (200,))
        if reply.status not in expected or (
            reply.status == 200 and not reply.body
        ):
            self.failed += 1


async def settle() -> None:
    """Let the server's connection tasks see their clients leave.

    ``HttpServer.close()`` does not wait for them; ending the loop
    under them is harmless but logs a cancelled task apiece.
    """
    await asyncio.sleep(0.05)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def poll(
    port: int,
    meter: Meter,
    count: int,
    speed: float,
    stats: ClientStats,
    tracer: Optional[Tracer] = None,
) -> None:
    """Open loop: request *i* is due ``i / POLL_RATE`` after the start.

    One connection, no pipelining: a stalled server delays the
    requests behind the stalled one, and each is still timed from when
    it was due. The schedule runs on the wall clock at *speed*
    calibrated seconds per second (see :class:`LiveInputs`); the
    latencies are read from the calibrated clock itself.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    etag = '""'
    wall = time.perf_counter
    started = wall()
    stats.attempted += count
    try:
        for index in range(count):
            due = started + index / (POLL_RATE * speed)
            if due > wall():
                await asyncio.sleep(due - wall())
            late = max(0.0, wall() - due)
            meter.tick()
            due_now = meter.now() - late * meter.speed
            stats.late_max = max(stats.late_max, late * meter.speed)
            kind = POLL_ROUTES[index % len(POLL_ROUTES)]
            span = None if tracer is None else tracer.begin("http.roundtrip")
            writer.write(request_bytes(kind, etag, span))
            await writer.drain()
            reply = await read_reply(reader)
            if tracer is not None:
                tracer.end(span)
            now = meter.now()
            stats.check(kind, reply)
            stats.sample(due_now, now)
            if kind == "picture" and reply.status == 200:
                etag = reply.headers.get("etag", etag)
                stats.picture_200_latency.append(now - due_now)
    except (asyncio.IncompleteReadError, ConnectionError):
        # The server went away: this request and all after it failed.
        stats.failed += count - stats.answered
    finally:
        await close_writer(writer)


async def subscribe(port: int) -> list[bytes]:
    """Hold ``/events`` open until the server ends it; the frames."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET /events HTTP/1.1\r\nHost: bench\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")
        stream = await reader.read()
    finally:
        await close_writer(writer)
    return [
        frame for frame in stream.split(b"\n\n") if frame.startswith(b"id: ")
    ]


def frame_ids(frames: list[bytes]) -> list[int]:
    return [int(frame.split(b"\n", 1)[0][4:]) for frame in frames]


async def read_bursts(
    port: int,
    meter: Meter,
    plan: list[str],
    etag: str,
    stats: ClientStats,
    tracer: Optional[Tracer] = None,
) -> None:
    """Closed loop: write :data:`BURST` requests, read their replies.

    One latency sample per burst, write to last reply: what a
    pipelining client waits for. (Per-request times inside a burst
    mostly measure a request's position in it.)
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    stats.attempted += len(plan)
    done = 0
    try:
        for at in range(0, len(plan), BURST):
            meter.tick()
            burst = plan[at:at + BURST]
            span = None if tracer is None else tracer.begin("http.roundtrip")
            started = meter.now()
            wire = {
                kind: request_bytes(kind, etag, span) for kind in set(burst)
            }
            writer.write(b"".join(wire[kind] for kind in burst))
            await writer.drain()
            for kind in burst:
                stats.check(kind, await read_reply(reader))
                done += 1
            stats.sample(started, meter.now())
            if tracer is not None:
                tracer.end(span)
    except (asyncio.IncompleteReadError, ConnectionError):
        stats.failed += len(plan) - done
    finally:
        await close_writer(writer)


# -- tracing the serve side ------------------------------------------------


class TracedApp(ServeApp):
    """A :class:`ServeApp` whose handlers run inside spans."""

    def __init__(
        self, hub: SnapshotHub, feed: TransitionFeed, tracer: Tracer
    ) -> None:
        self.tracer = tracer
        super().__init__(hub, feed)

    def _span(self, name: str, request: Request):
        parent = request.header("x-span")
        return self.tracer.span(
            name, parent=int(parent) if parent else None
        )

    async def picture(self, request: Request) -> HandlerResult:
        with self._span("app.picture_200", request) as index:
            result = await super().picture(request)
            if result.startswith(b"HTTP/1.1 304"):
                self.tracer.spans[index][0] = "app.picture_304"
            return result

    async def incidents(self, request: Request) -> HandlerResult:
        with self._span("app.incidents", request):
            return await super().incidents(request)

    async def status(self, request: Request) -> HandlerResult:
        with self._span("app.status", request):
            return await super().status(request)

    async def metrics_text(self, request: Request) -> HandlerResult:
        with self._span("app.metrics", request):
            return await super().metrics_text(request)


def instrument_shard_set(tracer: Tracer, shard_set: ShardSet) -> None:
    """Span the shard set's surface and each live shard's layers."""
    for method in ("offer", "finish", "merged_graph", "incident_rows"):
        tracer.wrap(shard_set, method, f"sharding.{method}")
    # The one private reach of the benchmark: ShardSet has no public
    # accessor for its shards, and the layer calls happen inside them.
    for shard in shard_set._shards:
        shard.live_manager = instrument_stages(
            tracer,
            shard.live_window,
            shard.live_tamp,
            shard.live_manager,
            shard.store,
            shard.incident_store,
        )


async def socket_probe(
    port: int, meter: Meter, etag: str, tracer: Tracer
) -> float:
    """Self time of :data:`PROBE_REQUESTS` idle round trips for a 304.

    Sequential conditional GETs against the now idle server; what the
    handler spans do not claim is parsing, writing and the client.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        with tracer.aside() as probe_spans:
            for _ in range(PROBE_REQUESTS):
                meter.tick()
                span = tracer.begin("http.roundtrip_304")
                writer.write(request_bytes("picture_304", etag, span))
                await writer.drain()
                reply = await read_reply(reader)
                tracer.end(span)
                require(reply.status == 304, "probe request was not a 304")
            return self_times(probe_spans())["http.roundtrip_304"]
    finally:
        await close_writer(writer)


def after_pass(
    shard_set: ShardSet,
    meter: Meter,
    tracer: Tracer,
    values: dict[str, float],
) -> None:
    """Counts and offline timings taken once a traced pass has ended.

    Times public ``prune_flat`` / ``render_svg`` on the final merged
    graph: an estimate of how ``snapshot.render_s`` splits per render.
    """
    with tracer.aside():
        values["incidents.count"] = len(shard_set.incident_rows())
        graph = shard_set.merged_graph()
    meter.sample()
    started = meter.now()
    pruned = prune_flat(graph, DEFAULT_THRESHOLD)
    middle = meter.now()
    render_svg(
        pruned,
        title="TAMP",
        clock_text=f"t={shard_set.latest_window_end():.0f}s",
    )
    values["tamp.prune_s"] = middle - started
    values["tamp.render_svg_s"] = meter.now() - middle


# -- shared result handling ------------------------------------------------


@dataclass
class ServePass:
    """One pass of a serve workload, traced or not."""

    wall: float
    cpu: float
    events: int
    stats: ClientStats
    renders: int
    published: int
    frames: list[bytes]
    picture_body: bytes
    checkpoint_root: Optional[Path] = None

    @property
    def failed(self) -> int:
        return self.stats.failed + self.published - len(self.frames)

    @property
    def attempted(self) -> int:
        return self.stats.attempted + self.published


def one_shard_body(
    source: SyntheticSource, meter: Meter
) -> tuple[bytes, float]:
    """The picture an unsharded run over *source* ends with.

    Also returns the host's mean speed over the feed: a second of the
    same kind of work the passes do, sampled the same way.
    """
    reference = ShardSet(source, serve_config(), shards=1)
    try:
        with Lap(meter) as lap:
            for event in source.events():
                meter.tick()
                reference.offer(event)
            reference.finish()
        return SnapshotHub(reference).render().body, lap.speed
    finally:
        reference.close()


def check_pass(done: ServePass, reference_body: bytes) -> None:
    require(
        done.picture_body == reference_body,
        f"{SHARDS}-shard picture differs from a 1-shard render of the"
        " same events",
    )
    require(
        frame_ids(done.frames) == list(range(1, done.published + 1)),
        "SSE ids did not arrive once each, in order",
    )


def check_same(untraced: ServePass, traced: ServePass) -> None:
    require(
        untraced.picture_body == traced.picture_body,
        "traced and untraced final pictures differ",
    )
    require(
        untraced.frames == traced.frames,
        "traced and untraced SSE frames differ",
    )
    if untraced.checkpoint_root is None:
        return
    assert traced.checkpoint_root is not None
    for shard in range(SHARDS):
        ours = shard_dir(untraced.checkpoint_root, shard)
        theirs = shard_dir(traced.checkpoint_root, shard)
        require(
            latest_checkpoint_text(ours) == latest_checkpoint_text(theirs),
            f"shard {shard}: traced and untraced final checkpoints differ",
        )
        require(
            CheckpointStore(ours).read_reports()
            == CheckpointStore(theirs).read_reports(),
            f"shard {shard}: traced and untraced report logs differ",
        )


def end_to_end(
    passes: list[ServePass], units: list[int], setup_s: float, unit: str
) -> Outcome:
    """The end-to-end values from one or more untraced passes."""
    latencies = [done.stats.latencies for done in passes]
    attempted = sum(done.attempted for done in passes)
    failed = sum(done.failed for done in passes)
    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.values = {
        "setup_s": setup_s,
        "throughput_per_s": median(
            [n / done.wall for n, done in zip(units, passes)]
        ),
        "cpu_s_per_kunit": median(
            [done.cpu / (n / 1000.0) for n, done in zip(units, passes)]
        ),
        "latency_p50_ms": typical(latencies) * 1000.0,
        "latency_worst_ms": typical_worst(latencies) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - failed / attempted,
    }
    outcome.details = {
        "repeats": len(passes),
        "latency_samples": sum(len(samples) for samples in latencies),
        "unit": unit,
    }
    return outcome


def per_layer(
    tracer: Tracer,
    untraced: ServePass,
    traced: ServePass,
    counts: dict[str, float],
) -> Outcome:
    values = layer_values(tracer, "serve.run", untraced.wall)
    # Both passes' times, converted the way each pass converts its own.
    values["trace.wall_ratio"] = traced.wall / untraced.wall
    values.update(counts)
    stats = traced.stats
    values["snapshot.renders"] = traced.renders
    values["snapshot.svg_bytes"] = len(traced.picture_body)
    values["snapshot.hit_ratio"] = (
        1.0 - traced.renders / stats.picture_requests
        if stats.picture_requests
        else 0.0
    )
    values["http.bytes_out"] = stats.bytes_in
    values["http.request_p99_ms"] = (
        percentile([latency for _, latency in stats.latencies], 0.99)
        * 1000.0
    )
    if stats.picture_200_latency:
        values["http.picture_200_p50_ms"] = (
            percentile(stats.picture_200_latency, 0.5) * 1000.0
        )
    values["events.published"] = traced.published
    values["events.delivered"] = len(traced.frames)
    values["checkpoint.count"] = tracer.count("checkpoint.save")
    values["loadgen.late_max_ms"] = stats.late_max * 1000.0
    values["loadgen.latency_samples"] = len(stats.latencies)
    outcome = Outcome(
        values=values,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        tracer=tracer,
    )
    outcome.details = {"latency_samples": len(stats.latencies)}
    return outcome


# -- serve_live -------------------------------------------------------------


@dataclass
class LiveInputs:
    source: SyntheticSource
    meter: Meter
    workdir: Path
    #: Calibrated seconds the paced stream lasts; the poller stops
    #: with it.
    duration: float
    #: Calibrated seconds per wall second for the live passes.
    #: ``run_serve`` paces its feeder on the wall clock and the bench
    #: cannot move that, so the calibrated schedule is converted to a
    #: wall schedule once, at the mean speed over the reference feed
    #: that precedes the passes; a pass's elapsed time converts back
    #: at the same rate.
    speed: float = 1.0




async def live_untraced(inputs: LiveInputs) -> ServePass:
    meter = inputs.meter
    root = fresh_dir(inputs.workdir / "serve-untraced")
    stats = ClientStats(meter.now())
    clients: list[asyncio.Task] = []
    apps: list[ServeApp] = []
    speed = inputs.speed

    def on_started(app: ServeApp) -> None:
        apps.append(app)
        clients.append(asyncio.ensure_future(subscribe(app.server.port)))
        clients.append(
            asyncio.ensure_future(
                poll(
                    app.server.port,
                    meter,
                    int(inputs.duration * POLL_RATE),
                    speed,
                    stats,
                )
            )
        )

    gc.collect()
    with Lap(meter) as lap:
        result = await run_serve(
            inputs.source,
            serve_config(LIVE_PACE * speed),
            shards=SHARDS,
            checkpoint_root=root,
            linger=LINGER,
            on_started=on_started,
        )
    frames, _ = await asyncio.gather(*clients)
    await settle()
    snapshot = apps[0].hub.current()
    require(snapshot is not None, "run_serve left no final picture")
    return ServePass(
        wall=lap.wall * speed,
        cpu=lap.cpu,
        events=result.events,
        stats=stats,
        renders=result.renders,
        published=result.published,
        frames=frames,
        picture_body=snapshot.body,
        checkpoint_root=root,
    )


async def live_traced(
    inputs: LiveInputs, tracer: Tracer, counts: dict[str, float]
) -> ServePass:
    """``run_serve``'s loop, rebuilt so each layer call is a span."""
    meter, source = inputs.meter, inputs.source
    speed = inputs.speed
    config = serve_config(LIVE_PACE * speed)
    root = fresh_dir(inputs.workdir / "serve-traced")
    shard_set = ShardSet(
        source, config, shards=SHARDS, checkpoint_root=root
    )
    instrument_shard_set(tracer, shard_set)
    hub = SnapshotHub(shard_set)
    tracer.wrap(hub, "render", "snapshot.render")
    feed = TransitionFeed()
    tracer.wrap(feed, "publish_all", "events.publish")
    app = TracedApp(hub, feed, tracer)
    stats = ClientStats(meter.now())
    buffered_max = routes_max = 0
    loop = asyncio.get_running_loop()

    gc.collect()
    with Lap(meter) as lap, tracer.span("serve.run"):
        port = await app.start()
        clients = [
            asyncio.ensure_future(subscribe(port)),
            asyncio.ensure_future(
                poll(
                    port,
                    meter,
                    int(inputs.duration * POLL_RATE),
                    speed,
                    stats,
                    tracer,
                )
            ),
        ]
        anchor_ts: Optional[float] = None
        anchor_clock = 0.0
        since_yield = 0
        try:
            for event in source.events():
                if anchor_ts is None:
                    anchor_ts = event.timestamp
                    anchor_clock = loop.time()
                else:
                    due = (
                        anchor_clock
                        + (event.timestamp - anchor_ts) / config.pace
                    )
                    delay = due - loop.time()
                    if delay > 0:
                        wait = tracer.begin("loadgen.wait")
                        await asyncio.sleep(delay)
                        tracer.end(wait)
                entries = shard_set.offer(event)
                if entries:
                    feed.publish_all(entries)
                since_yield += 1
                if since_yield >= config.batch_size:
                    since_yield = 0
                    for shard in shard_set._shards:
                        buffered_max = max(
                            buffered_max, shard.live_window.buffered
                        )
                        routes_max = max(
                            routes_max, shard.live_tamp.tamp.route_count()
                        )
                    await asyncio.sleep(0)
            feed.publish_all(shard_set.finish())
            final = await hub.snapshot()
            wait = tracer.begin("loadgen.wait")
            await asyncio.sleep(LINGER)
            tracer.end(wait)
        finally:
            feed.close()
            await app.close()
        frames, _ = await asyncio.gather(*clients)
    await settle()

    counts["windows.buffered_max"] = buffered_max
    counts["tamp.routes_max"] = routes_max
    counts["windows.closes"] = tracer.count("windows.close")
    counts["checkpoint.bytes_last"] = sum(
        len(latest_checkpoint_text(shard_dir(root, k)).encode("utf-8"))
        for k in range(SHARDS)
    )
    after_pass(shard_set, meter, tracer, counts)
    done = ServePass(
        wall=lap.wall * speed,
        cpu=lap.cpu,
        events=shard_set.events_offered,
        stats=stats,
        renders=hub.renders,
        published=feed.published,
        frames=frames,
        picture_body=final.body,
        checkpoint_root=root,
    )
    shard_set.close()
    return done


def run_live(
    seed: int, seconds: float, trace: bool, workdir: Path
) -> Outcome:
    meter = Meter()
    if trace:
        seconds = seconds / 2  # two paced passes share the run
    inputs, setup_s = timed_setups(
        meter,
        lambda: LiveInputs(
            make_source(seconds * LIVE_PACE, seed), meter, workdir, seconds
        ),
    )
    reference_body, inputs.speed = one_shard_body(inputs.source, meter)
    untraced = asyncio.run(live_untraced(inputs))
    check_pass(untraced, reference_body)
    if not trace:
        return end_to_end([untraced], [untraced.events], setup_s, "events")
    tracer = Tracer(meter.now)
    counts: dict[str, float] = {}
    traced = asyncio.run(live_traced(inputs, tracer, counts))
    check_pass(traced, reference_body)
    check_same(untraced, traced)
    return per_layer(tracer, untraced, traced, counts)


# -- serve_reads ------------------------------------------------------------


@dataclass
class ReadsInputs:
    source: SyntheticSource
    shard_set: ShardSet
    meter: Meter
    #: One request-kind list per connection, drawn from the seed.
    plans: list[list[str]]


def build_reads(seed: int, scale: float, meter: Meter) -> ReadsInputs:
    source = make_source(PREFEED_TIMERANGE * scale, seed)
    shard_set = ShardSet(source, serve_config(), shards=SHARDS)
    for event in source.events():
        meter.tick()
        shard_set.offer(event)
    shard_set.finish()
    rng = random.Random(seed)
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    per_connection = max(
        BURST, round(REQUESTS_PER_REPEAT * scale / CONNECTIONS)
    )
    plans = [
        rng.choices(kinds, weights, k=per_connection)
        for _ in range(CONNECTIONS)
    ]
    for plan in plans:
        # However small the scale, the gate gets a full body to check.
        plan[0] = "picture_200"
    return ReadsInputs(source, shard_set, meter, plans)


async def reads_pass(
    inputs: ReadsInputs,
    seconds: float,
    tracer: Optional[Tracer],
    counts: dict[str, float],
) -> list[ServePass]:
    """Repeats of the request plan until *seconds* of wall have passed.

    With a tracer: one untraced repeat on a plain app, then one traced
    repeat on a :class:`TracedApp`, both returned.
    """
    meter, shard_set = inputs.meter, inputs.shard_set
    passes: list[ServePass] = []

    async def repeat(app: ServeApp, port: int, etag: str, traced: bool):
        stats = ClientStats(meter.now())
        root = tracer.span("serve.run") if traced else nullcontext()
        gc.collect()
        with Lap(meter) as lap, root:
            await asyncio.gather(
                *(
                    read_bursts(
                        port,
                        meter,
                        plan,
                        etag,
                        stats,
                        tracer if traced else None,
                    )
                    for plan in inputs.plans
                )
            )
        snapshot = app.hub.current()
        passes.append(
            ServePass(
                wall=lap.seconds,
                cpu=lap.cpu,
                events=shard_set.events_offered,
                stats=stats,
                renders=app.hub.renders,
                published=0,
                frames=[],
                picture_body=snapshot.body,
            )
        )

    app = ServeApp(SnapshotHub(shard_set), TransitionFeed())
    port = await app.start()
    try:
        etag = (await app.hub.snapshot()).etag  # the one render
        deadline = time.perf_counter() + seconds
        while not passes or (
            tracer is None and time.perf_counter() < deadline
        ):
            await repeat(app, port, etag, traced=False)
    finally:
        await app.close()
        await settle()
    if tracer is None:
        return passes

    instrument_shard_set(tracer, shard_set)
    hub = SnapshotHub(shard_set)
    tracer.wrap(hub, "render", "snapshot.render")
    traced_app = TracedApp(hub, TransitionFeed(), tracer)
    port = await traced_app.start()
    try:
        etag = (await hub.snapshot()).etag
        del tracer.spans[:]  # the warm-up render is outside the pass
        await repeat(traced_app, port, etag, traced=True)
        counts["http.roundtrip_304_s"] = await socket_probe(
            port, meter, etag, tracer
        )
    finally:
        await traced_app.close()
        await settle()
    return passes


def run_reads(
    seed: int, seconds: float, scale: float, trace: bool
) -> Outcome:
    meter = Meter()
    inputs, setup_s = timed_setups(
        meter, lambda: build_reads(seed, scale, meter)
    )
    tracer = Tracer(meter.now) if trace else None
    counts: dict[str, float] = {}
    try:
        passes = asyncio.run(reads_pass(inputs, seconds, tracer, counts))
        reference_body, _ = one_shard_body(inputs.source, meter)
        for done in passes:
            check_pass(done, reference_body)
            require(
                done.stats.picture_body == reference_body,
                "an unconditional /picture.svg body was not the picture",
            )
            require(
                done.renders == 1,
                f"{done.renders} renders on a read-only workload",
            )
        if tracer is None:
            requests = [done.stats.attempted for done in passes]
            return end_to_end(passes, requests, setup_s, "requests")
        untraced, traced = passes
        check_same(untraced, traced)
        after_pass(inputs.shard_set, meter, tracer, counts)
        return per_layer(tracer, untraced, traced, counts)
    finally:
        inputs.shard_set.close()


def run(
    name: str,
    *,
    seed: int,
    seconds: float,
    scale: float,
    trace: bool,
    workdir: Path,
) -> Outcome:
    if name == "serve_live":
        return run_live(seed, seconds, trace, workdir)
    return run_reads(seed, seconds, scale, trace)
