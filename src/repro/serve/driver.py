"""``run_serve``: one event loop feeding shards and serving requests.

The pipeline is cooperative, not threaded: the feeder coroutine pumps
shard batches synchronously and yields to the loop between batches,
so HTTP handlers always observe shard state at a batch boundary —
the property that makes the snapshot accessors lock-free. Pacing
(``--pace``) uses the monitor's
:class:`~repro.pipeline.sources.Pacer` on the loop's clock and awaits
``asyncio.sleep`` for each delay it reports.

After the stream ends the service keeps answering requests for
``linger`` seconds (CI smoke and the benchmark depend on this), then
closes the SSE streams and the listening socket.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.pipeline.metrics import MetricsRegistry
from repro.pipeline.monitor import MonitorConfig
from repro.pipeline.sources import Pacer, Source
from repro.serve.app import ServeApp
from repro.serve.events import TransitionFeed
from repro.serve.sharding import ShardSet
from repro.serve.snapshot import SnapshotHub
from repro.tamp.prune import DEFAULT_THRESHOLD


@dataclass
class ServeResult:
    """What one :func:`run_serve` call did."""

    events: int
    renders: int
    published: int
    port: int
    stopped: str
    status: dict[str, object]


async def run_serve(
    source: Source,
    config: MonitorConfig,
    *,
    shards: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_root: Optional[Path | str] = None,
    resume: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    registry: Optional[MetricsRegistry] = None,
    linger: float = 0.0,
    on_started: Optional[Callable[[ServeApp], None]] = None,
) -> ServeResult:
    """Serve *source* through *shards* pipelines until it ends."""
    shard_set = ShardSet(
        source,
        config,
        shards=shards,
        checkpoint_root=checkpoint_root,
        resume=resume,
    )
    hub = SnapshotHub(shard_set, threshold=threshold)
    feed = TransitionFeed()
    app = ServeApp(hub, feed, registry)
    bound = await app.start(host, port)
    if on_started is not None:
        on_started(app)

    stopped = "end"
    pacer = Pacer(config.pace, clock=asyncio.get_running_loop().time)
    since_yield = 0
    try:
        for event in source.events():
            delay = pacer.delay(event.timestamp)
            if delay > 0:
                await asyncio.sleep(delay)
            entries = shard_set.offer(event)
            if entries:
                feed.publish_all(entries)
            since_yield += 1
            if since_yield >= config.batch_size:
                since_yield = 0
                # Batch boundary: let queued requests run against a
                # consistent snapshot before the next pump.
                await asyncio.sleep(0)
            if (
                config.max_events is not None
                and shard_set.events_offered >= config.max_events
            ):
                stopped = "max_events"
                break
        if stopped == "end":
            feed.publish_all(shard_set.finish())
            await hub.snapshot()  # final picture, pre-rendered
        if linger > 0:
            await asyncio.sleep(linger)
    finally:
        await app.close()
        shard_set.close()
    return ServeResult(
        events=shard_set.events_offered,
        renders=hub.renders,
        published=feed.published,
        port=bound,
        stopped=stopped,
        status=shard_set.status(),
    )
