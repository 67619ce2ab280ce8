"""The multi-tenant read path: serve the picture, don't rebuild it.

``repro serve`` (DESIGN.md §13) layers an asyncio HTTP service over
N sharded monitor pipelines:

* :mod:`repro.serve.sharding` — :class:`ShardSet`, the fan-in over
  one monitor core per peer slice, whose merged picture is
  bit-identical to an unsharded run (the SRV001-sanctioned live-state
  layer).
* :mod:`repro.serve.snapshot` — render-once/serve-many picture cache
  keyed on pulse-counter versions, rendered once per version and
  answered from precomputed wire responses; the incident list beside
  it, built once per incident change.
* :mod:`repro.serve.events` — the SSE transition feed with
  ``Last-Event-ID`` replay.
* :mod:`repro.serve.http` — the dependency-free asyncio HTTP/1.1
  server (``bench``'s ``serve_reads`` and ``serve_live`` workloads
  drive it): one send per pipelined batch, capped pending replies.
* :mod:`repro.serve.app` — the route table; every handler reads
  through the snapshot surface only.
* :mod:`repro.serve.driver` — :func:`run_serve`, the cooperative
  feed-and-serve loop behind the CLI.
"""

from repro.serve.app import ServeApp, serve_metrics
from repro.serve.driver import ServeResult, run_serve
from repro.serve.events import TransitionFeed, format_sse
from repro.serve.http import (
    Handler,
    HandlerResult,
    HttpServer,
    Request,
    Response,
    StreamingResponse,
)
from repro.serve.sharding import ShardSet, shard_dir
from repro.serve.snapshot import (
    IncidentSnapshot,
    PictureSnapshot,
    SnapshotHub,
)

__all__ = [
    "Handler",
    "HandlerResult",
    "HttpServer",
    "IncidentSnapshot",
    "PictureSnapshot",
    "Request",
    "Response",
    "ServeApp",
    "ServeResult",
    "ShardSet",
    "SnapshotHub",
    "StreamingResponse",
    "TransitionFeed",
    "format_sse",
    "run_serve",
    "serve_metrics",
    "shard_dir",
]
