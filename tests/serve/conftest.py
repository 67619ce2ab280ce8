"""Shared serve-layer test helpers.

The serve loop is cooperative on a single event loop, so test clients
must be non-blocking: a blocking ``urllib`` call issued from inside
the loop would deadlock the very server it queries. ``http_get`` is
the minimal asyncio client the tests here use; pytest has no asyncio
plugin in this environment, so each test wraps its coroutine body in
``asyncio.run``.
"""

import asyncio
import dataclasses
import functools
from typing import Optional

from repro.collector.events import BGPEvent
from repro.collector.stream import EventStream
from repro.pipeline.monitor import MonitorConfig
from repro.pipeline.sources import StreamSource
from tests.pipeline.conftest import small_source


def serve_config(**overrides) -> MonitorConfig:
    """The config every serve test runs: small sliding windows."""
    params = dict(
        window=120.0, slide=60.0, batch_size=64, checkpoint_every=1
    )
    params.update(overrides)
    return MonitorConfig(**params)


@functools.cache
def even_odd_events() -> tuple[BGPEvent, ...]:
    """``small_source()``'s events with both peer parities present.

    Synthetic peer addresses all end in ``.1``, so two shards put
    every one of them on shard 1; dropping the low byte spreads them.
    """
    return tuple(
        dataclasses.replace(event, peer=event.peer >> 8)
        for event in small_source().events()
    )


def even_odd_source() -> StreamSource:
    """A fresh source over :func:`even_odd_events`."""
    return StreamSource(EventStream(even_odd_events()), "even-odd")


async def read_reply(
    reader: asyncio.StreamReader, head_only: bool = False
) -> bytes:
    """One reply's raw bytes; *head_only* for the answer to a HEAD."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    if head_only:
        return head
    return head + await reader.readexactly(length)


async def http_get(
    port: int,
    path: str,
    headers: Optional[dict[str, str]] = None,
    host: str = "127.0.0.1",
) -> tuple[int, dict[str, str], bytes]:
    """GET *path*; returns (status, lower-cased headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"GET {path} HTTP/1.1", f"Host: {host}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=30.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    parsed: dict[str, str] = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, body
