"""``/status``: encoded once per state change, and never stale."""

import asyncio
import json
from types import SimpleNamespace

import repro.serve.app as app_module
from repro.serve import ServeApp, ShardSet, SnapshotHub, TransitionFeed
from repro.serve.http import Request, Response
from tests.serve.conftest import (
    even_odd_events,
    even_odd_source,
    read_reply,
    serve_config,
)


def fresh_body(app: ServeApp) -> dict:
    """The body built from scratch, as every request once built it."""
    snapshot = app.hub.current()
    incidents = app.hub.current_incidents()
    return {
        "version": [list(part) for part in app.shards.version()],
        "etag": None if snapshot is None else snapshot.etag,
        "renders": app.hub.renders,
        "incident_etag": None if incidents is None else incidents.etag,
        "incident_builds": app.hub.incident_builds,
        "sse_last_id": app.feed.last_id,
        **app.shards.status(),
    }


def held_body(app: ServeApp) -> dict:
    reply = asyncio.run(app.status(Request("GET", "/status", "", {})))
    if isinstance(reply, Response):
        reply = reply.encode()
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    return json.loads(body)


def build(tmp_path) -> ServeApp:
    shard_set = ShardSet(
        even_odd_source(),
        serve_config(),
        shards=2,
        checkpoint_root=tmp_path,
    )
    return ServeApp(SnapshotHub(shard_set), TransitionFeed())


def offsets(app: ServeApp) -> list:
    return [
        None if shard is None else shard["offset"]
        for shard in app.shards.status()["per_shard"]
    ]


class TestNeverStale:
    def test_every_kind_of_move_is_answered_fresh(self, tmp_path):
        app = build(tmp_path)
        shard_set, hub, feed = app.shards, app.hub, app.feed
        events = iter(even_odd_events())

        def offer_until(pumped: bool) -> None:
            before = offsets(app)
            shard_set.offer(next(events))
            while pumped and offsets(app) == before:
                shard_set.offer(next(events))
            assert (offsets(app) != before) == pumped

        moves = [
            ("offer, no pump", lambda: offer_until(False)),
            ("offer that pumps", lambda: offer_until(True)),
            ("offer, no pump", lambda: offer_until(False)),
            ("flush", shard_set.flush),
            ("picture render", lambda: asyncio.run(hub.snapshot())),
            ("unstored render", hub.render),
            ("incident build", hub.incidents),
            ("sse publish", lambda: feed.publish({"incident": 1})),
            ("offer, no pump", lambda: offer_until(False)),
            ("kill", lambda: shard_set.kill(1)),
            ("resume", lambda: shard_set.resume(1)),
            ("finish", shard_set.finish),
            ("picture render", lambda: asyncio.run(hub.snapshot())),
            ("incident build", hub.incidents),
        ]
        try:
            assert held_body(app) == fresh_body(app)
            for name, move in moves:
                before = fresh_body(app)
                move()
                after = fresh_body(app)
                assert after != before, f"{name} moved nothing"
                assert held_body(app) == after, name
                assert held_body(app) == after, name
        finally:
            shard_set.close()


class TestEncodedOnce:
    def test_an_idle_set_encodes_the_body_once(self, tmp_path, monkeypatch):
        app = build(tmp_path)
        for event in even_odd_events():
            app.feed.publish_all(app.shards.offer(event))
        app.feed.publish_all(app.shards.finish())
        encoded = []

        def dumps(value, **options):
            encoded.append(value)
            return json.dumps(value, **options)

        monkeypatch.setattr(app_module, "json", SimpleNamespace(dumps=dumps))

        async def main():
            port = await app.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"GET /status HTTP/1.1\r\n\r\n" * 50)
                writer.write(b"HEAD /status HTTP/1.1\r\n\r\n")
                replies = [await read_reply(reader) for _ in range(50)]
                head = await read_reply(reader, head_only=True)
                writer.close()
                await writer.wait_closed()
                return replies, head
            finally:
                await app.close()

        try:
            replies, head = asyncio.run(main())
        finally:
            app.shards.close()
        assert len(encoded) == 1
        assert set(replies) == {replies[0]}
        status, _, body = replies[0].partition(b"\r\n\r\n")
        assert json.loads(body) == fresh_body(app)
        assert head == status + b"\r\n\r\n"
