"""End-to-end route behavior over a real socket."""

import asyncio
import json

from repro.serve import (
    ServeApp,
    ShardSet,
    SnapshotHub,
    TransitionFeed,
    run_serve,
)
from tests.pipeline.conftest import small_source
from tests.serve.conftest import http_get, serve_config


def build_app(shards: int = 2):
    shard_set = ShardSet(small_source(), serve_config(), shards=shards)
    hub = SnapshotHub(shard_set)
    feed = TransitionFeed()
    return shard_set, hub, feed, ServeApp(hub, feed)


class TestPictureRoute:
    def test_conditional_flow_across_a_window_advance(self):
        """200 with body, then 304, then a fresh 200 after new data."""
        shard_set, hub, feed, app = build_app()
        events = list(small_source().events())
        half = len(events) // 2

        async def main():
            port = await app.start()
            for event in events[:half]:
                shard_set.offer(event)
            shard_set.flush()

            status, headers, body = await http_get(
                port, "/picture.svg"
            )
            assert status == 200
            assert headers["content-type"] == "image/svg+xml"
            assert int(headers["content-length"]) == len(body)
            assert body.startswith(b"<?xml") or body.startswith(b"<svg")
            etag = headers["etag"]

            status, headers2, body2 = await http_get(
                port, "/picture.svg", headers={"If-None-Match": etag}
            )
            assert status == 304
            assert body2 == b""
            assert headers2["etag"] == etag
            assert hub.renders == 1

            for event in events[half:]:
                shard_set.offer(event)
            shard_set.finish()

            # The stale ETag must not validate against the new window.
            status, headers3, body3 = await http_get(
                port, "/picture.svg", headers={"If-None-Match": etag}
            )
            assert status == 200
            assert headers3["etag"] != etag
            assert body3 != body
            assert hub.renders == 2
            await app.close()

        asyncio.run(main())
        shard_set.close()


class TestJsonRoutes:
    def test_incidents_metrics_status_and_errors(self):
        shard_set, hub, feed, app = build_app()
        for event in small_source().events():
            entries = shard_set.offer(event)
            feed.publish_all(entries)
        feed.publish_all(shard_set.finish())

        async def main():
            port = await app.start()

            status, headers, body = await http_get(port, "/incidents")
            assert status == 200
            assert headers["content-type"] == "application/json"
            incident_etag = headers["etag"]
            rows = json.loads(body)["incidents"]
            assert rows
            statuses = {row["status"] for row in rows}
            pick = rows[0]["status"]
            status, _, body = await http_get(
                port, f"/incidents?status={pick}"
            )
            filtered = json.loads(body)["incidents"]
            assert filtered
            assert {row["status"] for row in filtered} == {pick}
            assert statuses >= {pick}

            status, _, body = await http_get(
                port,
                f"/incidents/{rows[0]['id']}?shard={rows[0]['shard']}",
            )
            assert status == 200
            assert json.loads(body)["id"] == rows[0]["id"]
            status, _, _ = await http_get(port, "/incidents/999999")
            assert status == 404
            status, _, _ = await http_get(port, "/incidents/nope")
            assert status == 404

            await http_get(port, "/picture.svg")  # force one render
            status, _, body = await http_get(port, "/metrics")
            assert status == 200
            text = body.decode()
            assert "repro_serve_requests_total_picture 1" in text
            assert "repro_serve_picture_renders_total 1" in text
            # Every /incidents and /incidents/<id> above: one build.
            assert "repro_serve_incident_builds_total 1" in text
            assert "repro_serve_requests_total_incidents 2" in text
            assert "repro_serve_shards_alive 2" in text
            status, _, body = await http_get(port, "/metrics.json")
            data = json.loads(body)
            assert data["repro_serve_events_offered_total"] == 1600

            status, _, body = await http_get(port, "/status")
            info = json.loads(body)
            assert info["alive"] == [True, True]
            assert info["renders"] == 1
            assert info["incident_builds"] == 1
            assert info["incident_etag"] == incident_etag
            assert info["events_offered"] == 1600
            assert len(info["version"]) == 2

            status, _, body = await http_get(port, "/healthz")
            assert (status, body) == (200, b"ok")
            status, _, _ = await http_get(port, "/nope")
            assert status == 404

            # Non-GET methods are refused.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                b"POST /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            assert raw.startswith(b"HTTP/1.1 405")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

            await app.close()

        asyncio.run(main())
        shard_set.close()


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self):
        shard_set, hub, feed, app = build_app()
        for event in small_source().events():
            shard_set.offer(event)
        shard_set.finish()

        async def main():
            port = await app.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            for _ in range(5):
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"200 OK" in head
                assert (await reader.readexactly(2)) == b"ok"
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            await app.close()

        asyncio.run(main())
        shard_set.close()


class TestRunServe:
    def test_driver_feeds_and_serves_on_one_loop(self):
        async def main():
            started = asyncio.Event()
            box: dict[str, object] = {}

            def on_started(app: ServeApp) -> None:
                box["port"] = app.server.port
                started.set()

            async def client() -> None:
                # Runs while the feeder is still pumping events: the
                # cooperative loop answers between batches.
                await started.wait()
                port = box["port"]
                status, headers, _ = await http_get(
                    port, "/picture.svg"
                )
                assert status == 200
                assert headers["etag"]
                status, _, body = await http_get(port, "/healthz")
                assert (status, body) == (200, b"ok")

            serve = asyncio.create_task(
                run_serve(
                    small_source(),
                    serve_config(),
                    shards=2,
                    linger=1.5,
                    on_started=on_started,
                )
            )
            await client()
            result = await serve
            assert result.events == 1600
            assert result.renders >= 1
            assert result.stopped == "end"
            assert result.port == box["port"]
            assert result.status["alive"] == [True, True]

        asyncio.run(main())

    def test_a_stop_leaves_no_connection_for_the_loop_to_cancel(self):
        """An ``/events`` client still connected when ``run_serve``
        stops: the stop ends its connection, so the loop's shutdown
        cancels no task and logs nothing."""
        errors: list[dict] = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _, context: errors.append(context)
            )
            started = asyncio.Event()
            box: dict[str, int] = {}

            def on_started(app: ServeApp) -> None:
                box["port"] = app.server.port
                started.set()

            serve = asyncio.create_task(
                run_serve(
                    small_source(),
                    serve_config(),
                    shards=2,
                    linger=0.5,
                    on_started=on_started,
                )
            )
            await started.wait()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", box["port"]
            )
            writer.write(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            await serve
            # The client never closes: its end goes with the loop.
            writer.transport.abort()

        asyncio.run(main())
        assert errors == []
