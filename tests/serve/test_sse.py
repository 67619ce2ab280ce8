"""SSE feed: framing, ring replay, Last-Event-ID over a real socket.

What the frames carry, and that each move is published once, is
``test_transitions``'s subject.
"""

import asyncio

from repro.serve import (
    ServeApp,
    ShardSet,
    SnapshotHub,
    TransitionFeed,
    format_sse,
)
from tests.pipeline.conftest import small_source
from tests.serve.conftest import serve_config


class TestFraming:
    def test_frame_shape(self):
        frame = format_sse(3, {"to": "open", "incident": 1})
        assert frame == (
            b"id: 3\nevent: incident\n"
            b'data: {"incident": 1, "to": "open"}\n\n'
        )


class TestRing:
    def test_ids_are_monotonic_and_replay_is_a_suffix(self):
        feed = TransitionFeed(capacity=4)
        ids = [feed.publish({"n": n}) for n in range(10)]
        assert ids == list(range(1, 11))
        assert feed.last_id == 10
        # Bounded ring: only the last 4 frames survive.
        assert feed.replay_since(0) == [
            format_sse(i, {"n": i - 1}) for i in range(7, 11)
        ]
        assert feed.replay_since(8) == [
            format_sse(9, {"n": 8}),
            format_sse(10, {"n": 9}),
        ]
        assert feed.replay_since(10) == []

    def test_subscribers_get_live_frames_and_the_close_sentinel(self):
        async def main():
            feed = TransitionFeed()
            queue = feed.subscribe()
            feed.publish({"a": 1})
            assert (await queue.get()) == format_sse(1, {"a": 1})
            feed.close()
            assert (await queue.get()) is None
            feed.unsubscribe(queue)
            feed.publish({"a": 2})  # no queue to fill now
            assert feed.published == 2

        asyncio.run(main())


class TestLastEventIdReplay:
    def test_reconnect_receives_exactly_the_missed_suffix(self):
        async def main():
            shard_set = ShardSet(small_source(), serve_config())
            hub = SnapshotHub(shard_set)
            feed = TransitionFeed()
            app = ServeApp(hub, feed)
            port = await app.start()
            for n in range(5):
                feed.publish({"n": n})

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                b"GET /events HTTP/1.1\r\nHost: x\r\n"
                b"Last-Event-ID: 2\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"200 OK" in head
            assert b"text/event-stream" in head

            async def next_frame() -> bytes:
                return await asyncio.wait_for(
                    reader.readuntil(b"\n\n"), timeout=10.0
                )

            assert (await next_frame()) == b"retry: 2000\n\n"
            for expect in (3, 4, 5):
                frame = await next_frame()
                assert frame == format_sse(expect, {"n": expect - 1})
            # A live publish reaches the open stream.
            feed.publish({"n": 5})
            assert (await next_frame()) == format_sse(6, {"n": 5})

            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            feed.close()
            await app.close()
            shard_set.close()

        asyncio.run(main())

    def test_fresh_client_gets_the_whole_ring(self):
        async def main():
            shard_set = ShardSet(small_source(), serve_config())
            hub = SnapshotHub(shard_set)
            feed = TransitionFeed()
            app = ServeApp(hub, feed)
            port = await app.start()
            feed.publish({"n": 0})
            feed.publish({"n": 1})

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            burst = await asyncio.wait_for(
                reader.readuntil(format_sse(2, {"n": 1})), timeout=10.0
            )
            assert format_sse(1, {"n": 0}) in burst

            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            feed.close()
            await app.close()
            shard_set.close()

        asyncio.run(main())
