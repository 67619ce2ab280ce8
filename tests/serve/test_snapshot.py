"""Render-once/serve-many: cache keying, single-flight, ETags."""

import asyncio

from repro.serve import ShardSet, SnapshotHub
from repro.serve.snapshot import PictureSnapshot
from tests.pipeline.conftest import small_source
from tests.serve.conftest import serve_config


def fed_set(shards: int = 2) -> ShardSet:
    shard_set = ShardSet(small_source(), serve_config(), shards=shards)
    for event in small_source().events():
        shard_set.offer(event)
    shard_set.finish()
    return shard_set


class TestWireSnapshots:
    def test_etag_is_content_derived(self):
        a = PictureSnapshot.build((1,), "<svg/>")
        b = PictureSnapshot.build((2,), "<svg/>")
        c = PictureSnapshot.build((3,), "<svg >x</svg>")
        # Identical bytes legitimately share an ETag (a 304 against
        # either is byte-correct); different bytes never do.
        assert a.etag == b.etag
        assert a.etag != c.etag
        assert a.etag.startswith('"') and a.etag.endswith('"')

    def test_wire_responses_are_prebuilt(self):
        snap = PictureSnapshot.build((1,), "<svg/>")
        wire = snap.wire
        assert wire.response_200.startswith(b"HTTP/1.1 200 OK\r\n")
        assert wire.response_200.endswith(snap.body)
        assert f"ETag: {snap.etag}".encode() in wire.response_200
        assert (
            f"Content-Length: {len(snap.body)}".encode()
            in wire.response_200
        )
        assert wire.response_304.startswith(
            b"HTTP/1.1 304 Not Modified\r\n"
        )
        assert snap.etag.encode() in wire.response_304
        assert wire.answer(snap.etag) is wire.response_304
        assert wire.answer('"other"') is wire.response_200


class TestCacheKeying:
    def test_renders_once_per_window_advance(self):
        """The tentpole invariant: repeat requests are dict compares."""
        shard_set = ShardSet(
            small_source(), serve_config(), shards=2
        )
        hub = SnapshotHub(shard_set)
        events = list(small_source().events())
        half = len(events) // 2
        for event in events[:half]:
            shard_set.offer(event)
        shard_set.flush()

        async def main():
            first = await hub.snapshot()
            assert hub.renders == 1
            for _ in range(100):
                assert (await hub.snapshot()) is first
            assert hub.renders == 1

            for event in events[half:]:
                shard_set.offer(event)
            shard_set.finish()
            second = await hub.snapshot()
            assert hub.renders == 2
            assert second.version != first.version
            # More traffic changed the picture, so the old ETag can
            # never validate against the newer pulse count.
            assert second.body != first.body
            assert second.etag != first.etag

        asyncio.run(main())
        shard_set.close()

    def test_concurrent_first_render_is_single_flight(self):
        shard_set = fed_set()
        hub = SnapshotHub(shard_set)

        async def main():
            snaps = await asyncio.gather(
                *(hub.snapshot() for _ in range(32))
            )
            assert hub.renders == 1
            assert all(snap is snaps[0] for snap in snaps)

        asyncio.run(main())
        shard_set.close()

    def test_snapshot_finishes_on_its_first_step(self):
        """Why a pileup needs no lock: ``snapshot()`` never suspends,
        on a miss or on a hit, so no request can run inside another's
        render."""
        shard_set = fed_set()
        hub = SnapshotHub(shard_set)

        def first_step(coro):
            try:
                coro.send(None)
            except StopIteration as done:
                return done.value
            coro.close()
            raise AssertionError("snapshot() suspended")

        miss = first_step(hub.snapshot())
        assert hub.renders == 1
        assert first_step(hub.snapshot()) is miss
        assert hub.renders == 1
        shard_set.close()

    def test_dead_shard_gets_its_own_version(self):
        """A degraded picture never shares a cache key with a full one."""
        shard_set = fed_set()
        full = shard_set.version()
        shard_set.kill(1)
        degraded = shard_set.version()
        assert degraded != full
        assert degraded[1] == ("dead", 1)
        assert shard_set.alive() == (True, False)
        shard_set.close()
