"""Build ``/incidents`` once per incident change, serve it many times.

What is served must equal what a fresh merge-and-encode would give, at
every state a shard set can reach, and the snapshot may be rebuilt
only when :meth:`ShardSet.incident_version` moved.
"""

import asyncio
import json
import tempfile
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incidents.feed import load_export_rows, load_incident_rows
from repro.incidents.lifecycle import IncidentStatus
from repro.pipeline.sources import shard_for_peer
from repro.serve import (
    Request,
    Response,
    ServeApp,
    ShardSet,
    SnapshotHub,
    TransitionFeed,
    shard_dir,
)
from tests.serve.conftest import (
    even_odd_events,
    even_odd_source,
    serve_config,
)

EVENTS = even_odd_events()

STEPS = st.one_of(
    st.tuples(st.just("offer"), st.sampled_from([1, 40, 64, 150, 400])),
    st.tuples(st.just("flush"), st.just(0)),
    st.tuples(st.just("finish"), st.just(0)),
    st.tuples(st.just("kill"), st.integers(0, 1)),
    st.tuples(st.just("resume"), st.integers(0, 1)),
)


def get(target: str, **headers: str) -> Request:
    path, _, query = target.partition("?")
    return Request("GET", path, query, headers)


async def fetch(app: ServeApp, target: str, **headers: str):
    """(status, body) of *target*, straight from its handler."""
    handler = (
        app.incidents
        if target.partition("?")[0] == "/incidents"
        else app.incident
    )
    result = await handler(get(target, **headers))
    if isinstance(result, Response):
        result = result.encode()
    head, _, body = result.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def encoded(value: object) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


class Served:
    """A shard set behind an app, and what its reads must satisfy."""

    def __init__(self, root: Optional[str]) -> None:
        self.root = root
        self.shard_set = ShardSet(
            even_odd_source(),
            serve_config(),
            shards=2,
            checkpoint_root=root,
        )
        self.hub = SnapshotHub(self.shard_set)
        self.app = ServeApp(self.hub, TransitionFeed())
        self.key: Optional[tuple] = None
        self.builds = 0
        self.at = 0

    def offer(self, count: int, only_shard: Optional[int] = None) -> None:
        for event in EVENTS[self.at:self.at + count]:
            if only_shard in (None, shard_for_peer(event.peer, 2)):
                self.shard_set.offer(event)
        self.at = min(len(EVENTS), self.at + count)

    async def read(self) -> list[dict[str, object]]:
        """Every incident route against a fresh merge; the fresh rows."""
        shard_set, app = self.shard_set, self.app
        key = shard_set.incident_version()
        if key != self.key:
            self.key = key
            self.builds += 1
        fresh = shard_set.incident_rows()
        for k, alive in enumerate(shard_set.alive()):
            if not alive:
                # Not through the set's own once-per-death cache.
                assert self.root is not None
                assert [row for row in fresh if row["shard"] == k] == [
                    dict(record.to_dict(), shard=k)
                    for record in load_incident_rows(
                        shard_dir(self.root, k)
                    )
                ]
        assert await fetch(app, "/incidents") == (
            200,
            encoded({"incidents": fresh}),
        )
        for status in IncidentStatus:
            assert await fetch(
                app, f"/incidents?status={status.value}"
            ) == (
                200,
                encoded(
                    {
                        "incidents": [
                            row
                            for row in fresh
                            if row["status"] == status.value
                        ]
                    }
                ),
            )
        first: dict[object, dict[str, object]] = {}
        for row in fresh:
            first.setdefault(row["id"], row)
            assert await fetch(
                app, f"/incidents/{row['id']}?shard={row['shard']}"
            ) == (200, encoded(row))
        for incident_id, row in first.items():
            assert await fetch(app, f"/incidents/{incident_id}") == (
                200,
                encoded(row),
            )
        assert (await fetch(app, "/incidents/999999"))[0] == 404
        assert self.hub.incident_builds == self.builds
        return fresh

    def close(self) -> None:
        self.shard_set.close()


class TestSchedules:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(STEPS, st.booleans()), max_size=12))
    def test_reads_equal_a_fresh_merge_after_any_schedule(self, schedule):
        """offer / flush / finish / kill / resume, a read after some."""

        async def main(served: Served) -> None:
            shard_set = served.shard_set
            for (step, argument), read_after in schedule:
                if step == "offer":
                    served.offer(argument)
                elif step == "flush":
                    shard_set.flush()
                elif step == "finish":
                    shard_set.finish()
                elif step == "kill":
                    shard_set.kill(argument)
                elif not shard_set.alive()[argument]:
                    shard_set.resume(argument)
                if read_after:
                    await served.read()
            await served.read()

        with tempfile.TemporaryDirectory() as root:
            served = Served(root)
            try:
                asyncio.run(main(served))
            finally:
                served.close()


class TestWhyNotThePictureKey:
    """States where ``ShardSet.version()`` stands still and rows move."""

    def test_finish_that_closes_no_window_is_not_served_stale(self):
        """``finalize()`` resolves what is live; no counter sees it.

        Today the window stage always still holds the event that ended
        a quiet gap, so ``finish()`` closes one more window as well
        and ``version()`` happens to move. Here the final flush finds
        nothing to close (rebound on the instance, as instrumentation
        may): the incident key must not lean on that coincidence.
        """
        served = Served(None)

        async def main() -> None:
            shard_set = served.shard_set
            served.offer(len(EVENTS))
            shard_set.flush()
            before = await served.read()
            assert {row["status"] for row in before} != {"resolved"}
            for shard in shard_set._shards:
                shard.live_window.flush = lambda: []
            version = shard_set.version()
            shard_set.finish()
            assert shard_set.version() == version
            after = await served.read()
            assert {row["status"] for row in after} == {"resolved"}
            assert served.builds == 2

        asyncio.run(main())
        served.close()

    def test_second_death_does_not_bring_back_the_first_deaths_rows(
        self, tmp_path
    ):
        """kill, read, resume, feed, kill — and no read in between."""
        served = Served(str(tmp_path))

        async def main() -> None:
            shard_set = served.shard_set
            served.offer(len(EVENTS) // 2)
            shard_set.kill(1)
            version = shard_set.version()
            first_death = await served.read()
            shard_set.resume(1)
            # Shard 1's events only: shard 0 stays where it was, so
            # nothing but the death count tells the two deaths apart.
            served.offer(len(EVENTS), only_shard=1)
            shard_set.kill(1)
            assert shard_set.version() == version
            second_death = await served.read()
            assert second_death != first_death
            assert served.builds == 2

        asyncio.run(main())
        served.close()

    def test_dead_rows_are_read_once_per_death(self, tmp_path, monkeypatch):
        import repro.serve.sharding as sharding

        reads = []

        def counting(directory):
            reads.append(directory)
            return load_export_rows(directory)

        monkeypatch.setattr(sharding, "load_export_rows", counting)
        served = Served(str(tmp_path))
        shard_set = served.shard_set
        served.offer(len(EVENTS) // 2, only_shard=1)
        shard_set.kill(1)
        dead = shard_set.incident_rows()
        # Shard 0 moves on: rebuilds, but nothing new to read for 1.
        served.offer(len(EVENTS))
        assert [
            row for row in shard_set.incident_rows() if row["shard"] == 1
        ] == [row for row in dead if row["shard"] == 1]
        assert len(reads) == 1
        shard_set.resume(1)
        shard_set.kill(1)
        shard_set.incident_rows()
        assert len(reads) == 2
        served.close()


class TestConditionalReads:
    def test_304_until_the_rows_change_then_200(self):
        served = Served(None)

        async def main() -> None:
            app = served.app
            served.offer(len(EVENTS) // 2)
            result = await app.incidents(get("/incidents"))
            etag = served.hub.incidents().etag
            assert f"ETag: {etag}\r\n".encode() in result
            validator = {"if-none-match": etag}
            for _ in range(3):
                assert await fetch(app, "/incidents", **validator) == (
                    304,
                    b"",
                )
            assert served.hub.incident_builds == 1
            served.offer(len(EVENTS))
            served.shard_set.finish()
            status, body = await fetch(app, "/incidents", **validator)
            assert status == 200
            assert body == encoded(
                {"incidents": served.shard_set.incident_rows()}
            )
            assert served.hub.incidents().etag != etag

        asyncio.run(main())
        served.close()

    def test_garbage_status_values_do_not_grow_the_snapshot(self):
        served = Served(None)

        async def main() -> None:
            served.offer(len(EVENTS))
            nothing = encoded({"incidents": []})
            for n in range(1000):
                assert await fetch(
                    served.app, f"/incidents?status=garbage-{n}"
                ) == (200, nothing)
            for status in IncidentStatus:
                await fetch(
                    served.app, f"/incidents?status={status.value}"
                )
            snapshot = served.hub.incidents()
            assert len(snapshot.listings) <= len(IncidentStatus) + 1
            assert served.hub.incident_builds == 1

        asyncio.run(main())
        served.close()
