"""``/incidents`` serves the managers' row texts, and encodes nothing.

The served bytes must equal what encoding every row afresh gives — the
``to_dict()`` of each retained record (a dead slot's from its sqlite
store), tagged with its shard, through ``json.dumps`` — after every
kind of move a shard set makes. And a build costs only what changed:
no ``to_dict`` after folds that changed no record, one after a fold
that changed one, and a dead slot's rows read once per death.
"""

import asyncio
import json

import repro.incidents.manager as manager_module
import repro.serve.sharding as sharding
from repro.incidents.feed import load_export_rows, load_incident_rows
from repro.incidents.lifecycle import IncidentRecord, IncidentStatus
from repro.serve import IncidentSnapshot, ServeApp, ShardSet, shard_dir
from repro.serve.http import Request, Response
from tests.incidents.conftest import make_component, make_report
from tests.serve.conftest import (
    even_odd_events,
    even_odd_source,
    serve_config,
)
from tests.serve.test_status import build, offsets


def reference_rows(shard_set: ShardSet, root) -> list[dict[str, object]]:
    """Every row built from its record, as serving once built them."""
    rows = []
    for k, shard in enumerate(shard_set._shards):
        if shard is None:
            records = load_incident_rows(shard_dir(root, k))
        else:
            records = shard.live_manager.all_incidents()
        rows.extend(dict(record.to_dict(), shard=k) for record in records)
    return rows


def encoded(value: object) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def body(app: ServeApp, target: str) -> bytes:
    path, _, query = target.partition("?")
    handler = app.incidents if path == "/incidents" else app.incident
    reply = asyncio.run(handler(Request("GET", path, query, {})))
    if isinstance(reply, Response):
        reply = reply.encode()
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n"), (target, head)
    return payload


def assert_served_as_reference(app: ServeApp, root) -> None:
    rows = reference_rows(app.shards, root)
    assert body(app, "/incidents") == encoded({"incidents": rows})
    for status in IncidentStatus:
        assert body(app, f"/incidents?status={status.value}") == encoded(
            {"incidents": [r for r in rows if r["status"] == status.value]}
        )
    first: dict[object, dict[str, object]] = {}
    for row in rows:
        first.setdefault(row["id"], row)
        target = f"/incidents/{row['id']}?shard={row['shard']}"
        assert body(app, target) == encoded(row)
    for incident_id, row in first.items():
        assert body(app, f"/incidents/{incident_id}") == encoded(row)


class TestServedBytes:
    def test_every_kind_of_move_serves_the_reference(self, tmp_path):
        app = build(tmp_path)
        shard_set = app.shards
        events = iter(even_odd_events())

        def offer_until(pumped: bool) -> None:
            before = offsets(app)
            shard_set.offer(next(events))
            while pumped and offsets(app) == before:
                shard_set.offer(next(events))
            assert (offsets(app) != before) == pumped

        def offer_many(count: int) -> None:
            for _ in range(count):
                shard_set.offer(next(events))

        moves = [
            ("offer, no pump", lambda: offer_until(False)),
            ("offers that pump", lambda: offer_many(600)),
            ("offer that pumps", lambda: offer_until(True)),
            ("offer, no pump", lambda: offer_until(False)),
            ("flush", shard_set.flush),
            ("kill", lambda: shard_set.kill(1)),
            ("offers while dead", lambda: offer_many(300)),
            ("resume", lambda: shard_set.resume(1)),
            ("kill the other", lambda: shard_set.kill(0)),
            ("resume the other", lambda: shard_set.resume(0)),
            ("finish", shard_set.finish),
            ("kill after finish", lambda: shard_set.kill(1)),
        ]
        try:
            assert_served_as_reference(app, tmp_path)
            for name, move in moves:
                before = app.hub.incident_builds
                move()
                assert_served_as_reference(app, tmp_path)
                assert app.hub.incident_builds <= before + 1, name
            assert len(reference_rows(shard_set, tmp_path)) > 3
        finally:
            shard_set.close()


class Counts:
    """``to_dict`` calls, row encodes and sqlite reads, as they happen."""

    def __init__(self, monkeypatch) -> None:
        self.to_dict = 0
        self.encodes = 0
        self.reads = 0
        to_dict, dumps = IncidentRecord.to_dict, json.dumps

        def counting_to_dict(record):
            self.to_dict += 1
            return to_dict(record)

        def counting_dumps(value, **options):
            self.encodes += 1
            return dumps(value, **options)

        def counting_read(directory):
            self.reads += 1
            return load_export_rows(directory)

        monkeypatch.setattr(IncidentRecord, "to_dict", counting_to_dict)
        monkeypatch.setattr(
            manager_module,
            "dumps",
            lambda row: counting_dumps(row, sort_keys=True),
        )
        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(sharding, "load_export_rows", counting_read)

    def take(self) -> tuple[int, int, int]:
        taken = (self.to_dict, self.encodes, self.reads)
        self.to_dict = self.encodes = self.reads = 0
        return taken


def build_snapshot(shard_set: ShardSet) -> IncidentSnapshot:
    """What ``SnapshotHub.incidents()`` does on a miss."""
    return IncidentSnapshot(
        shard_set.incident_version(), shard_set.incident_rows()
    )


class TestBuildCounts:
    def test_a_build_costs_what_changed(self, tmp_path, monkeypatch):
        shard_set = ShardSet(
            even_odd_source(),
            serve_config(),
            shards=2,
            checkpoint_root=tmp_path,
        )
        events = even_odd_events()
        try:
            for event in events[: len(events) // 2]:
                shard_set.offer(event)
            shard_set.flush()
            build_snapshot(shard_set)
            counts = Counts(monkeypatch)
            manager = shard_set._shards[0].live_manager
            assert manager.all_incidents()

            # A fold that changes no record: nothing new at the last time.
            at = manager.last_time
            assert manager.ingest(make_report(900, at, [])) == []
            build_snapshot(shard_set)
            assert counts.take() == (0, 0, 0)
            build_snapshot(shard_set)
            assert counts.take() == (0, 0, 0)

            # A fold that changes one record: a stem never seen before.
            component = make_component(
                1, 64999, 64998, prefixes=("192.0.2.0/24",)
            )
            changed = manager.ingest(make_report(901, at, [component]))
            assert {entry["incident"] for entry in changed} == {
                manager.created_total
            }
            build_snapshot(shard_set)
            assert counts.take() == (1, 1, 0)

            # A dead slot: read once per death, never encoded.
            shard_set.kill(1)
            for _ in range(3):
                build_snapshot(shard_set)
            assert counts.take() == (0, 0, 1)
            shard_set.resume(1)
            counts.take()
            shard_set.kill(1)
            build_snapshot(shard_set)
            build_snapshot(shard_set)
            assert counts.take() == (0, 0, 1)
        finally:
            shard_set.close()


def status_of(app: ServeApp, path: str, query: str = "") -> int:
    reply = asyncio.run(app.incident(Request("GET", path, query, {})))
    if isinstance(reply, Response):
        return reply.status
    return int(reply.split(b" ", 2)[1])


class TestCanonicalIds:
    def test_only_the_canonical_spelling_names_an_incident(self, tmp_path):
        """One incident, one URL: an id or shard that ``int()`` would
        read but that is not the number's own decimal spelling is no
        incident's, so caches and logs never see aliases."""
        app = build(tmp_path)
        try:
            for event in even_odd_events():
                app.shards.offer(event)
            app.shards.flush()
            row = reference_rows(app.shards, tmp_path)[0]
            incident, shard = str(row["id"]), str(row["shard"])
            path = f"/incidents/{incident}"
            assert status_of(app, path) == 200
            assert status_of(app, path, f"shard={shard}") == 200
            for alias in (
                f"+{incident}",
                f"0{incident}",
                f" {incident}",
                f"{incident} ",
                f"{incident[:1]}_{incident[1:]}" if len(incident) > 1
                else f"0_{incident}",
                "".join(chr(0x0660 + int(d)) for d in incident),
            ):
                assert status_of(app, f"/incidents/{alias}") == 404, alias
            for alias in (f"+{shard}", f"0{shard}", f" {shard}", "-0"):
                assert status_of(app, path, f"shard={alias}") == 404, alias
        finally:
            app.shards.close()
