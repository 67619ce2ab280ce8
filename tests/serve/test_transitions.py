"""The transition feed: each move once, from the fold that made it.

A shard's incident manager returns the moves each fold made as feed
entries, and :class:`~repro.serve.ShardSet` only tags them with the
shard. A shard's feed is therefore a function of its events alone:
neither the batch size nor where the set is flushed can reorder it or
change a payload, and a kill/resume publishes each move once.

The reference is the audit-trail diff the feed used to be
(:class:`AuditTrailWatcher`), run after every fold on its own: the one
schedule under which that diff reports the values the fold left.
"""

import dataclasses
import functools
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.events import BGPEvent
from repro.collector.stream import EventStream
from repro.pipeline import CheckpointStore, SyntheticSource
from repro.pipeline.sources import StreamSource
from repro.serve import ShardSet
from repro.serve.sharding import shard_dir
from tests.pipeline.conftest import small_source
from tests.serve.conftest import even_odd_source, serve_config

#: Events in :func:`small_source` (and :func:`even_odd_source`).
EVENTS = 1600

SOURCES = {1: small_source, 2: even_odd_source}


class AuditTrailWatcher:
    """Feed entries by diffing audit trails: the new suffix per record."""

    def __init__(self) -> None:
        self._seen: dict[tuple[int, int], int] = {}

    def observe(self, records, *, shard: int) -> list[dict[str, object]]:
        entries: list[dict[str, object]] = []
        for record in records:
            key = (shard, record.incident_id)
            seen = self._seen.get(key, 0)
            for index in range(seen, len(record.transitions)):
                move = record.transitions[index]
                entries.append(
                    {
                        "incident": record.incident_id,
                        "shard": shard,
                        "transition": index,
                        "at": move.at,
                        "from": move.from_status,
                        "to": move.to_status,
                        "reason": move.reason,
                        "status": record.status.value,
                        "stem_label": record.stem_label,
                        "severity": record.severity,
                        "severity_band": record.severity_band,
                    }
                )
            self._seen[key] = len(record.transitions)
        return entries


class WatchedManager:
    """Forwards to a manager; diffs its audit trails after each fold."""

    def __init__(self, inner, shard: int, out: list) -> None:
        self._inner = inner
        self._shard = shard
        self._out = out
        self._watcher = AuditTrailWatcher()

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)

    def ingest(self, report):
        made = self._inner.ingest(report)
        # The records the fold touched were last seen at the report's
        # end: by id, then the rest by id, as the fold lists them.
        records = sorted(
            self._inner.all_incidents(),
            key=lambda r: (r.last_seen != report.end, r.incident_id),
        )
        self._out.extend(self._watcher.observe(records, shard=self._shard))
        return made

    def finalize(self, at=None):
        made = self._inner.finalize(at)
        self._out.extend(
            self._watcher.observe(
                self._inner.all_incidents(), shard=self._shard
            )
        )
        return made


def fed(source, shards: int, batch_size: int, flush_at=frozenset()):
    """One fed-to-the-end set: (its entries, the reference entries)."""
    shard_set = ShardSet(
        source(), serve_config(batch_size=batch_size), shards=shards
    )
    reference: list[dict[str, object]] = []
    for k, shard in enumerate(shard_set._shards):
        shard.live_manager = WatchedManager(
            shard.live_manager, k, reference
        )
    entries = []
    for number, event in enumerate(source().events()):
        entries.extend(shard_set.offer(event))
        if number in flush_at:
            entries.extend(shard_set.flush())
    entries.extend(shard_set.finish())
    shard_set.close()
    return entries, reference


@functools.cache
def one_by_one(shards: int) -> tuple:
    """Per shard, the entries a batch size of 1 publishes."""
    entries, _ = fed(SOURCES[shards], shards, 1)
    return by_shard(entries)


def by_shard(entries) -> tuple:
    """The entries split per shard, each list in publishing order.

    How two shards' entries interleave follows the order the set feeds
    them, so only each shard's own order is part of the contract.
    """
    shards = sorted({entry["shard"] for entry in entries})
    return tuple(
        [entry for entry in entries if entry["shard"] == k]
        for k in shards
    )


@functools.cache
def spread_events() -> tuple[BGPEvent, ...]:
    """Half an hour of stream on both shards' peers (see
    :func:`~tests.serve.conftest.even_odd_events`): enough windows for
    checkpoints to fall behind the published moves."""
    return tuple(
        dataclasses.replace(event, peer=event.peer >> 8)
        for event in SyntheticSource(3000, 1800.0, seed=5).events()
    )


def spread_source() -> StreamSource:
    return StreamSource(EventStream(spread_events()), "spread")


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
    def test_the_feed_is_the_fold_by_fold_diff(self, shards, batch_size):
        entries, reference = fed(SOURCES[shards], shards, batch_size)
        assert entries
        assert entries == reference
        assert by_shard(entries) == one_by_one(shards)

    @settings(max_examples=12, deadline=None)
    @given(
        shards=st.sampled_from([1, 2]),
        batch_size=st.sampled_from([1, 7, 64, 256]),
        flush_at=st.frozensets(st.integers(0, EVENTS - 1), max_size=6),
    )
    def test_flushes_anywhere_publish_the_same_feed(
        self, shards, batch_size, flush_at
    ):
        entries, reference = fed(
            SOURCES[shards], shards, batch_size, flush_at
        )
        assert entries == reference
        assert by_shard(entries) == one_by_one(shards)

    def test_no_frame_goes_back_in_stream_time(self):
        entries, _ = fed(spread_source, 2, 256)
        for shard_entries in by_shard(entries):
            times = [entry["at"] for entry in shard_entries]
            assert times == sorted(times)


def keys(entries) -> list[tuple]:
    return [
        (entry["shard"], entry["incident"], entry["transition"])
        for entry in entries
    ]


class TestExactlyOnce:
    #: Checkpoints lag the reports, so a kill loses published folds.
    CONFIG = serve_config(checkpoint_every=3)
    #: Shard 1 dies here and comes back here.
    KILL_AT, RESUME_AT = 1400, 2200

    def uninterrupted(self, root) -> list[dict[str, object]]:
        shard_set = ShardSet(
            spread_source(), self.CONFIG, shards=2, checkpoint_root=root
        )
        entries = []
        for event in spread_events():
            entries.extend(shard_set.offer(event))
        entries.extend(shard_set.finish())
        shard_set.close()
        return entries

    def test_pipeline_transitions_surface_exactly_once(self, tmp_path):
        expected = self.uninterrupted(tmp_path / "whole")
        root = tmp_path / "killed"
        shard_set = ShardSet(
            spread_source(), self.CONFIG, shards=2, checkpoint_root=root
        )
        entries = []
        events = spread_events()
        for event in events[: self.KILL_AT]:
            entries.extend(shard_set.offer(event))
        checkpoint = CheckpointStore(shard_dir(root, 1)).latest()
        restored_to = checkpoint.incidents["last_time"]
        shard_set.kill(1)
        # Shard 1 published moves its checkpoint does not hold: the
        # replay on resume makes them again.
        assert any(
            entry["shard"] == 1 and entry["at"] > restored_to
            for entry in entries
        )
        for event in events[self.KILL_AT : self.RESUME_AT]:
            entries.extend(shard_set.offer(event))
        entries.extend(shard_set.resume(1))
        for event in events[self.RESUME_AT :]:
            entries.extend(shard_set.offer(event))
        entries.extend(shard_set.finish())
        shard_set.close()

        assert len(set(keys(entries))) == len(entries)
        assert by_shard(entries) == by_shard(expected)

    def test_a_resumed_set_publishes_only_its_own_moves(self, tmp_path):
        expected = self.uninterrupted(tmp_path / "whole")
        root = tmp_path / "stopped"
        first = ShardSet(
            spread_source(), self.CONFIG, shards=2, checkpoint_root=root
        )
        for event in islice(spread_events(), self.KILL_AT):
            first.offer(event)
        for k in range(2):
            first.kill(k)  # a hard stop: no flush, no final checkpoint
        first.close()
        restored_to = [
            CheckpointStore(shard_dir(root, k)).latest().incidents[
                "last_time"
            ]
            for k in range(2)
        ]

        resumed = ShardSet(
            spread_source(),
            self.CONFIG,
            shards=2,
            checkpoint_root=root,
            resume=True,
        )
        entries = []
        for event in spread_events():
            entries.extend(resumed.offer(event))
        entries.extend(resumed.finish())
        resumed.close()

        # Restored history stays in /incidents and sqlite; the feed
        # carries exactly the uninterrupted run's later moves.
        assert entries
        assert by_shard(entries) == by_shard(
            [
                entry
                for entry in expected
                if entry["at"] > restored_to[entry["shard"]]
            ]
        )

    def test_entries_carry_the_feed_fields(self):
        (entries,) = one_by_one(1)
        required = {
            "incident",
            "shard",
            "transition",
            "at",
            "from",
            "to",
            "reason",
            "status",
            "stem_label",
            "severity",
            "severity_band",
        }
        assert all(set(entry) == required for entry in entries)

