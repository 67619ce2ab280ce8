"""Event sources for the streaming monitor.

A :class:`Source` abstracts where events come from so the pipeline
never cares: an in-memory stream, an MRT/JSONL archive replayed from
disk, a simulator-driven synthetic feed, or a quarantine file written
by a previous ingest. Every source supports ``events(start_offset)``
— the resume hook: after a crash the monitor re-opens the same source
and skips straight to the first unprocessed event. For that to yield
bit-identical replay a source must be *deterministic*: the same
construction parameters must produce the same event sequence, which
is why :meth:`Source.describe` exists — the checkpoint layer stores
it and refuses to resume against a source that describes differently.

Pacing is a property of replay, not of the source: :class:`Pacer`
turns event timestamps into wall-clock delays (``pace=1`` replays in
real time, ``pace=60`` at 60x speed, ``pace=0`` as fast as possible).
This module may touch the wall clock — it is replay plumbing, not
algorithm code, and sits outside the DET001-scoped packages.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.collector.events import BGPEvent
from repro.collector.rex import RouteExplorer
from repro.collector.stream import EventStream
from repro.mrt.bgp_codec import UpdateDecoder
from repro.mrt.ingest import IngestPolicy, IngestReport, read_quarantine
from repro.mrt.loader import load_updates, observe_update
from repro.mrt.records import MRTError
from repro.simulator.synthetic import (
    BERKELEY_PROFILE,
    ISP_ANON_PROFILE,
    populate_view,
    sized_event_stream,
)

#: File suffixes routed through the MRT decoder (mirrors the CLI).
MRT_SUFFIXES = (".mrt", ".dump", ".bgp4mp")

PROFILES = {
    BERKELEY_PROFILE.name: BERKELEY_PROFILE,
    ISP_ANON_PROFILE.name: ISP_ANON_PROFILE,
}


class Source:
    """Base class: a deterministic, resumable feed of BGP events."""

    #: Ingest accounting, populated by sources that decode raw bytes.
    ingest_report: Optional[IngestReport] = None

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        """Yield events in stream order, skipping *start_offset*."""
        raise NotImplementedError

    def describe(self) -> dict[str, object]:
        """JSON-stable identity, persisted into every checkpoint.

        Two sources that describe identically must yield identical
        event sequences; resume refuses anything else.
        """
        raise NotImplementedError


class StreamSource(Source):
    """Replay an in-memory :class:`EventStream` (tests, composition)."""

    def __init__(self, stream: EventStream, label: str = "stream") -> None:
        self._stream = stream
        self._label = label
        self.ingest_report = getattr(stream, "ingest_report", None)
        #: (length, fingerprint) as of the last :meth:`describe`.
        self._fingerprint: Optional[tuple[int, str]] = None

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        for index in range(start_offset, len(self._stream)):
            yield self._stream[index]

    def describe(self) -> dict[str, object]:
        # Every checkpoint describes its source; hashing the stream
        # costs one encode per event, so do it once. A stream can only
        # grow (``EventStream`` has no removal), so an unchanged length
        # means unchanged events.
        count = len(self._stream)
        if self._fingerprint is None or self._fingerprint[0] != count:
            self._fingerprint = (count, self._stream.fingerprint())
        return {
            "type": "stream",
            "label": self._label,
            "events": count,
            "fingerprint": self._fingerprint[1],
        }


class FileSource(Source):
    """Replay an archive from disk: MRT by suffix, else JSONL.

    The archive is decoded once on first use and replayed from
    memory; MRT decode goes through :func:`repro.mrt.loader
    .load_updates` so the usual ingest policy/quarantine machinery
    applies and the report lands on :attr:`ingest_report`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        policy: Optional[IngestPolicy] = None,
    ) -> None:
        self.path = Path(path)
        self._policy = policy
        self._stream: Optional[EventStream] = None

    def _load(self) -> EventStream:
        if self._stream is None:
            if self.path.suffix.lower() in MRT_SUFFIXES:
                self._stream = load_updates(
                    self.path, policy=self._policy
                )
                self.ingest_report = self._stream.ingest_report
            else:
                self._stream = EventStream.load(self.path)
        return self._stream

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        stream = self._load()
        for index in range(start_offset, len(stream)):
            yield stream[index]

    def describe(self) -> dict[str, object]:
        return {"type": "file", "path": str(self.path)}


class SyntheticSource(Source):
    """Simulator-driven feed: a populated view plus sized churn.

    Fully determined by ``(profile, n_routes, count, timerange,
    seed)`` — the same tuple always yields the same events, which is
    what lets the CI smoke job kill and resume a synthetic monitor
    and still demand bit-identical output.
    """

    def __init__(
        self,
        count: int,
        timerange: float,
        *,
        profile: str = ISP_ANON_PROFILE.name,
        n_routes: int = 2000,
        start: float = 0.0,
        seed: int = 31,
    ) -> None:
        if profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r};"
                f" expected one of {sorted(PROFILES)}"
            )
        self.count = count
        self.timerange = timerange
        self.profile = profile
        self.n_routes = n_routes
        self.start = start
        self.seed = seed
        self._stream: Optional[EventStream] = None

    def _load(self) -> EventStream:
        if self._stream is None:
            rex = RouteExplorer("synthetic")
            populate_view(
                rex,
                self.n_routes,
                PROFILES[self.profile],
                seed=self.seed,
            )
            self._stream = sized_event_stream(
                rex,
                self.count,
                self.timerange,
                start=self.start,
                seed=self.seed,
            )
        return self._stream

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        stream = self._load()
        for index in range(start_offset, len(stream)):
            yield stream[index]

    def describe(self) -> dict[str, object]:
        return {
            "type": "synthetic",
            "profile": self.profile,
            "n_routes": self.n_routes,
            "count": self.count,
            "timerange": self.timerange,
            "start": self.start,
            "seed": self.seed,
        }


class QuarantineSource(Source):
    """Replay records quarantined by a previous ingest.

    Records land in quarantine because they failed to decode; after a
    codec fix (or with a laxer policy) they may now parse. Each
    record goes down the path an ingest takes
    (:func:`repro.mrt.loader.observe_update`: one decoder with its
    intern tables for the replay, a fresh collector so withdrawal
    augmentation applies); records that still fail are counted and
    skipped, never raised — a replay source must not die on the exact
    bytes that were already deemed suspect once.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._stream: Optional[EventStream] = None
        self.replayed_records = 0
        self.failed_records = 0

    def _load(self) -> EventStream:
        if self._stream is None:
            rex = RouteExplorer("quarantine")
            decoder = UpdateDecoder()
            for record in read_quarantine(self.path):
                try:
                    observe_update(
                        rex, decoder, record.payload, record.timestamp
                    )
                except (MRTError, ValueError):
                    self.failed_records += 1
                    continue
                self.replayed_records += 1
            self._stream = rex.events
        return self._stream

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        stream = self._load()
        for index in range(start_offset, len(stream)):
            yield stream[index]

    def describe(self) -> dict[str, object]:
        return {"type": "quarantine", "path": str(self.path)}


def shard_for_peer(peer: int, shards: int) -> int:
    """The shard index owning *peer*'s routes.

    Pure modulo on the packed peer address: stable across runs and
    processes, which is what makes the fan-in merge bit-identical —
    every (peer, prefix) route lives on exactly one shard, so the
    merged per-edge refcounts equal an unsharded run's.
    """
    return peer % shards


class ShardView(Source):
    """One shard's slice of a parent source, partitioned by peer.

    Wraps any deterministic :class:`Source` and yields only the events
    whose peer hashes to this shard (:func:`shard_for_peer`). Offsets
    are *shard-local*: ``events(start_offset)`` skips the first
    *start_offset* events **of the filtered stream**, so each shard
    checkpoints and resumes independently with its own offset space.
    """

    def __init__(self, parent: Source, shard: int, shards: int) -> None:
        if not 0 <= shard < shards:
            raise ValueError(
                f"shard {shard} out of range for {shards} shard(s)"
            )
        self.parent = parent
        self.shard = shard
        self.shards = shards

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        skipped = 0
        shard, shards = self.shard, self.shards
        for event in self.parent.events():
            if shard_for_peer(event.peer, shards) != shard:
                continue
            if skipped < start_offset:
                skipped += 1
                continue
            yield event

    def describe(self) -> dict[str, object]:
        return {
            "type": "shard",
            "shard": self.shard,
            "of": self.shards,
            "parent": self.parent.describe(),
        }


class Pacer:
    """Map event timestamps onto wall-clock replay delays.

    ``pace`` is the speed-up factor: 1 replays at the archive's own
    rate, 60 compresses each minute of archive time into a second,
    0 (or negative) disables pacing entirely. The first timestamp
    seen anchors the schedule; late arrival never accumulates — if
    processing falls behind, the pacer simply stops sleeping until
    the schedule catches up (that growing gap is the monitor's
    ``window_lag`` signal).

    *clock*/*sleep* are injectable so tests never touch real time.
    """

    def __init__(
        self,
        pace: float,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.pace = pace
        self._clock = clock
        self._sleep = sleep
        self._anchor_ts: Optional[float] = None
        self._anchor_clock = 0.0

    def delay(self, timestamp: float) -> float:
        """Seconds until *timestamp* is due (0 if late); never sleeps.

        The first call anchors the schedule and returns 0.
        """
        if self.pace <= 0:
            return 0.0
        if self._anchor_ts is None:
            self._anchor_ts = timestamp
            self._anchor_clock = self._clock()
            return 0.0
        due = (
            self._anchor_clock
            + (timestamp - self._anchor_ts) / self.pace
        )
        return max(0.0, due - self._clock())

    def wait_for(self, timestamp: float) -> float:
        """Sleep until *timestamp* is due; returns the delay slept."""
        delay = self.delay(timestamp)
        if delay > 0:
            self._sleep(delay)
        return delay

    def lag(self, timestamp: float) -> float:
        """Seconds (archive time) the replay is behind schedule."""
        if self.pace <= 0 or self._anchor_ts is None:
            return 0.0
        elapsed = (self._clock() - self._anchor_clock) * self.pace
        behind = elapsed - (timestamp - self._anchor_ts)
        return max(0.0, behind)
