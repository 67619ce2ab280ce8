"""Render-once / serve-many: the caches behind ``/picture.svg`` and
``/incidents``.

The picture's cache key is :meth:`ShardSet.version` — the vector of
per-shard (window index, boundary pulse count) plus liveness. Pulse
counters only move when the TAMP graph's edge membership changes, and
the boundary value only moves when a window advances, so a snapshot
keyed on the vector is valid for *every* request until the next window
boundary (or a shard death/resume): the renderer runs at most once
per window advance, everything else is a dict compare.

One render per version needs no lock: :meth:`SnapshotHub.snapshot`
awaits nothing, so it runs from reading the key to storing the render
on the step that starts it. Requests that pile up after an
invalidation run one after another; the first renders and the rest
find its snapshot. :attr:`SnapshotHub.renders` counts actual renders
— the test for "one render per pulse under pileup" reads it directly.

ETags are strong and *content-derived* (sha256 of the SVG bytes): two
versions that happen to render identical bytes legitimately share an
ETag — a 304 against either is byte-correct — while any membership
change that alters the picture forces a new one, so a stale ETag can
never validate against a newer pulse count's differing picture.

Wire bytes for the 200 and 304 responses are precomputed per
snapshot; the serve hot path writes them without re-rendering
headers. This module is sanctioned by SRV001 alongside the sharding
layer — everything above it reads snapshots only.

The incident list gets the same discipline under its own key,
:meth:`ShardSet.incident_version`: rows move when a shard drains a
report, finalizes, dies or resumes. The picture's key does not say so
— finalizing moves no window index, and every death of a slot is the
same ``("dead", k)`` — and would serve them stale.
No row is encoded here: :class:`IncidentSnapshot` joins the texts the
incident managers encoded (:meth:`ShardSet.incident_rows`) into the
listings and answers ``/incidents/<id>`` with one of them. Its build
is synchronous like the picture's, so it needs no lock either.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.incidents.lifecycle import IncidentStatus
from repro.jsontext import EncodedList
from repro.serve.sharding import ShardSet
from repro.tamp.prune import DEFAULT_THRESHOLD, prune_flat
from repro.tamp.render import render_svg


@dataclass(frozen=True)
class WireBody:
    """One body with its strong ETag and wire-ready 200 / 304 bytes."""

    etag: str
    response_200: bytes
    response_304: bytes

    @classmethod
    def build(cls, body: bytes, content_type: str) -> "WireBody":
        etag = '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"ETag: {etag}\r\n"
            "Cache-Control: no-cache\r\n"
            "\r\n"
        ).encode("latin-1")
        not_modified = (
            "HTTP/1.1 304 Not Modified\r\n"
            f"ETag: {etag}\r\n"
            "Cache-Control: no-cache\r\n"
            "\r\n"
        ).encode("latin-1")
        return cls(etag, head + body, not_modified)

    def answer(self, if_none_match: str) -> bytes:
        """The 304 when the client's validator matches, else the 200."""
        if if_none_match == self.etag:
            return self.response_304
        return self.response_200


@dataclass(frozen=True)
class PictureSnapshot:
    """One rendered picture at one version, with its wire responses."""

    version: tuple
    body: bytes
    wire: WireBody

    @property
    def etag(self) -> str:
        return self.wire.etag

    @classmethod
    def build(cls, version: tuple, svg: str) -> "PictureSnapshot":
        body = svg.encode("utf-8")
        return cls(version, body, WireBody.build(body, "image/svg+xml"))


def _listing(texts: Iterable[str]) -> WireBody:
    """The listing of the rows whose (shard-tagged) texts are *texts*:
    what ``json.dumps({"incidents": rows}, sort_keys=True)`` writes."""
    body = '{"incidents": [' + ", ".join(texts) + "]}"
    return WireBody.build(body.encode("utf-8"), "application/json")


_STATUSES = frozenset(status.value for status in IncidentStatus)
#: What ``?status=`` anything that is not a status gets: never cached
#: per snapshot, so garbage values cannot grow one.
_NO_INCIDENTS = _listing([])


class IncidentSnapshot:
    """The merged incident rows at one ``incident_version()``.

    Holds the rows with their texts (:meth:`ShardSet.incident_rows`),
    a ``(shard, id)`` index over the texts, and the listings joined
    from them: the unfiltered one built with the snapshot, one per
    :class:`~repro.incidents.lifecycle.IncidentStatus` value built on
    first request.
    """

    def __init__(self, key: tuple, rows: EncodedList) -> None:
        self.key = key
        self.rows = rows
        self._index: dict[tuple[object, object], str] = {}
        for row, text in zip(rows, rows.texts):
            self._index[row["shard"], row["id"]] = text
            # Rows are in (shard, id) order: without ?shard= an id
            # means the lowest shard that has it.
            self._index.setdefault((None, row["id"]), text)
        #: Listings by ``?status=`` value; ``""`` is unfiltered.
        self.listings = {"": _listing(rows.texts)}

    @property
    def etag(self) -> str:
        return self.listings[""].etag

    def listing(self, status: str = "") -> WireBody:
        """The row list, filtered to *status* unless it is empty."""
        listing = self.listings.get(status)
        if listing is None:
            if status not in _STATUSES:
                return _NO_INCIDENTS
            rows = self.rows
            listing = self.listings[status] = _listing(
                text
                for row, text in zip(rows, rows.texts)
                if row["status"] == status
            )
        return listing

    def row_json(
        self, incident_id: int, shard: Optional[int] = None
    ) -> Optional[str]:
        """One incident's JSON body, or ``None`` if there is none."""
        return self._index.get((shard, incident_id))


class SnapshotHub:
    """Version-keyed picture cache, and the incident snapshot beside
    it."""

    def __init__(
        self,
        shards: ShardSet,
        *,
        threshold: float = DEFAULT_THRESHOLD,
        title: str = "TAMP",
    ) -> None:
        self.shards = shards
        self.threshold = threshold
        self.title = title
        self.renders = 0
        self.incident_builds = 0
        self._current: Optional[PictureSnapshot] = None
        self._incidents: Optional[IncidentSnapshot] = None

    def current(self) -> Optional[PictureSnapshot]:
        """The cached snapshot, fresh or not (no render)."""
        return self._current

    def current_incidents(self) -> Optional[IncidentSnapshot]:
        """The cached incident snapshot, fresh or not (no build)."""
        return self._incidents

    def incidents(self) -> IncidentSnapshot:
        """The incident rows for the set's current incident version.

        Cache hit: one small tuple built and compared. Miss: one
        merge, one index, one join, on the request that found it.
        """
        key = self.shards.incident_version()
        current = self._incidents
        if current is None or current.key != key:
            current = IncidentSnapshot(key, self.shards.incident_rows())
            self._incidents = current
            self.incident_builds += 1
        return current

    async def snapshot(self) -> PictureSnapshot:
        """The picture for the shard set's current version.

        Cache hit: one small tuple built and compared. Miss: one
        render, on the request that found it; it awaits nothing, so
        every request that piled up on the miss finds the render.
        Async because its callers await it.
        """
        version = self.shards.version()
        current = self._current
        if current is None or current.version != version:
            current = self._current = self.render(version)
        return current

    def render(self, version: Optional[tuple] = None) -> PictureSnapshot:
        """Synchronous render for *version* (current if omitted).

        Exposed for non-async callers (tests, the driver's final
        refresh); :meth:`snapshot` is the cached entry point.
        """
        if version is None:
            version = self.shards.version()
        graph = self.shards.merged_graph()
        pruned = prune_flat(graph, self.threshold)
        clock = self.shards.latest_window_end()
        svg = render_svg(
            pruned,
            title=self.title,
            clock_text=f"t={clock:.0f}s",
        )
        self.renders += 1
        return PictureSnapshot.build(version, svg)
