"""Event streams: ordered collections of BGP events.

The stream is the interface between data collection and analysis: TAMP
animations replay one, Stemming decomposes one, and the Figure 8 event-rate
plot bins one. Streams support time slicing, predicate filtering, merging
and JSONL persistence.
"""

from __future__ import annotations

import bisect
import hashlib
from itertools import islice
from operator import attrgetter, countOf
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.collector.events import BGPEvent, EventKind
from repro.net.attributes import Community
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.mrt.ingest import IngestReport

_kind_of = attrgetter("kind")


class EventStream:
    """A time-ordered sequence of :class:`BGPEvent`.

    Events may be appended out of order; the stream sorts lazily on first
    read access and stays sorted until the next append. Sorting is stable,
    so simultaneous events keep arrival order — which matters when a
    withdrawal and re-announcement share a timestamp.
    """

    def __init__(self, events: Iterable[BGPEvent] = ()) -> None:
        self._events: list[BGPEvent] = list(events)
        self._sorted = False
        #: Set by :func:`repro.mrt.loader.load_updates` on the stream it
        #: returns: the accounting of the MRT load that produced these
        #: events. Derived streams (``between``/``filter``/...) do not
        #: inherit it — the report describes one load, not a view.
        self.ingest_report: Optional["IngestReport"] = None
        #: Timestamps of the sorted events, built lazily for bisection
        #: (time slicing hits this hard: a 750-frame animation cuts the
        #: same stream 750 times).
        self._keys: Optional[list[float]] = None
        self._ensure_sorted()

    # ------------------------------------------------------------------
    # Collection basics
    # ------------------------------------------------------------------

    def append(self, event: BGPEvent) -> None:
        if self._sorted and self._events and event.timestamp < self._events[-1].timestamp:
            self._sorted = False
        self._events.append(event)
        self._keys = None

    def extend(self, events: Iterable[BGPEvent]) -> None:
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BGPEvent]:
        self._ensure_sorted()
        return iter(self._events)

    def __getitem__(self, index: int) -> BGPEvent:
        self._ensure_sorted()
        return self._events[index]

    # ------------------------------------------------------------------
    # Time properties
    # ------------------------------------------------------------------

    @property
    def start_time(self) -> Optional[float]:
        self._ensure_sorted()
        return self._events[0].timestamp if self._events else None

    @property
    def end_time(self) -> Optional[float]:
        self._ensure_sorted()
        return self._events[-1].timestamp if self._events else None

    @property
    def timerange(self) -> float:
        """Seconds between first and last event (the paper's 'timerange')."""
        if not self._events:
            return 0.0
        self._ensure_sorted()
        return self._events[-1].timestamp - self._events[0].timestamp

    # ------------------------------------------------------------------
    # Slicing and filtering
    # ------------------------------------------------------------------

    def between(self, start: float, end: float) -> "EventStream":
        """Events with start ≤ timestamp < end."""
        keys = self._timestamp_keys()
        lo = bisect.bisect_left(keys, start)
        hi = bisect.bisect_left(keys, end)
        return EventStream(self._events[lo:hi])

    def slice_indices(self, boundaries: Iterable[float]) -> list[int]:
        """Event indices at which each time boundary falls.

        For each boundary *b* (boundaries must be non-decreasing, as an
        animation's frame edges are), the returned index is the first
        event with ``timestamp >= b`` — so consecutive boundaries bound
        the half-open slices ``start ≤ timestamp < end`` that
        :meth:`between` would return, without building 750 intermediate
        streams.
        """
        keys = self._timestamp_keys()
        bisect_left = bisect.bisect_left
        indices: list[int] = []
        lo = 0
        for boundary in boundaries:
            lo = bisect_left(keys, boundary, lo)
            indices.append(lo)
        return indices

    def filter(self, predicate: Callable[[BGPEvent], bool]) -> "EventStream":
        return EventStream(e for e in self if predicate(e))

    def for_peer(self, peer: int) -> "EventStream":
        return self.filter(lambda e: e.peer == peer)

    def for_prefix(self, prefix: Prefix) -> "EventStream":
        return self.filter(lambda e: e.prefix == prefix)

    def for_prefixes(self, prefixes: set[Prefix]) -> "EventStream":
        return self.filter(lambda e: e.prefix in prefixes)

    def with_community(self, community: Community) -> "EventStream":
        return self.filter(lambda e: community in e.attributes.communities)

    def traversing_as(self, asn: int) -> "EventStream":
        return self.filter(lambda e: asn in e.attributes.as_path)

    def merged_with(self, other: "EventStream") -> "EventStream":
        return EventStream(list(self) + list(other))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def prefixes(self) -> set[Prefix]:
        return {e.prefix for e in self._events}

    def peers(self) -> set[int]:
        return {e.peer for e in self._events}

    def nexthops(self) -> set[int]:
        return {e.attributes.nexthop for e in self._events}

    def announce_count(self) -> int:
        return len(self._events) - self.withdraw_count()

    def withdraw_count(self) -> int:
        """Withdrawals held, counted in C: triage asks this of every
        extracted component."""
        return countOf(map(_kind_of, self._events), EventKind.WITHDRAW)

    def fingerprint(self) -> str:
        """SHA-256 over the sorted events' canonical JSON encoding.

        Two streams with identical events (same timestamps, kinds,
        peers, prefixes, attributes) have identical fingerprints — the
        chaos suite uses this to assert bit-identical detector *input*
        across ingest paths without holding both streams in memory.
        """
        return fingerprint_events(self)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the stream as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self:
                handle.write(event.to_json())
                handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "EventStream":
        """Read a JSONL stream written by :meth:`save`."""
        events = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(BGPEvent.from_json(line))
                except KeyError as exc:
                    raise ValueError(
                        f"{path}:{number}: event lacks field {exc}"
                    ) from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from exc
        return cls(events)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._events.sort(key=attrgetter("timestamp"))
            self._sorted = True
            self._keys = None

    def _timestamp_keys(self) -> list[float]:
        self._ensure_sorted()
        if self._keys is None:
            self._keys = [e.timestamp for e in self._events]
        return self._keys


#: Lines :func:`fingerprint_lines` joins and encodes per digest update:
#: one call per line was most of a window's hashing time, and one call
#: per window would build a multi-megabyte string for a long one.
_FINGERPRINT_CHUNK = 1024


def fingerprint_events(events: Iterable[BGPEvent]) -> str:
    """SHA-256 over *events* in the order given, one JSON line each.

    The digest a stream of exactly these events would report from
    :meth:`EventStream.fingerprint` — provided *events* is already in
    timestamp order. Defined through :func:`fingerprint_lines`, the
    one place the digest is computed.
    """
    return fingerprint_lines(event.to_json() for event in events)


def fingerprint_lines(lines: Iterable[str]) -> str:
    """SHA-256 over *lines*, each followed by a newline.

    *lines* are :meth:`BGPEvent.to_json` encodings. A caller that
    already holds them — the pipeline's window stage encodes each event
    once at admission — fingerprints without re-encoding, and gets the
    digest :func:`fingerprint_events` reports for the same events.
    """
    digest = hashlib.sha256()
    remaining = iter(lines)
    while chunk := list(islice(remaining, _FINGERPRINT_CHUNK)):
        chunk.append("")  # the last line's newline
        digest.update("\n".join(chunk).encode("utf-8"))
    return digest.hexdigest()
