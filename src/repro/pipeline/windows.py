"""Windowed detection stages: sliding Stemming plus incremental TAMP.

:class:`WindowedStemmer` is the pipeline's analysis heart. It buffers
events into a sliding window of ``window`` seconds advancing by
``slide`` seconds (``slide == window`` gives tumbling windows), and at
each boundary runs the full Stemming decomposition over the window's
events, emitting a :class:`WindowReport` with the window's fingerprint
and ranked stems.
Memory stays bounded: events older than the window are evicted from
the buffer. The buffer — each event beside its JSON line, encoded once
at admission and held until eviction — the next boundary and the window
index are the stage's whole state, exactly what :class:`WindowState`
checkpoints. However many overlapping windows an event sits in, it is
encoded once and counted once: closes and checkpoints hash and write
its held line, and a sliding :class:`StemIndex` — derived from the
buffer, rebuilt from it whenever it is absent — is brought level with
the buffer at admission (add the new tail, subtract what the last close
evicted), so that a close adds only its own batch's events from before
the boundary and then extracts.

Ordering contract: the stage re-emits each event batch downstream
*before* the report that closes at or after it, so a downstream
:class:`TampAnnotator` has applied exactly the events preceding a
window boundary when it annotates that window's report. That is what
makes a report's TAMP summary reproducible on resume. How a stream is
cut into batches moves no output, so :meth:`WindowedStemmer.parts`
can cut a batch after each event that closes a window: a driver that
processes the parts in turn lets each report out before the events
behind its closing event are admitted.

Everything here is deterministic and clock-free — window positions
derive from event timestamps only. Wall-clock concerns (pacing, lag
measurement) live in the source and monitor layers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional

from repro.collector.events import BGPEvent
from repro.collector.stream import fingerprint_lines
from repro.pipeline.runtime import Batch, Stage
from repro.stemming.encode import format_stem
from repro.stemming.stemmer import StemIndex, Stemmer, StemmingResult
from repro.tamp.incremental import IncrementalTamp


@dataclass
class WindowReport:
    """Ranked incidents for one closed window.

    ``fingerprint`` is what :func:`~repro.collector.stream
    .fingerprint_events` reports for the window's events (computed from
    the lines the stage holds, never by re-encoding) — the bit-identity
    witness the resume test compares.
    ``result`` carries the full :class:`StemmingResult` for in-process
    consumers (the monitor's incident manager); :meth:`to_dict` is the
    persisted form.
    """

    index: int
    start: float
    end: float
    event_count: int
    fingerprint: str
    result: StemmingResult
    #: Filled in downstream by :class:`TampAnnotator`.
    tamp: Optional[dict[str, int]] = None

    def ranked_stems(self) -> list[dict[str, object]]:
        return [
            {
                "rank": component.rank,
                "stem": format_stem(component.stem),
                "strength": component.strength,
                "events": component.event_count,
                "prefixes": len(component.prefixes),
            }
            for component in self.result.components
        ]

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "event_count": self.event_count,
            "fingerprint": self.fingerprint,
            "coverage": round(self.result.coverage(), 6),
            "components": self.ranked_stems(),
            "tamp": self.tamp,
        }


@dataclass
class WindowState:
    """The checkpointable core of a :class:`WindowedStemmer`."""

    boundary: Optional[float]
    window_index: int
    buffer: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "boundary": self.boundary,
            "window_index": self.window_index,
            "buffer": self.buffer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowState":
        boundary = data.get("boundary")
        return cls(
            boundary=None if boundary is None else float(boundary),
            window_index=int(data.get("window_index", 0)),
            buffer=list(data.get("buffer", [])),
        )


class WindowedStemmer(Stage):
    """Sliding-window Stemming over a batched event stream.

    The first event anchors the window ladder: the first boundary is
    ``first_timestamp + window`` and every later boundary is a
    ``slide`` multiple beyond it, so window positions — and therefore
    every downstream fingerprint — depend only on the stream, never on
    when the monitor started. Quiet gaps fast-forward the boundary
    without emitting empty reports.
    """

    name = "window"

    def __init__(
        self,
        window: float,
        slide: Optional[float] = None,
        *,
        min_strength: int = 2,
        max_components: int = 16,
        # Accepted and unused: bench/monitor.py, frozen outside
        # benchmark PRs, passes it. Nothing in Stemming shards.
        workers: Optional[int] = None,
    ) -> None:
        super().__init__()
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        slide = window if slide is None else slide
        if not 0 < slide <= window:
            raise ValueError(
                f"slide must be in (0, window], got {slide}"
            )
        self.window = window
        self.slide = slide
        self.stemmer = Stemmer(
            min_strength=min_strength, max_components=max_components
        )
        self._buffer: deque[BGPEvent] = deque()
        #: ``to_json()`` of each buffered event, in lock-step with
        #: ``_buffer``: appended at admission, popped at eviction,
        #: cleared by the partial flush.
        self._lines: deque[str] = deque()
        self._boundary: Optional[float] = None
        self._window_index = 0
        #: The sliding first level — the buffer as of the last
        #: :meth:`_sync_index`, grouped and counted. Derived, never
        #: checkpointed: ``None`` (new, restored, drained) makes the
        #: next sync load the buffer.
        self._index: Optional[StemIndex] = None
        #: ``_index.interned`` at the first close after it was loaded,
        #: when it held one window and nothing an eviction leaves
        #: behind; 0 until then.
        self._interned_at_close = 0
        #: How many events a close evicted from the buffer that the
        #: index still holds (its oldest ones): removing them waits for
        #: the next admission call, off the path between a window's last
        #: event and its report.
        self._parked = 0

    # -- Stage interface ------------------------------------------------

    def process(self, item: object) -> Optional[Iterable[object]]:
        if not isinstance(item, Batch):
            raise TypeError(
                f"{self.name} stage expects Batch, got {type(item)!r}"
            )
        out: list[object] = []
        pending: list[BGPEvent] = []
        pending_offset = item.start_offset
        closed_before = self._window_index
        self._sync_index()
        for event in item.events:
            if self._boundary is None:
                self._boundary = event.timestamp + self.window
            while (
                self._boundary is not None
                and event.timestamp >= self._boundary
            ):
                pending_offset = self._emit_pending(
                    out, pending, pending_offset
                )
                self._close_window(out)
            if self._boundary is None:
                # Quiet gap drained the buffer: re-anchor the window
                # ladder on the event that ends the gap.
                self._boundary = event.timestamp + self.window
            self._buffer.append(event)
            self._lines.append(event.to_json())
            pending.append(event)
        self._emit_pending(out, pending, pending_offset)
        if self._window_index == closed_before:
            # No report is waiting on this call: take the batch into
            # the index now, so the close that comes has less to add.
            self._sync_index()
        return out

    def parts(self, batch: Batch) -> Iterator[Batch]:
        """Cut *batch* after each event that closes a window.

        Lazy: each part is cut at the boundary the stage holds when the
        next part is asked for, so the caller must :meth:`process` a
        part before taking the next — a close moves the boundary, and a
        close that drains the buffer re-anchors the ladder on the
        closing event. Processing the parts in turn admits exactly what
        processing the whole batch would, and lets each report out
        before the events behind its closing event are admitted.
        """
        events = batch.events
        start, end = 0, len(events)
        while start < end:
            boundary = self._boundary
            cut = start
            if boundary is None:
                # The first event anchors the ladder and closes nothing.
                boundary = events[start].timestamp + self.window
                cut += 1
            while cut < end and events[cut].timestamp < boundary:
                cut += 1
            stop = min(cut + 1, end)
            yield Batch(
                events[start:stop],
                batch.start_offset + start,
                batch.start_offset + stop,
            )
            start = stop

    def flush(self) -> Optional[Iterable[object]]:
        """Close the final partial window at end-of-stream."""
        out: list[object] = []
        if self._buffer:
            self._close_window(out, partial=True)
        return out

    # -- Checkpointing --------------------------------------------------

    def export_state(self) -> WindowState:
        return WindowState(
            boundary=self._boundary,
            window_index=self._window_index,
            buffer=list(self._lines),
        )

    def restore_state(self, state: WindowState) -> None:
        if self._buffer or self._window_index:
            raise ValueError(
                "cannot restore state onto a used window stage"
            )
        self._boundary = state.boundary
        self._window_index = state.window_index
        self._buffer.extend(
            BGPEvent.from_json(line) for line in state.buffer
        )
        # Re-derived, not copied from the checkpoint: a fingerprint is
        # always a function of the events the stemmer decomposes.
        self._lines.extend(event.to_json() for event in self._buffer)

    # -- Introspection (read by the monitor for gauges) -----------------

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    @property
    def window_index(self) -> int:
        return self._window_index

    @property
    def index_sequences(self) -> int:
        """Unique sequences the sliding index holds (0 with none)."""
        return 0 if self._index is None else len(self._index.by_ids)

    # -- Internals ------------------------------------------------------

    def _emit_pending(
        self,
        out: list[object],
        pending: list[BGPEvent],
        pending_offset: int,
    ) -> int:
        """Pass buffered-through events downstream; returns new offset."""
        if pending:
            out.append(
                Batch(
                    tuple(pending),
                    pending_offset,
                    pending_offset + len(pending),
                )
            )
            pending_offset += len(pending)
            pending.clear()
        return pending_offset

    def _close_window(
        self, out: list[object], partial: bool = False
    ) -> None:
        assert self._boundary is not None
        if self._buffer:
            index = self._sync_index()
            assert index is not None
            if not self._interned_at_close:
                self._interned_at_close = index.interned
            out.append(
                WindowReport(
                    index=self._window_index,
                    start=self._boundary - self.window,
                    end=self._boundary,
                    event_count=len(self._buffer),
                    fingerprint=fingerprint_lines(self._lines),
                    result=self.stemmer.extract(index),
                )
            )
            self._window_index += 1
        if partial:
            self._buffer.clear()
            self._lines.clear()
            self._drop_index()
            return
        self._boundary += self.slide
        self._evict()
        if not self._buffer:
            # Quiet gap: jump straight past the empty windows (the
            # arithmetic, not a loop — gaps can span days).
            self._boundary = None

    def _evict(self) -> None:
        assert self._boundary is not None
        horizon = self._boundary - self.window
        evicted = 0
        while self._buffer and self._buffer[0].timestamp < horizon:
            self._buffer.popleft()
            self._lines.popleft()
            evicted += 1
        index = self._index
        if (
            index is not None
            and self._buffer
            and index.interned <= 2 * self._interned_at_close
        ):
            # The index gives them up at the next admission call, not
            # between this window's last event and its report.
            self._parked += evicted
        else:
            # Drained, or its symbol table has doubled since it held
            # one window (ever-new prefixes): the next sync reloads it.
            self._drop_index()

    def _drop_index(self) -> None:
        self._index = None
        self._interned_at_close = 0
        self._parked = 0

    def _sync_index(self) -> Optional[StemIndex]:
        """Bring the sliding index level with the buffer: remove the
        parked evictions, add the buffer tail it has not seen; with no
        index, load the buffer into a new one.
        """
        buffer = self._buffer
        index = self._index
        if index is None:
            if buffer:
                index = self._index = self.stemmer.load(buffer)
            return index
        if self._parked:
            index.remove(self._parked)
            self._parked = 0
        unseen = len(buffer) - index.event_count
        if unseen:
            tail = list(islice(reversed(buffer), unseen))
            tail.reverse()
            index.add(tail)
        return index


class TampAnnotator(Stage):
    """Keeps a live TAMP graph current and annotates window reports.

    Batches are consumed (applied to the graph, nothing re-emitted);
    reports pass through annotated with the graph state *at that
    window's boundary* — valid because :class:`WindowedStemmer` emits
    events-before-report.
    """

    name = "tamp"

    def __init__(self, tamp: Optional[IncrementalTamp] = None) -> None:
        super().__init__()
        self.tamp = tamp if tamp is not None else IncrementalTamp()
        #: pulse_total as of the last annotated window boundary; the
        #: serve layer's cache key — it only moves when a window
        #: advances, so a picture rendered against it stays valid for
        #: every request until the next boundary.
        self._boundary_pulse = 0

    @property
    def boundary_pulse(self) -> int:
        """The graph's pulse count at the last window boundary."""
        return self._boundary_pulse

    def process(self, item: object) -> Optional[Iterable[object]]:
        if isinstance(item, Batch):
            self.tamp.apply_all(item.events)
            return None
        if isinstance(item, WindowReport):
            adds, removes = self.tamp.consume_id_changes()
            self._boundary_pulse = self.tamp.pulse_total
            item.tamp = {
                "routes": self.tamp.route_count(),
                "nodes": self.tamp.graph.node_count(),
                "edges": self.tamp.graph.edge_count(),
                "prefixes": self.tamp.prefix_count(),
                "pulse_adds": sum(adds.values()),
                "pulse_removes": sum(removes.values()),
                "pulse_version": self._boundary_pulse,
            }
            return (item,)
        raise TypeError(
            f"{self.name} stage expects Batch or WindowReport,"
            f" got {type(item)!r}"
        )

    # -- Checkpointing --------------------------------------------------

    def export_state(self) -> dict[str, object]:
        return {
            "routes": self.tamp.export_route_events(),
            "pulses": self.tamp.export_pulses(),
            "pulse_total": self.tamp.pulse_total,
            "boundary_pulse": self._boundary_pulse,
        }

    def restore_state(self, state: dict) -> None:
        self.tamp.import_route_events(state.get("routes", []))
        self.tamp.import_pulses(dict(state.get("pulses", {})))
        # Rebuilding the route table above recorded one pulse per
        # restored route; overwrite with the checkpointed counter so
        # resume is bit-identical (old checkpoints lack the keys and
        # restart the counter from the rebuild count, which is still
        # monotonic per process).
        if "pulse_total" in state:
            self.tamp.pulse_total = int(state["pulse_total"])
        self._boundary_pulse = int(state.get("boundary_pulse", 0))
