"""Shard runner and fan-in: N monitor pipelines behind one picture.

Horizontal scaling for the serve layer (DESIGN.md §13): the event
stream partitions by peer (:func:`repro.pipeline.sources
.shard_for_peer`), each shard runs the same two-stage analysis
pipeline the monitor does — windowed Stemming, TAMP annotation, the
incident lifecycle — over its slice, and :class:`ShardSet` sums the
per-shard TAMP graphs into one picture with
:meth:`~repro.tamp.graph.TampGraph.merge_graph`. Because every
(peer, prefix) route lives on exactly one shard, the merged per-edge
refcounts equal an unsharded run's and the merged picture renders
byte-identical to it.

This module is the **sanctioned side of the SRV001 boundary**: every
piece of live pipeline state sits under a ``live_``-prefixed attribute
of a shard's :class:`~repro.pipeline.monitor.MonitorCore`, and inside
``repro.serve`` only this module (and the snapshot layer) may touch
those; :class:`ShardSet` reads a shard's window position and TAMP
graph there itself. HTTP handlers read through :class:`ShardSet`'s
snapshot accessors — ``version()``, ``merged_graph()``,
``incident_version()``, ``incident_rows()``, ``status()`` — which are
safe at any await point because shard pipelines only advance inside
explicit ``feed()`` calls on the same event loop.

Checkpoints are ``repro monitor``'s: a shard *is* the core that
``run_monitor`` drives (source = its
:class:`~repro.pipeline.sources.ShardView` description), writing into
``<root>/shard-<k>/``, so a shard killed hard — even one run by
``run_monitor`` in another process, as the chaos test does — resumes
here bit-identically, and vice versa.

Transitions leave the fold that makes them: a shard's manager returns
each report's moves as feed entries and :class:`ShardSet` tags them
with the shard. :meth:`ShardSet.resume` replays silently up to the
offset the dead shard had published to, so each move is published
once; a set started with ``resume=True`` publishes only its own moves.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Optional

from repro.collector.events import BGPEvent
from repro.incidents.feed import load_export_rows
from repro.incidents.manager import tag_shard
from repro.jsontext import EncodedList
from repro.pipeline.monitor import MonitorConfig, MonitorCore
from repro.pipeline.runtime import Batch, iter_batches
from repro.pipeline.sources import ShardView, Source, shard_for_peer
from repro.tamp.graph import TampGraph

def shard_dir(root: Path | str, shard: int) -> Path:
    """The checkpoint directory for shard *shard* under *root*."""
    return Path(root) / f"shard-{shard}"


def _tagged(
    entries: list[dict[str, object]], shard: int
) -> list[dict[str, object]]:
    """*entries*, each tagged with the *shard* whose fold made it."""
    for entry in entries:
        entry["shard"] = shard
    return entries


class ShardSet:
    """N pipeline shards behind one snapshot surface.

    Partitions offered events by peer, pumps each shard in
    ``batch_size`` chunks, and exposes the merged read surface the
    HTTP layer serves from. A shard can die (:meth:`kill` — or a
    crashed external process that owns its checkpoint directory) and
    later :meth:`resume`: while dead, its slot serves last-checkpoint
    incidents from sqlite and the merged picture degrades to the
    survivors; on resume the shard restores from its checkpoint and
    replays its slice of the stream up to the set's current position,
    converging back to the bit-identical merged picture.
    """

    def __init__(
        self,
        parent: Source,
        config: MonitorConfig,
        *,
        shards: int = 1,
        checkpoint_root: Optional[Path | str] = None,
        resume: bool = False,
        start_dead: tuple[int, ...] = (),
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.config = config
        self.n = shards
        self.checkpoint_root = (
            None if checkpoint_root is None else Path(checkpoint_root)
        )
        self._sources: list[Source] = [
            parent
            if shards == 1
            else ShardView(parent, k, shards)
            for k in range(shards)
        ]
        self._shards: list[Optional[MonitorCore]] = [
            None if k in start_dead else self._open(k, resume)
            for k in range(shards)
        ]
        self._buffers: list[list[BGPEvent]] = [
            [] for _ in range(shards)
        ]
        #: Filtered events offered per shard, counted even while the
        #: shard is dead — the resume catch-up target.
        self._offered = [0] * shards
        #: Per shard, the offset its transitions were published to
        #: when it last died: a resume replays up to it silently.
        self._published = [0] * shards
        self.events_offered = 0
        #: Kills per slot: what tells one death's rows from the next.
        self._deaths = [0] * shards
        #: A dead slot's last-checkpoint incident rows, read from sqlite
        #: once per death (``None``: not read since the slot last died).
        self._dead_rows: list[Optional[EncodedList]] = [None] * shards

    def _dir(self, shard: int) -> Optional[Path]:
        if self.checkpoint_root is None:
            return None
        return shard_dir(self.checkpoint_root, shard)

    def _open(self, k: int, resume: bool) -> MonitorCore:
        return MonitorCore(
            self._sources[k],
            self.config,
            checkpoint_dir=self._dir(k),
            resume=resume,
        )

    # -- Feeding -------------------------------------------------------

    def offer(self, event: BGPEvent) -> list[dict[str, object]]:
        """Route one event; returns transition feed entries, if any."""
        k = shard_for_peer(event.peer, self.n)
        self._offered[k] += 1
        self.events_offered += 1
        shard = self._shards[k]
        if shard is None:
            return []  # dead shard: replayed from its source on resume
        buffer = self._buffers[k]
        if self._offered[k] <= shard.offset + len(buffer):
            return []  # restored from a checkpoint that covers it
        buffer.append(event)
        if len(buffer) >= self.config.batch_size:
            return self._flush_shard(k)
        return []

    def _flush_shard(self, k: int) -> list[dict[str, object]]:
        events, self._buffers[k] = self._buffers[k], []
        shard = self._shards[k]
        if shard is None or not events:
            return []
        batch = Batch(
            tuple(events), shard.offset, shard.offset + len(events)
        )
        return _tagged(shard.feed(batch), k)

    def flush(self) -> list[dict[str, object]]:
        """Feed every partial buffer through its shard."""
        entries: list[dict[str, object]] = []
        for k in range(self.n):
            entries.extend(self._flush_shard(k))
        return entries

    def finish(self) -> list[dict[str, object]]:
        """End of stream: flush buffers, finalize every live shard."""
        entries = self.flush()
        for k, shard in enumerate(self._shards):
            if shard is not None:
                entries.extend(_tagged(shard.finish(), k))
        return entries

    # -- Chaos ---------------------------------------------------------

    def kill(self, k: int) -> None:
        """Drop shard *k*'s live pipeline (simulating a dead process).

        Buffered events for the shard are discarded — exactly what a
        crash does to in-flight work — and replay on resume recovers
        them from the shard's deterministic source.
        """
        shard = self._shards[k]
        if shard is None:
            return
        shard.close()
        self._shards[k] = None
        self._buffers[k] = []
        self._published[k] = shard.offset
        self._deaths[k] += 1
        self._dead_rows[k] = None

    def resume(self, k: int) -> list[dict[str, object]]:
        """Restore shard *k* from its checkpoint and catch it up.

        Replays the shard's slice from its checkpointed offset to the
        set's current stream position; returns the transitions made
        past the offset the shard had published to when it died. The
        checkpoint may have been written by this process (before
        :meth:`kill`) or by an external ``run_monitor`` over the same
        :class:`~repro.pipeline.sources.ShardView` — both drive the
        same :class:`~repro.pipeline.monitor.MonitorCore`.
        """
        if self._shards[k] is not None:
            raise ValueError(f"shard {k} is alive")
        shard = self._open(k, resume=True)
        events = self._sources[k].events(shard.offset)
        # The first pass re-makes what was published before the death;
        # only the second pass's transitions are returned.
        for stop in (self._published[k], self._offered[k]):
            entries: list[dict[str, object]] = []
            for batch in iter_batches(
                islice(events, max(stop - shard.offset, 0)),
                batch_size=self.config.batch_size,
                start_offset=shard.offset,
            ):
                entries.extend(shard.feed(batch))
        self._shards[k] = shard
        return _tagged(entries, k)

    # -- Snapshot surface (what handlers read) -------------------------

    def alive(self) -> tuple[bool, ...]:
        return tuple(shard is not None for shard in self._shards)

    def version(self) -> tuple:
        """The set-wide cache key: per-shard position plus liveness.

        A live shard contributes ``(k, window index, pulse count at
        the last window boundary)``, both monotonic. The key changes
        exactly when any shard's window advances, a shard dies, or a
        shard comes back — the moments the picture (or its
        degradation) can change. A dead shard contributes a sentinel
        so a degraded picture never shares an ETag with a full one.
        """
        return tuple(
            ("dead", k)
            if shard is None
            else (
                k,
                shard.live_window.window_index,
                shard.live_tamp.boundary_pulse,
            )
            for k, shard in enumerate(self._shards)
        )

    def merged_graph(self) -> TampGraph:
        """Sum the live shards' graphs into a fresh merged graph."""
        merged = TampGraph()
        for shard in self._shards:
            if shard is not None:
                merged.merge_graph(shard.live_tamp.tamp.graph)
        return merged

    def latest_window_end(self) -> float:
        return max(
            (
                shard.latest_window_end
                for shard in self._shards
                if shard is not None
            ),
            default=0.0,
        )

    def incident_version(self) -> tuple:
        """The incident rows' cache key: moves exactly when they can.

        A live shard's rows change when it drains a report or
        finalizes, so it contributes ``(k, reports_emitted, finished)``
        — not :meth:`version`: resolving what is live at ``finish()``
        moves no window index (only a partial window left to close
        does). A dead slot contributes its death count, so the rows of
        one death are never served for the next.
        """
        return tuple(
            ("dead", k, self._deaths[k])
            if shard is None
            else (k, shard.reports_emitted, shard.finished)
            for k, shard in enumerate(self._shards)
        )

    def _dead_incidents(self, k: int) -> EncodedList:
        rows = self._dead_rows[k]
        if rows is None:
            directory = self._dir(k)
            rows = (
                EncodedList([], [])
                if directory is None
                else load_export_rows(directory)
            )
            self._dead_rows[k] = rows
        return rows

    def incident_rows(self) -> EncodedList:
        """Merged incident rows, shard-tagged, dead shards included.

        Live shards hand out their managers' ``export_rows()``; dead
        shards the rows the sqlite store their last checkpoint cycle
        synced — the degraded-serve path. Either way a row's text is
        the one its manager encoded, with the shard spliced in
        (:func:`~repro.incidents.manager.tag_shard`): nothing is built
        or encoded here. In ``(shard, id)`` order. The one place rows
        are merged: requests read the
        :class:`~repro.serve.snapshot.IncidentSnapshot` built from this
        list once per :meth:`incident_version`.
        """
        rows: list[dict[str, object]] = []
        texts: list[str] = []
        for k, shard in enumerate(self._shards):
            held = (
                self._dead_incidents(k)
                if shard is None
                else shard.live_manager.export_rows()
            )
            rows.extend(dict(row, shard=k) for row in held)
            texts.extend(tag_shard(text, k) for text in held.texts)
        return EncodedList(rows, texts)

    def status(self) -> dict[str, object]:
        return {
            "shards": self.n,
            "alive": list(self.alive()),
            "events_offered": self.events_offered,
            "per_shard": [
                None
                if shard is None
                else {
                    "events": shard.events_done,
                    "offset": shard.offset,
                    "windows": shard.live_window.window_index,
                    "boundary_pulse": shard.live_tamp.boundary_pulse,
                    "reports": shard.reports_emitted,
                }
                for shard in self._shards
            ],
        }

    def close(self) -> None:
        for shard in self._shards:
            if shard is not None:
                shard.close()
