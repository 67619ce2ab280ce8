"""Persistent sqlite-backed incident store.

The store is the durable face of the :class:`IncidentManager`: one
``incidents.sqlite`` file next to the monitor's checkpoints, written in
WAL mode so a reader (the ``repro incidents`` CLI, the CI smoke job)
can inspect incidents while the monitor is live.

Consistency model — the store is a *follower* of the checkpoint cycle,
never an independent source of truth. Every checkpoint write is paired
with one :meth:`IncidentStore.sync` call that brings the incident table
level with the manager in a single transaction and stamps
``reports_applied`` with the checkpoint's ``reports_emitted``.

A sync writes what changed. The store remembers the rows it last wrote;
the manager hands out the same row object for an incident that has not
changed (:meth:`~repro.incidents.manager.IncidentManager.export_rows`),
so the sync upserts the rows that are new objects and deletes the ids
that are gone. The monitor keeps every resolved incident, so this is
what keeps a sync's cost at the window's changes rather than the run's
history. A sync replaces the whole table instead — the same code with
nothing remembered — whenever the memory cannot be trusted: a store
object's first sync (on resume, that atomically reconciles away any
rows a dead run wrote past its last checkpoint — the same
truncate-and-replay contract the report log already follows), the sync
after :meth:`IncidentStore.compact`, and any sync after ``PRAGMA
data_version`` shows another connection wrote to the file (``repro
incidents compact`` on a live store: the next checkpoint puts its rows
back, since the manager still holds them).

A row is stored as the text the manager encoded it as, beside the
``status`` and ``resolved_at`` that :meth:`IncidentStore.compact` and
:meth:`IncidentStore.counts_by_status` query: reading a row decodes
that text and exporting one writes it, so the store encodes nothing.
A file of another schema generation is refused, not migrated: the
store is a follower its first sync rebuilds whole, so deleting the
file is the recovery.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Optional, TextIO

from repro.incidents.lifecycle import IncidentRecord
from repro.incidents.manager import IncidentManager
from repro.jsontext import EncodedList

#: Bump on any change to the table shapes below; the store refuses to
#: open a file from a different schema generation.
SCHEMA_VERSION = 2

#: Canonical store filename inside a monitor checkpoint directory.
INCIDENT_DB = "incidents.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS incidents (
    id INTEGER PRIMARY KEY,
    status TEXT NOT NULL,
    resolved_at REAL,
    row TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_incidents_status ON incidents (status);
"""


class IncidentStoreError(ValueError):
    """The store file is unusable (not a database, another schema)."""


class IncidentStore:
    """Durable mirror of an :class:`IncidentManager`'s state."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        try:
            version = self._open()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise IncidentStoreError(
                f"cannot open incident store {self.path}: {exc}"
            ) from exc
        if version != str(SCHEMA_VERSION):
            self._conn.close()
            raise IncidentStoreError(
                f"incident store {self.path} has schema v{version},"
                f" this build expects v{SCHEMA_VERSION}; delete it, and"
                " the monitor's next checkpoint rebuilds it"
            )
        #: Incident id -> the row the last sync left in the table; None
        #: when the table's contents are not known (see :meth:`sync`).
        self._written: Optional[dict[object, dict[str, object]]] = None
        #: ``PRAGMA data_version`` inside the last sync's transaction;
        #: this connection's own commits never change it.
        self._version = 0

    def _open(self) -> str:
        """Set the file up; returns its schema generation."""
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None:
            return row[0]
        with self._conn:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        return str(SCHEMA_VERSION)

    # -- write path -----------------------------------------------------

    def sync(self, manager: IncidentManager, reports_applied: int) -> None:
        """Atomically bring the table level with *manager*'s state.

        Paired 1:1 with checkpoint writes; ``reports_applied`` records
        which report-log position this snapshot corresponds to, so a
        resume can detect (and re-sync away) rows from a dead run. Rows
        unchanged since the last sync are not written again; when that
        sync's table cannot be trusted, every row is (module docstring).
        """
        rows = manager.export_rows()
        current = {row["id"]: row for row in rows}
        written, self._written = self._written, None  # unknown until commit
        with self._conn:
            # The write lock first: no other connection can commit
            # between this data_version read and the commit below, so
            # a version equal to the last sync's means nobody else
            # wrote in between.
            self._conn.execute("BEGIN IMMEDIATE")
            version = self._data_version()
            if written is None or version != self._version:
                self._conn.execute("DELETE FROM incidents")
                written = {}
            self._conn.executemany(
                "DELETE FROM incidents WHERE id = ?",
                [(key,) for key in written if key not in current],
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO incidents VALUES (?, ?, ?, ?)",
                [
                    (row["id"], row["status"], row["resolved_at"], text)
                    for row, text in zip(rows, rows.texts)
                    if written.get(row["id"]) is not row
                ],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("reports_applied", str(int(reports_applied))),
            )
        self._written, self._version = current, version

    def _data_version(self) -> int:
        return self._conn.execute("PRAGMA data_version").fetchone()[0]

    def compact(self, *, keep_resolved: int = 0) -> int:
        """Drop all but the newest *keep_resolved* resolved incidents.

        Returns the number of rows removed. Retention order is
        deterministic: resolved incidents are dropped oldest
        ``(resolved_at, id)`` first. Runs VACUUM so the file shrinks.
        A store a monitor still syncs gets the rows back at its next
        checkpoint: the manager keeps every incident it holds.
        """
        self._written = None
        resolved = self._conn.execute(
            "SELECT id FROM incidents WHERE status = 'resolved'"
            " ORDER BY resolved_at DESC, id DESC"
        ).fetchall()
        victims = [row[0] for row in resolved[keep_resolved:]]
        if victims:
            with self._conn:
                self._conn.executemany(
                    "DELETE FROM incidents WHERE id = ?",
                    [(v,) for v in victims],
                )
        self._conn.execute("VACUUM")
        return len(victims)

    # -- read path ------------------------------------------------------

    def reports_applied(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'reports_applied'"
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM incidents"
        ).fetchone()[0]

    def counts_by_status(self) -> dict[str, int]:
        return dict(
            self._conn.execute(
                "SELECT status, COUNT(*) FROM incidents"
                " GROUP BY status ORDER BY status"
            ).fetchall()
        )

    def export_rows(self) -> EncodedList:
        """The stored rows, id order, each with the text it was synced
        as: what the manager's :meth:`~IncidentManager.export_rows`
        handed out at the last sync."""
        rows = self._conn.execute("SELECT row FROM incidents ORDER BY id")
        texts = [text for (text,) in rows]
        return EncodedList(map(json.loads, texts), texts)

    def rows(self) -> list[IncidentRecord]:
        """All stored incidents as records, id order."""
        return [IncidentRecord.from_dict(row) for row in self.export_rows()]

    def row(self, incident_id: int) -> Optional[IncidentRecord]:
        found = self._conn.execute(
            "SELECT row FROM incidents WHERE id = ?", (incident_id,)
        ).fetchone()
        if found is None:
            return None
        return IncidentRecord.from_dict(json.loads(found[0]))

    def export_jsonl(self, path: Path | str) -> int:
        """:meth:`write_jsonl` into the file at *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def write_jsonl(self, handle: TextIO) -> int:
        """Write the stored texts, one incident per line."""
        texts = self.export_rows().texts
        for text in texts:
            handle.write(text + "\n")
        return len(texts)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "IncidentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

