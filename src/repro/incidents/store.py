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
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Optional, TextIO

from repro.incidents.lifecycle import IncidentRecord
from repro.incidents.manager import IncidentManager

#: Bump on any change to the table shapes below; the store refuses to
#: open a file from a different schema generation.
SCHEMA_VERSION = 1

#: Canonical store filename inside a monitor checkpoint directory.
INCIDENT_DB = "incidents.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS incidents (
    id INTEGER PRIMARY KEY,
    stem_left TEXT NOT NULL,
    stem_right TEXT NOT NULL,
    stem_label TEXT NOT NULL,
    status TEXT NOT NULL,
    incident_class TEXT NOT NULL,
    first_seen REAL NOT NULL,
    last_seen REAL NOT NULL,
    opened_at REAL NOT NULL,
    resolved_at REAL,
    detected_window INTEGER NOT NULL,
    windows_observed INTEGER NOT NULL,
    peak_strength INTEGER NOT NULL,
    best_rank INTEGER NOT NULL,
    event_count INTEGER NOT NULL,
    severity REAL NOT NULL,
    severity_band TEXT NOT NULL,
    reopen_count INTEGER NOT NULL,
    prefixes TEXT NOT NULL,
    related_stems TEXT NOT NULL,
    transitions TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_incidents_status ON incidents (status);
"""


class IncidentStoreError(RuntimeError):
    """The store file is unusable (schema mismatch, corruption)."""


class IncidentStore:
    """Durable mirror of an :class:`IncidentManager`'s state."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._check_schema()
        #: Incident id -> the row the last sync left in the table; None
        #: when the table's contents are not known (see :meth:`sync`).
        self._written: Optional[dict[object, dict[str, object]]] = None
        #: ``PRAGMA data_version`` inside the last sync's transaction;
        #: this connection's own commits never change it.
        self._version = 0

    def _check_schema(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
        elif int(row[0]) != SCHEMA_VERSION:
            raise IncidentStoreError(
                f"incident store {self.path} has schema v{row[0]},"
                f" this build expects v{SCHEMA_VERSION}"
            )

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
                "INSERT OR REPLACE INTO incidents VALUES"
                " (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                [
                    _row_values(row)
                    for row in rows
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

    def rows(self) -> list[IncidentRecord]:
        """All stored incidents as records, id order."""
        rows = self._conn.execute(
            "SELECT * FROM incidents ORDER BY id"
        ).fetchall()
        return [_row_record(row) for row in rows]

    def row(self, incident_id: int) -> Optional[IncidentRecord]:
        row = self._conn.execute(
            "SELECT * FROM incidents WHERE id = ?", (incident_id,)
        ).fetchone()
        return None if row is None else _row_record(row)

    def export_jsonl(self, path: Path | str) -> int:
        """:meth:`write_jsonl` into the file at *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def write_jsonl(self, handle: TextIO) -> int:
        """Write the store as the legacy JSONL export format."""
        records = self.rows()
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return len(records)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "IncidentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _row_values(row: dict) -> tuple:
    """An :meth:`IncidentRecord.to_dict` row as the table's columns."""
    stem = row["stem"]
    return (
        row["id"],
        stem[0],
        stem[1],
        row["stem_label"],
        row["status"],
        row["class"],
        row["first_seen"],
        row["last_seen"],
        row["opened_at"],
        row["resolved_at"],
        row["detected_window"],
        row["windows_observed"],
        row["peak_strength"],
        row["best_rank"],
        row["event_count"],
        row["severity"],
        row["severity_band"],
        row["reopen_count"],
        json.dumps(row["prefixes"]),
        json.dumps(row["related_stems"]),
        json.dumps(row["transitions"]),
    )


def _row_record(row: tuple) -> IncidentRecord:
    return IncidentRecord.from_dict(
        {
            "id": row[0],
            "stem": [row[1], row[2]],
            "stem_label": row[3],
            "status": row[4],
            "class": row[5],
            "first_seen": row[6],
            "last_seen": row[7],
            "opened_at": row[8],
            "resolved_at": row[9],
            "detected_window": row[10],
            "windows_observed": row[11],
            "peak_strength": row[12],
            "best_rank": row[13],
            "event_count": row[14],
            "severity": row[15],
            "severity_band": row[16],
            "reopen_count": row[17],
            "prefixes": json.loads(row[18]),
            "related_stems": json.loads(row[19]),
            "transitions": json.loads(row[20]),
        }
    )
