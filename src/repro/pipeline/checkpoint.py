"""Checkpoint persistence for the streaming monitor.

A checkpoint is everything needed to restart the monitor *as if it had
never stopped*: the source identity, the monitor configuration, the
stream offset of the last fully-processed event, the window stage's
buffered events and boundary, the TAMP route table, per-stage
accounting, and the source's ingest report. Checkpoints are plain JSON
(one file per checkpoint, written as a single line — ``jq .`` or
``python -m json.tool`` lays one out for reading — with atomic
tmp-then-rename writes); alongside them the store keeps
``incidents.jsonl`` — one line per emitted window report, the
monitor's durable output.

The resume contract (verified end-to-end in ``tests/pipeline``): the
pipeline only checkpoints at quiescence (queues drained), so state is
exact, not in-flight; on resume the incident log is truncated back to
the checkpoint's window count, dropping reports that post-date the
snapshot; and :meth:`CheckpointState.matches` refuses to resume
against a different source or configuration — a silent mismatch would
produce a plausible-looking but non-reproducible incident log.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.jsontext import EncodedList, dumps

#: Format version; bump on incompatible layout changes.
#: v2 added the ``incidents`` manager snapshot.
CHECKPOINT_VERSION = 2

CHECKPOINT_PREFIX = "checkpoint-"
INCIDENT_LOG = "incidents.jsonl"


class CheckpointError(ValueError):
    """A checkpoint could not be read, or does not match the run."""


def _splice(value: object) -> Optional[str]:
    """*value*'s JSON text if it holds an :class:`EncodedList`, else None.

    None tells the caller to encode *value* along with its siblings in
    one C-encoder call; only the objects on the way down to an
    :class:`EncodedList` are assembled here, member by member, in the
    key order and with the separators ``json.dumps`` uses. An object
    with a non-string key is left to ``json.dumps`` whole.
    """
    if isinstance(value, EncodedList):
        return "[" + ", ".join(value.texts) + "]"
    if type(value) is not dict or not all(
        type(key) is str for key in value
    ):
        return None
    members = {key: _splice(item) for key, item in value.items()}
    if all(text is None for text in members.values()):
        return None
    parts = []
    for key in sorted(members):
        text = members[key]
        if text is None:
            text = dumps(value[key])
        parts.append(f"{dumps(key)}: {text}")
    return "{" + ", ".join(parts) + "}"


@dataclass
class CheckpointState:
    """One snapshot of the monitor, JSON round-trippable."""

    source: dict[str, object]
    config: dict[str, object]
    #: Events fully processed (== index of the next event to read).
    offset: int
    #: Emitted window reports so far (== lines the incident log
    #: should hold at this snapshot).
    reports_emitted: int
    window: dict[str, object] = field(default_factory=dict)
    tamp: dict[str, object] = field(default_factory=dict)
    stats: dict[str, dict[str, int]] = field(default_factory=dict)
    ingest: Optional[dict[str, object]] = None
    #: Incident manager snapshot (``IncidentManager.export_state``).
    incidents: Optional[dict[str, object]] = None
    version: int = CHECKPOINT_VERSION

    def to_json(self) -> str:
        """The checkpoint as ``json.dumps(payload, sort_keys=True)``.

        Byte for byte that text, written from held pieces where it can
        be: lists that arrive as :class:`~repro.jsontext.EncodedList`
        (the route table, the incident rows) are joined from the texts
        their producer encoded.
        """
        payload = {
            "version": self.version,
            "source": self.source,
            "config": self.config,
            "offset": self.offset,
            "reports_emitted": self.reports_emitted,
            "window": self.window,
            "tamp": self.tamp,
            "stats": self.stats,
            "ingest": self.ingest,
            "incidents": self.incidents,
        }
        return _splice(payload) or dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointState":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version!r} unsupported"
                f" (expected {CHECKPOINT_VERSION})"
            )
        return cls(
            source=dict(data["source"]),
            config=dict(data["config"]),
            offset=int(data["offset"]),
            reports_emitted=int(data["reports_emitted"]),
            window=dict(data.get("window", {})),
            tamp=dict(data.get("tamp", {})),
            stats={
                str(name): dict(counters)
                for name, counters in data.get("stats", {}).items()
            },
            ingest=data.get("ingest"),
            incidents=data.get("incidents"),
            version=int(version),
        )

    def matches(
        self, source: dict[str, object], config: dict[str, object]
    ) -> None:
        """Raise :class:`CheckpointError` unless this snapshot was
        taken from the same source and configuration."""
        if self.source != source:
            raise CheckpointError(
                "checkpoint source mismatch:"
                f" saved {self.source!r}, current {source!r}"
            )
        if self.config != config:
            raise CheckpointError(
                "checkpoint config mismatch:"
                f" saved {self.config!r}, current {config!r}"
            )


class CheckpointStore:
    """Numbered checkpoints plus the incident log, in one directory.

    Checkpoint files are named ``checkpoint-<offset padded>.json`` so
    lexical order is resume order. *keep* bounds disk usage; pruning
    never removes the newest file.
    """

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        # A kill between a save's write and its rename leaves the temp
        # file; no later save or prune would ever look at it again.
        for stale in self.directory.glob(f"{CHECKPOINT_PREFIX}*.json.tmp"):
            stale.unlink()

    # -- checkpoints ----------------------------------------------------

    def save(self, state: CheckpointState) -> Path:
        """Atomically persist *state*; returns the checkpoint path."""
        name = f"{CHECKPOINT_PREFIX}{state.offset:012d}.json"
        path = self.directory / name
        tmp = self.directory / (name + ".tmp")
        tmp.write_text(state.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        self._prune()
        return path

    def checkpoints(self) -> list[Path]:
        return sorted(
            self.directory.glob(f"{CHECKPOINT_PREFIX}*.json")
        )

    def latest(self) -> Optional[CheckpointState]:
        paths = self.checkpoints()
        if not paths:
            return None
        return CheckpointState.from_json(
            paths[-1].read_text(encoding="utf-8")
        )

    def _prune(self) -> None:
        paths = self.checkpoints()
        for path in paths[: -self.keep]:
            path.unlink()

    # -- incident log ---------------------------------------------------

    @property
    def incident_log(self) -> Path:
        return self.directory / INCIDENT_LOG

    def append_report(self, report: dict[str, object]) -> None:
        # One write per report: a kill tears at most the last line.
        with open(self.incident_log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report, sort_keys=True) + "\n")

    def read_reports(self) -> list[dict[str, object]]:
        if not self.incident_log.exists():
            return []
        reports = []
        with open(self.incident_log, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    reports.append(json.loads(line))
        return reports

    def truncate_reports(self, count: int) -> int:
        """Cut the incident log to its first *count* lines; returns
        lines dropped.

        Called at every start: reports emitted after the checkpoint
        being resumed from will be re-emitted (identically) by the
        replay, so keeping them would duplicate windows in the log.
        The cut is by lines, parsing nothing — what a kill tore off
        the tail goes with the rest — and a log holding fewer than
        *count* complete lines raises :class:`CheckpointError`.
        """
        log = self.incident_log
        data = log.read_bytes() if log.exists() else b""
        lines = data.splitlines(keepends=True)
        complete = data.count(b"\n")
        if complete < count:
            raise CheckpointError(
                f"incident log holds {complete} complete lines,"
                f" checkpoint expects {count}"
            )
        if len(lines) > count:
            with open(log, "r+b") as handle:
                handle.truncate(sum(map(len, lines[:count])))
        return len(lines) - count
