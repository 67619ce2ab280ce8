"""Transition listeners: turning lifecycle audit rows into a feed.

The serve layer pushes an SSE event every time an incident crosses a
state-machine edge. Incidents record those edges already — every
:func:`repro.incidents.lifecycle.transition` appends an auditable
:class:`~repro.incidents.lifecycle.Transition` to the record — so a
listener never needs a hook inside the manager: it *diffs the audit
trail*. :class:`TransitionWatcher` remembers how many transitions it
has seen per incident and emits exactly the suffix that is new,
which keeps the INC001 discipline intact (one sanctioned writer, any
number of readers) and makes the feed replayable: watching the same
record sequence always yields the same events in the same order.

``load_incident_rows`` is the cold-read path: when a shard is down,
its incidents are still servable from the sqlite store it synced at
its last checkpoint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.incidents.lifecycle import IncidentRecord
from repro.incidents.store import INCIDENT_DB, IncidentStore


class TransitionWatcher:
    """Derive transition events by diffing incident audit trails.

    Feed it the changed records a manager returns from ``ingest()``
    (or any record iterable); it emits one dict per *new* transition,
    in (incident id, transition index) order, tagged with the shard
    the record came from. State is a per-(shard, incident) seen-count
    — O(active incidents), no copies of the records themselves.
    """

    def __init__(self) -> None:
        self._seen: dict[tuple[int, int], int] = {}

    def observe(
        self,
        records: Iterable[IncidentRecord],
        *,
        shard: int = 0,
    ) -> list[dict[str, object]]:
        """Return feed events for transitions not yet observed."""
        events: list[dict[str, object]] = []
        for record in records:
            key = (shard, record.incident_id)
            seen = self._seen.get(key, 0)
            transitions = record.transitions
            if len(transitions) <= seen:
                continue
            for index in range(seen, len(transitions)):
                move = transitions[index]
                events.append(
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
            self._seen[key] = len(transitions)
        return events


def load_incident_rows(directory: Path | str) -> list[IncidentRecord]:
    """Read a checkpoint directory's incident store, if it exists.

    The degraded-serve path: a killed shard's incidents stay visible
    from the sqlite store its last checkpoint cycle synced. Returns
    ``[]`` when the store was never created.
    """
    db = Path(directory) / INCIDENT_DB
    if not db.exists():
        return []
    with IncidentStore(db) as store:
        return store.rows()
