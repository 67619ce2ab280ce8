"""The cold-read path for incidents: rows from the sqlite store.

When a shard is down, its incidents are still servable from the
sqlite store it synced at its last checkpoint;
:func:`load_incident_rows` reads them. Transitions need no reader
here: each :class:`~repro.incidents.manager.IncidentManager` fold
returns the ones it made as transition-feed entries (DESIGN.md §13).
"""

from __future__ import annotations

from pathlib import Path

from repro.incidents.lifecycle import IncidentRecord
from repro.incidents.store import INCIDENT_DB, IncidentStore


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
