"""Incident lifecycle orchestration: ranked stems → managed incidents.

The stemming pipeline answers "what is correlated in this window?";
this package answers the operator's question, "what is *happening*,
since when, how bad, and is it over?" — an explicit lifecycle state
machine (:mod:`repro.incidents.lifecycle`), a dedup/merge fold over
window reports (:mod:`repro.incidents.manager`), a durable sqlite
mirror (:mod:`repro.incidents.store`) and the transition feed
(:mod:`repro.incidents.feed`). ``repro monitor`` drives it per window
and exports its metrics
(:func:`repro.pipeline.monitor.incident_metrics`); ``repro incidents``
reads the store offline.
"""

from repro.incidents.feed import TransitionWatcher, load_incident_rows
from repro.incidents.lifecycle import (
    IncidentRecord,
    IncidentStatus,
    Transition,
    TransitionError,
    severity_band,
    severity_score,
    stem_key,
    transition,
)
from repro.incidents.manager import IncidentManager, IncidentPolicy
from repro.incidents.store import (
    INCIDENT_DB,
    IncidentStore,
    IncidentStoreError,
)

__all__ = [
    "INCIDENT_DB",
    "IncidentManager",
    "IncidentPolicy",
    "IncidentRecord",
    "IncidentStatus",
    "IncidentStore",
    "IncidentStoreError",
    "Transition",
    "TransitionError",
    "TransitionWatcher",
    "load_incident_rows",
    "severity_band",
    "severity_score",
    "stem_key",
    "transition",
]
