"""Lifecycle orchestration: per-window stem reports → managed incidents.

The Stemming pipeline emits a ranked stem list per window; a multi-hour
event therefore shows up as hundreds of disconnected rows. The
:class:`IncidentManager` is the fold that turns that stream into a
small set of *managed* incidents, in the dedup-first shape the Aegis
orchestrator models (SNIPPETS.md §2): for each ranked component, first
look for an existing incident to merge into, only then create, then
enrich (severity, class, prefixes, persistence).

Merge rules (DESIGN.md §12):

* **same stem edge** — a component whose problem location matches a
  live incident's stem (or one of its merged related stems) updates
  that incident, however many windows apart the observations are;
* **overlapping prefix set** — a component on a *different* stem merges
  into a live incident seen within ``correlation_window`` stream
  seconds when the prefix-set overlap (Jaccard) reaches
  ``prefix_overlap``; the new stem is recorded as a related stem and
  keys future lookups;
* **reopen on recurrence** — a stem recurring within ``reopen_window``
  of its incident's resolution reopens that incident (same id);
  beyond the window it is a genuinely new incident.

Aging is stream-time-driven: an incident unseen for ``resolve_after``
seconds resolves; one observed in ``investigate_after`` windows
escalates open → investigating. Everything — ids, timestamps, state —
derives from report content only, so the same report sequence always
rebuilds the same incidents (the crash/resume bit-identity contract).

Each fold (``ingest``, ``finalize``) returns the transitions it made
as feed entries (DESIGN.md §13) and counts resolves and reopens as it
makes them, tallying each resolve's open-to-resolved seconds beside
the count: no reader re-derives them from the audit trails.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.incidents.lifecycle import (
    IncidentRecord,
    IncidentStatus,
    StemKey,
    open_incident,
    severity_band,
    severity_score,
    stem_key,
    transition,
)
from repro.jsontext import EncodedList, dumps
from repro.stemming.encode import format_stem
from repro.stemming.stemmer import Component

if TYPE_CHECKING:  # import would cycle through repro.pipeline.monitor
    from repro.pipeline.windows import WindowReport


#: Bucket edges (stream seconds) of the incident age and
#: time-to-resolve histograms: one monitor window through a working day.
AGE_BUCKETS = (
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 14400.0, 86400.0,
)


@dataclass(frozen=True, slots=True)
class IncidentPolicy:
    """The knobs that shape incident evolution.

    These are *output-shaping*: the monitor pins them in its checkpoint
    config (resuming under a different policy would grow different
    incidents from the same reports, silently breaking bit-identity).
    """

    #: Quiet stream-seconds after which a live incident resolves.
    resolve_after: float = 600.0
    #: Max stream-time gap for prefix-overlap merging into a live
    #: incident (same-stem merges ignore this — identity is identity).
    correlation_window: float = 600.0
    #: A stem recurring within this many seconds of its incident's
    #: resolution reopens it; later recurrences start a new incident.
    reopen_window: float = 900.0
    #: Windows observed before an OPEN incident escalates.
    investigate_after: int = 2
    #: Jaccard overlap of prefix sets that merges distinct stems.
    prefix_overlap: float = 0.5
    #: Components weaker than this never form incidents.
    min_strength: int = 2
    #: Bound on retained resolved incidents in memory (None = all).
    max_resolved: Optional[int] = None

    def describe(self) -> dict[str, object]:
        return {
            "resolve_after": self.resolve_after,
            "correlation_window": self.correlation_window,
            "reopen_window": self.reopen_window,
            "investigate_after": self.investigate_after,
            "prefix_overlap": self.prefix_overlap,
            "min_strength": self.min_strength,
        }


def classify_component(component: Component) -> str:
    """A coarse triage class from the component's event evidence.

    Modeled on the CommunityWatch observation that a class taxonomy
    drives triage (arXiv:1806.07476): the incident metrics break
    counts down by this label. Derived deterministically from the event
    mix, so the class survives crash/resume unchanged.
    """
    total = len(component.events)
    if total == 0:
        return "correlation"
    withdrawals = component.withdrawals
    prefixes = max(1, len(component.prefixes))
    if withdrawals * 5 >= total * 4:
        return "mass-withdrawal"
    if total >= prefixes * 4 and withdrawals * 4 >= total:
        return "flap"
    if withdrawals * 10 <= total and prefixes >= 8:
        return "announcement-flood"
    return "path-change"


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass(slots=True)
class IncidentManager:
    """Folds :class:`WindowReport`s into managed incident lifecycles."""

    policy: IncidentPolicy = field(default_factory=IncidentPolicy)
    _incidents: dict[int, IncidentRecord] = field(default_factory=dict)
    #: Stem (or merged related stem) → owning incident id.
    _by_stem: dict[StemKey, int] = field(default_factory=dict)
    #: The live (unresolved) incidents, and prefix string → the live
    #: incident ids holding it: the only candidates a prefix-overlap
    #: merge can pick, kept at enrich, resolve, unlink and import so a
    #: fold never walks the retained (mostly resolved) incidents.
    _live: dict[int, IncidentRecord] = field(
        default_factory=dict, compare=False, repr=False
    )
    _by_prefix: dict[str, set[int]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _next_id: int = 1
    #: Latest stream time seen (the incident metrics' "now").
    last_time: float = 0.0
    reports_ingested: int = 0
    #: Incident id -> its row as :meth:`export_rows` last built it,
    #: with the row's JSON text.
    _rows: dict[int, tuple[dict[str, object], str]] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: Ids whose row :meth:`export_rows` must build (or drop) next
    #: time: the records a fold changed, unlinked ones, and every
    #: imported one.
    _stale: set[int] = field(default_factory=set, compare=False, repr=False)
    #: Resolve and reopen moves, counted as they are made (after an
    #: import, starting from the restored rows' moves).
    resolved_total: int = 0
    reopened_total: int = 0
    #: Each of those resolves' open-to-resolved seconds: a count per
    #: :data:`AGE_BUCKETS` edge (the last past every edge), the sum and
    #: the largest.
    resolve_buckets: list[int] = field(
        default_factory=lambda: [0] * (len(AGE_BUCKETS) + 1),
        compare=False,
        repr=False,
    )
    resolve_seconds: float = field(default=0.0, compare=False, repr=False)
    resolve_seconds_max: float = field(
        default=0.0, compare=False, repr=False
    )
    #: Incident id -> its first move's index in the fold under way.
    _moved: dict[int, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    # -- ingestion ------------------------------------------------------

    def ingest(self, report: WindowReport) -> list[dict[str, object]]:
        """Fold one window report in; returns the transitions it made."""
        now = report.end
        self.last_time = max(self.last_time, now)
        self.reports_ingested += 1
        touched: dict[int, IncidentRecord] = {}
        for component in report.result.components:
            if component.strength < self.policy.min_strength:
                continue
            record = self._absorb(component, report, now)
            touched[record.incident_id] = record
        self._escalate(touched.values(), now)
        changed = [touched[incident_id] for incident_id in sorted(touched)]
        changed.extend(self._age(set(touched), now))
        self._evict_resolved()
        return self._transitions(changed)

    def finalize(self, at: Optional[float] = None) -> list[dict[str, object]]:
        """Resolve every live incident at end-of-stream.

        Called by the monitor when the source is exhausted (never on a
        hard stop — a killed run must leave live incidents live so the
        resume can keep growing them). Returns the resolve moves.
        """
        now = self.last_time if at is None else at
        changed = []
        for incident_id in sorted(self._live):
            record = self._live[incident_id]
            self._move(record, IncidentStatus.RESOLVED, now, "end of stream")
            self._retire(record)
            changed.append(record)
        return self._transitions(changed)

    def _move(
        self,
        record: IncidentRecord,
        to_status: IncidentStatus,
        now: float,
        reason: str,
    ) -> None:
        """:func:`transition`, counted and noted for the fold's feed."""
        self._moved.setdefault(record.incident_id, len(record.transitions))
        if to_status is IncidentStatus.RESOLVED:
            self.resolved_total += 1
            self._tally_resolve(now - record.opened_at)
        elif record.resolved:
            self.reopened_total += 1
        transition(record, to_status, now, reason)

    def _tally_resolve(self, seconds: float) -> None:
        self.resolve_buckets[bisect_left(AGE_BUCKETS, seconds)] += 1
        self.resolve_seconds += seconds
        self.resolve_seconds_max = max(self.resolve_seconds_max, seconds)

    def _transitions(
        self, changed: list[IncidentRecord]
    ) -> list[dict[str, object]]:
        """End a fold that changed *changed*; return its moves as feed
        entries: by record in *changed* order, each record's by index,
        with the record's fields as the fold left them."""
        self._stale.update(record.incident_id for record in changed)
        moved, self._moved = self._moved, {}
        entries: list[dict[str, object]] = []
        for record in changed:
            moves = record.transitions
            start = moved.get(record.incident_id, len(moves))
            for index in range(start, len(moves)):
                entry = moves[index].to_dict()
                entry.update(
                    incident=record.incident_id,
                    transition=index,
                    status=record.status.value,
                    stem_label=record.stem_label,
                    severity=record.severity,
                    severity_band=record.severity_band,
                )
                entries.append(entry)
        return entries

    # -- merge/dedup core -----------------------------------------------

    def _absorb(
        self, component: Component, report: WindowReport, now: float
    ) -> IncidentRecord:
        key = stem_key(component.location)
        incident_class = classify_component(component)
        prefixes = frozenset(str(p) for p in component.prefixes)
        incident_id = self._by_stem.get(key)
        if incident_id is not None:
            record = self._incidents[incident_id]
            if record.resolved:
                if now - (record.resolved_at or now) <= self.policy.reopen_window:
                    reason = f"recurred on {key[0]}--{key[1]}"
                    self._move(record, IncidentStatus.OPEN, now, reason)
                    return self._enrich(
                        record, component, prefixes, incident_class, now
                    )
                self._unlink(record)
            else:
                return self._enrich(
                    record, component, prefixes, incident_class, now
                )
        merged = self._merge_by_prefixes(prefixes, now)
        if merged is not None:
            if key not in merged.related_stems and key != merged.stem:
                merged.related_stems = merged.related_stems + (key,)
            self._by_stem[key] = merged.incident_id
            return self._enrich(
                merged, component, prefixes, incident_class, now
            )
        record = open_incident(
            self._next_id,
            key,
            now,
            incident_class=incident_class,
            detected_window=report.index,
            stem_label=format_stem(component.stem),
        )
        self._next_id += 1
        self._incidents[record.incident_id] = record
        self._moved[record.incident_id] = 0
        self._by_stem[key] = record.incident_id
        return self._enrich(
            record, component, prefixes, incident_class, now, created=True
        )

    def _merge_by_prefixes(
        self, prefixes: frozenset[str], now: float
    ) -> Optional[IncidentRecord]:
        """The overlapping-prefix-set merge rule, deterministic by id.

        Only a live incident sharing a prefix can overlap at all, so
        the prefix index names every candidate; they are scored in id
        order and a later one must score strictly higher to win.
        """
        by_prefix = self._by_prefix
        candidates: set[int] = set()
        for prefix in prefixes:
            holders = by_prefix.get(prefix)
            if holders is not None:
                candidates |= holders
        best: Optional[IncidentRecord] = None
        best_overlap = 0.0
        live = self._live
        for incident_id in sorted(candidates):
            record = live[incident_id]
            if now - record.last_seen > self.policy.correlation_window:
                continue
            overlap = _jaccard(prefixes, record.prefixes)
            if overlap > best_overlap:
                best_overlap = overlap
                best = record
        if best is not None and best_overlap >= self.policy.prefix_overlap:
            return best
        return None

    def _enrich(
        self,
        record: IncidentRecord,
        component: Component,
        prefixes: frozenset[str],
        incident_class: str,
        now: float,
        *,
        created: bool = False,
    ) -> IncidentRecord:
        """Fold *component* (whose prefix strings are *prefixes*) into
        the live *record*."""
        if not created:
            if record.last_seen < now:
                record.windows_observed += 1
            record.last_seen = max(record.last_seen, now)
        record.peak_strength = max(record.peak_strength, component.strength)
        record.best_rank = min(record.best_rank, component.rank) if not created else component.rank
        if created:
            record.peak_strength = component.strength
            record.event_count = component.event_count
        else:
            record.event_count = max(record.event_count, component.event_count)
        incident_id = record.incident_id
        if incident_id not in self._live:
            # New or reopened: its whole prefix set is a candidate again.
            self._live[incident_id] = record
            self._index_prefixes(incident_id, record.prefixes)
        self._index_prefixes(incident_id, prefixes - record.prefixes)
        record.prefixes = record.prefixes | prefixes
        record.incident_class = incident_class
        record.severity = severity_score(
            record.best_rank, len(record.prefixes), record.windows_observed
        )
        record.severity_band = severity_band(record.severity)
        return record

    def _escalate(
        self, touched: Iterable[IncidentRecord], now: float
    ) -> None:
        for record in touched:
            if (
                record.status is IncidentStatus.OPEN
                and record.windows_observed >= self.policy.investigate_after
            ):
                reason = f"persisted across {record.windows_observed} windows"
                self._move(record, IncidentStatus.INVESTIGATING, now, reason)

    def _age(
        self, touched_ids: set[int], now: float
    ) -> list[IncidentRecord]:
        changed = []
        live = self._live
        for incident_id in sorted(live.keys() - touched_ids):
            record = live[incident_id]
            if now - record.last_seen >= self.policy.resolve_after:
                reason = f"quiet for {now - record.last_seen:.0f}s"
                self._move(record, IncidentStatus.RESOLVED, now, reason)
                self._retire(record)
                changed.append(record)
        return changed

    def _evict_resolved(self) -> None:
        cap = self.policy.max_resolved
        if cap is None:
            return
        resolved = [r for r in self._records_by_id() if r.resolved]
        excess = len(resolved) - cap
        if excess <= 0:
            return
        resolved.sort(key=lambda r: (r.resolved_at or 0.0, r.incident_id))
        for record in resolved[:excess]:
            self._unlink(record)

    def _unlink(self, record: IncidentRecord) -> None:
        del self._incidents[record.incident_id]
        self._stale.add(record.incident_id)
        self._retire(record)
        for key in (record.stem, *record.related_stems):
            if self._by_stem.get(key) == record.incident_id:
                del self._by_stem[key]

    # -- the live set and its prefix index ------------------------------

    def _index_prefixes(
        self, incident_id: int, prefixes: Iterable[str]
    ) -> None:
        by_prefix = self._by_prefix
        for prefix in prefixes:
            holders = by_prefix.get(prefix)
            if holders is None:
                by_prefix[prefix] = {incident_id}
            else:
                holders.add(incident_id)

    def _retire(self, record: IncidentRecord) -> None:
        """*record* is resolved or gone: no merge may pick it."""
        incident_id = record.incident_id
        if self._live.pop(incident_id, None) is None:
            return
        by_prefix = self._by_prefix
        for prefix in record.prefixes:
            holders = by_prefix[prefix]
            if len(holders) == 1:
                del by_prefix[prefix]
            else:
                holders.discard(incident_id)

    # -- queries --------------------------------------------------------

    def _records_by_id(self) -> list[IncidentRecord]:
        return [
            self._incidents[incident_id]
            for incident_id in sorted(self._incidents)
        ]

    def all_incidents(self) -> list[IncidentRecord]:
        """Every retained incident, creation (id) order."""
        return self._records_by_id()

    def active(self) -> list[IncidentRecord]:
        """Live incidents, most severe first (ties: oldest id first)."""
        return sorted(
            self._live.values(), key=lambda r: (-r.severity, r.incident_id)
        )

    def get(self, incident_id: int) -> Optional[IncidentRecord]:
        return self._incidents.get(incident_id)

    def counts_by_status(self) -> dict[str, int]:
        counts = {status.value: 0 for status in IncidentStatus}
        for record in self._incidents.values():
            counts[record.status.value] += 1
        return counts

    def counts_by_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self._records_by_id():
            counts[record.incident_class] = (
                counts.get(record.incident_class, 0) + 1
            )
        return dict(sorted(counts.items()))

    @property
    def created_total(self) -> int:
        """Incidents ever created (ids are sequential from 1)."""
        return self._next_id - 1

    def summary(self) -> str:
        if not self._incidents:
            return "no incidents"
        return "\n".join(r.describe() for r in self._records_by_id())

    # -- persistence (checkpoint form) ----------------------------------

    def export_rows(self) -> EncodedList:
        """Every retained incident's ``to_dict()`` row, id order, each
        with its JSON text.

        The one place a row is built and encoded. Only the rows of
        records that changed since the last call are built (and
        encoded) again; every other row is the same object, with the
        same text, the last call returned. That identity is what lets
        the sqlite store skip unchanged incidents, and the texts are
        what a checkpoint joins, the store keeps and ``/incidents``
        serves (:func:`tag_shard`), so a row handed out here must never
        be mutated (copy it to change it).
        """
        rows, incidents = self._rows, self._incidents
        for incident_id in self._stale:
            record = incidents.get(incident_id)
            if record is None:
                rows.pop(incident_id, None)
            else:
                row = record.to_dict()
                rows[incident_id] = (row, dumps(row))
        self._stale.clear()
        held = [rows[incident_id] for incident_id in sorted(incidents)]
        return EncodedList(
            [row for row, _ in held], [text for _, text in held]
        )

    def export_state(self) -> dict[str, object]:
        """JSON-able full state; round-trips via :meth:`import_state`.

        The ``incidents`` rows are :meth:`export_rows`: read-only.
        """
        return {
            "next_id": self._next_id,
            "last_time": self.last_time,
            "reports_ingested": self.reports_ingested,
            "policy": self.policy.describe(),
            "incidents": self.export_rows(),
        }

    def import_state(self, state: dict) -> None:
        if self._incidents or self._next_id != 1:
            raise ValueError(
                "cannot import state onto a used incident manager"
            )
        self._next_id = int(state.get("next_id", 1))
        self.last_time = float(state.get("last_time", 0.0))
        self.reports_ingested = int(state.get("reports_ingested", 0))
        for row in state.get("incidents", ()):
            record = IncidentRecord.from_dict(row)
            self._incidents[record.incident_id] = record
            self._stale.add(record.incident_id)
            for key in (record.stem, *record.related_stems):
                self._by_stem[key] = record.incident_id
            if not record.resolved:
                self._live[record.incident_id] = record
                self._index_prefixes(record.incident_id, record.prefixes)
            # Each reopen undid one resolve: the resolves are the
            # reopens, plus one if the record is resolved now. The
            # audit trail dates each of them.
            self.reopened_total += record.reopen_count
            self.resolved_total += record.reopen_count + record.resolved
            for move in record.transitions:
                if move.to_status == IncidentStatus.RESOLVED.value:
                    self._tally_resolve(move.at - record.opened_at)


#: The text before which :func:`tag_shard` splices the shard.
_STATUS_KEY = ', "status": '


def tag_shard(text: str, shard: int) -> str:
    """*text*, an :meth:`IncidentManager.export_rows` text, tagged with
    *shard*: ``dumps(dict(row, shard=shard))``, without encoding again.

    ``sort_keys`` puts ``shard`` just before ``status``
    (``severity_band`` < ``shard`` < ``status``). Every key before
    ``status`` holds a number, a string or a list of strings (or of
    string pairs), and inside an encoded string every ``"`` is escaped,
    so the first ``, "status": `` in the text is the top-level key.
    """
    at = text.index(_STATUS_KEY)
    return f'{text[:at]}, "shard": {shard}{text[at:]}'
