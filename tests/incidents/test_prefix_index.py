"""The indexed incident fold against the linear scan it replaced.

``IncidentManager`` keeps its live incidents and an index from prefix
string to the live incidents holding it, so a prefix-overlap merge
scores only the incidents that share a prefix, and aging and
``active()`` walk only the live ones. :class:`ScanningManager` is the fold as it was before the
index — every retained incident sorted and scanned per unmatched
component — and the two must build the same rows after every report,
over the scenario timelines of ``test_row_caches``: reopens, prefix
merges, evictions, a restore from a checkpoint and ``finalize``.
"""

from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.incidents import IncidentManager, IncidentPolicy
from repro.incidents.lifecycle import (
    IncidentRecord,
    IncidentStatus,
    transition,
)
from repro.incidents.manager import _jaccard
from tests.incidents.test_row_caches import (
    GEOMETRIES,
    SCENARIOS,
    policies,
    timeline,
)


class ScanningManager(IncidentManager):
    """The reference fold: no live set, no prefix index."""

    __slots__ = ()

    def finalize(self, at: Optional[float] = None) -> list[IncidentRecord]:
        now = self.last_time if at is None else at
        changed = []
        for record in self._records_by_id():
            if not record.resolved:
                transition(
                    record, IncidentStatus.RESOLVED, now, "end of stream"
                )
                changed.append(record)
        self._stale.update(record.incident_id for record in changed)
        return changed

    def _merge_by_prefixes(
        self, prefixes: frozenset[str], now: float
    ) -> Optional[IncidentRecord]:
        if not prefixes:
            return None
        best: Optional[IncidentRecord] = None
        best_overlap = 0.0
        for record in self._records_by_id():
            if record.resolved:
                continue
            if now - record.last_seen > self.policy.correlation_window:
                continue
            overlap = _jaccard(prefixes, record.prefixes)
            if overlap > best_overlap:
                best_overlap = overlap
                best = record
        if best is not None and best_overlap >= self.policy.prefix_overlap:
            return best
        return None

    def _age(self, touched_ids: set[int], now: float) -> list[IncidentRecord]:
        changed = []
        for record in self._records_by_id():
            if record.incident_id in touched_ids or record.resolved:
                continue
            if now - record.last_seen >= self.policy.resolve_after:
                transition(
                    record,
                    IncidentStatus.RESOLVED,
                    now,
                    f"quiet for {now - record.last_seen:.0f}s",
                )
                changed.append(record)
        return changed


def assert_index_current(manager: IncidentManager) -> None:
    """The live set and prefix index equal a rebuild from the records."""
    live = {
        r.incident_id: r for r in manager.all_incidents() if not r.resolved
    }
    assert manager._live == live
    rebuilt: dict[str, set[int]] = {}
    for incident_id, record in live.items():
        for prefix in record.prefixes:
            rebuilt.setdefault(prefix, set()).add(incident_id)
    assert manager._by_prefix == rebuilt


def rows(manager: IncidentManager) -> list[dict]:
    return [record.to_dict() for record in manager.all_incidents()]


def ids(records: list[IncidentRecord]) -> list[int]:
    return [record.incident_id for record in records]


def active_by_scan(manager: IncidentManager) -> list[int]:
    """``active()`` as a scan of every retained incident gives it."""
    return ids(
        sorted(
            (r for r in manager.all_incidents() if not r.resolved),
            key=lambda r: (-r.severity, r.incident_id),
        )
    )


class TestIndexedFoldEqualsTheScan:
    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(SCENARIOS),
                st.sampled_from((0.0, 200.0, 2000.0)),
            ),
            min_size=1,
            max_size=6,
        ),
        geometry=st.sampled_from(GEOMETRIES),
        policy=policies,
        restore_at=st.integers(0, 60),
        finish=st.booleans(),
    )
    # Pinned: the valley leak's incident (and its prefix-merged second
    # stem) resolves under community-signal's windows and reopens when
    # the leak returns.
    @example(
        segments=[
            ("valley-route-leak", 0.0),
            ("community-signal", 200.0),
            ("valley-route-leak", 200.0),
        ],
        geometry=(30.0, 15.0),
        policy=IncidentPolicy(
            resolve_after=30.0, reopen_window=1e12, prefix_overlap=0.05
        ),
        restore_at=5,
        finish=True,
    )
    def test_after_every_report(
        self, segments, geometry, policy, restore_at, finish
    ):
        reports = timeline(segments, *geometry)
        indexed = IncidentManager(policy=policy)
        scanning = ScanningManager(policy=policy)
        for number, report in enumerate(reports):
            if number == restore_at:
                # A resumed monitor: the index is rebuilt by import.
                restored = IncidentManager(policy=policy)
                restored.import_state(indexed.export_state())
                indexed = restored
            assert ids(indexed.ingest(report)) == ids(scanning.ingest(report))
            assert rows(indexed) == rows(scanning)
            assert ids(indexed.active()) == active_by_scan(scanning)
            assert_index_current(indexed)
        if finish:
            assert ids(indexed.finalize()) == ids(scanning.finalize())
            assert rows(indexed) == rows(scanning)
            assert_index_current(indexed)
        assert indexed.export_rows() == scanning.export_rows()
