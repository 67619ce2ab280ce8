"""Merge/dedup and lifecycle-evolution tests for the IncidentManager.

Covers the edge cases the merge rules are easiest to get wrong on:
the same stem recurring across non-adjacent windows, overlapping but
unequal prefix sets, simultaneous incidents on distinct stems, and
reopen-after-resolve on both sides of the reopen window.
"""

import pytest

from repro.incidents.lifecycle import IncidentStatus
from repro.incidents.manager import (
    IncidentManager,
    IncidentPolicy,
    classify_component,
)
from tests.incidents.conftest import make_component, make_report


def manager(**overrides) -> IncidentManager:
    return IncidentManager(policy=IncidentPolicy(**overrides))


class TestSameStemDedup:
    def test_adjacent_windows_fold_into_one_incident(self):
        m = manager()
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002)]))
        m.ingest(make_report(1, 180.0, [make_component(1, 65001, 65002)]))
        assert len(m.all_incidents()) == 1
        record = m.all_incidents()[0]
        assert record.windows_observed == 2
        assert record.last_seen == 180.0
        assert record.first_seen == 120.0

    def test_non_adjacent_windows_still_dedup(self):
        # The same-stem rule ignores the correlation window: identity
        # is identity, however many quiet windows sit in between.
        m = manager(resolve_after=10_000.0, correlation_window=60.0)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002)]))
        m.ingest(make_report(5, 3000.0, [make_component(1, 65001, 65002)]))
        assert len(m.all_incidents()) == 1
        assert m.all_incidents()[0].windows_observed == 2

    def test_same_window_repeat_does_not_double_count(self):
        # Two components on one stem in a single report (possible when
        # ranks split an event set) must not inflate persistence.
        m = manager()
        m.ingest(
            make_report(
                0,
                120.0,
                [
                    make_component(1, 65001, 65002, strength=9),
                    make_component(2, 65001, 65002, strength=4),
                ],
            )
        )
        record = m.all_incidents()[0]
        assert record.windows_observed == 1
        assert record.peak_strength == 9
        assert record.best_rank == 1

    def test_weak_components_never_form_incidents(self):
        m = manager(min_strength=3)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002, strength=2)]))
        assert m.all_incidents() == []
        assert m.created_total == 0


class TestPrefixOverlapMerge:
    def test_overlapping_but_unequal_sets_merge(self):
        m = manager()
        m.ingest(
            make_report(
                0, 120.0,
                [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24", "10.0.1.0/24"))],
            )
        )
        # Different stem, 2-of-3 Jaccard = 2/3 >= 0.5: same incident.
        m.ingest(
            make_report(
                1, 180.0,
                [
                    make_component(
                        1, 65009, 65010,
                        prefixes=(
                            "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"
                        ),
                    )
                ],
            )
        )
        assert len(m.all_incidents()) == 1
        record = m.all_incidents()[0]
        assert record.stem == ("65001", "65002")
        assert record.related_stems == (("65009", "65010"),)
        assert record.prefixes == frozenset(
            {"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"}
        )

    def test_merged_stem_keys_future_lookups(self):
        m = manager()
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002)]))
        m.ingest(make_report(1, 180.0, [make_component(1, 65009, 65010)]))
        # A later recurrence of the merged-in stem must hit the same
        # incident through the by-stem index, not re-merge by prefixes.
        m.ingest(
            make_report(
                2, 240.0,
                [make_component(1, 65009, 65010, prefixes=("192.168.0.0/16",))],
            )
        )
        assert len(m.all_incidents()) == 1
        assert m.all_incidents()[0].windows_observed == 3

    def test_insufficient_overlap_opens_a_second_incident(self):
        m = manager()
        m.ingest(
            make_report(
                0, 120.0,
                [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24", "10.0.1.0/24"))],
            )
        )
        # 1-of-5 Jaccard = 0.2 < 0.5: genuinely separate.
        m.ingest(
            make_report(
                1, 180.0,
                [
                    make_component(
                        1, 65009, 65010,
                        prefixes=(
                            "10.0.0.0/24", "10.9.0.0/24",
                            "10.9.1.0/24", "10.9.2.0/24",
                        ),
                    )
                ],
            )
        )
        assert len(m.all_incidents()) == 2

    def test_merge_respects_the_correlation_window(self):
        m = manager(resolve_after=10_000.0, correlation_window=100.0)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002)]))
        # Identical prefixes but the incident was last seen 480s ago —
        # outside the 100s correlation window, so no merge.
        m.ingest(make_report(4, 600.0, [make_component(1, 65009, 65010)]))
        assert len(m.all_incidents()) == 2

    def test_empty_prefix_sets_never_merge(self):
        m = manager()
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002, prefixes=())]))
        m.ingest(make_report(1, 180.0, [make_component(1, 65009, 65010, prefixes=())]))
        assert len(m.all_incidents()) == 2

    @staticmethod
    def pfx(*octets: int) -> tuple[str, ...]:
        return tuple(f"10.0.{o}.0/24" for o in octets)

    def test_the_best_jaccard_wins_among_candidates(self):
        m = manager(prefix_overlap=0.1)
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=self.pfx(1, 2, 3, 4)),
                    make_component(2, 65003, 65004, prefixes=self.pfx(5, 6)),
                ],
            )
        )
        # Jaccard 1/6 with #1 and 2/3 with #2: both clear 0.1, the
        # higher one takes it although its id is not the lowest.
        changed = m.ingest(
            make_report(
                1, 180.0,
                [make_component(1, 65009, 65010, prefixes=self.pfx(1, 5, 6))],
            )
        )
        # The merge is #2's second window: its escalation is the fold's
        # one transition.
        assert [e["incident"] for e in changed] == [2]
        assert len(m.all_incidents()) == 2
        assert m.get(2).related_stems == (("65009", "65010"),)
        assert m.get(1).related_stems == ()

    def test_an_exact_tie_goes_to_the_lowest_id(self):
        m = manager(prefix_overlap=0.3)
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=self.pfx(1, 2)),
                    make_component(2, 65003, 65004, prefixes=self.pfx(3, 4)),
                ],
            )
        )
        # 1/3 with each.
        m.ingest(
            make_report(
                1, 180.0,
                [make_component(1, 65009, 65010, prefixes=self.pfx(4, 1))],
            )
        )
        assert m.get(1).related_stems == (("65009", "65010"),)
        assert m.get(2).related_stems == ()

    def test_a_resolved_incident_is_never_a_candidate(self):
        m = manager(resolve_after=60.0)
        m.ingest(
            make_report(
                0, 120.0,
                [make_component(1, 65001, 65002, prefixes=self.pfx(1, 2))],
            )
        )
        m.ingest(
            make_report(
                1, 180.0,
                [make_component(1, 65003, 65004, prefixes=self.pfx(9))],
            )
        )
        assert m.get(1).status is IncidentStatus.RESOLVED
        # The same prefix set on a third stem: a new incident, and #1
        # stays resolved.
        m.ingest(
            make_report(
                2, 200.0,
                [make_component(1, 65009, 65010, prefixes=self.pfx(1, 2))],
            )
        )
        assert [r.incident_id for r in m.all_incidents()] == [1, 2, 3]
        assert m.get(1).status is IncidentStatus.RESOLVED
        assert m.get(1).related_stems == ()

    def test_a_reopened_incident_is_a_candidate_with_its_full_prefix_set(self):
        m = manager(resolve_after=60.0, reopen_window=10_000.0)
        m.ingest(
            make_report(
                0, 120.0,
                [make_component(1, 65001, 65002, prefixes=self.pfx(1, 2, 3))],
            )
        )
        m.ingest(
            make_report(
                1, 180.0,
                [make_component(1, 65003, 65004, prefixes=self.pfx(9))],
            )
        )
        assert m.get(1).status is IncidentStatus.RESOLVED
        # Reopened by its stem with one new prefix ...
        m.ingest(
            make_report(
                2, 200.0,
                [make_component(1, 65001, 65002, prefixes=self.pfx(7))],
            )
        )
        assert not m.get(1).resolved and m.get(1).reopen_count == 1
        # ... it matches on the prefixes it held before it resolved:
        # Jaccard 3/4 with {1, 2, 3, 7}.
        m.ingest(
            make_report(
                3, 220.0,
                [make_component(1, 65009, 65010, prefixes=self.pfx(1, 2, 3))],
            )
        )
        assert len(m.all_incidents()) == 2
        assert m.get(1).related_stems == (("65009", "65010"),)

    def test_a_candidate_outside_the_correlation_window_is_skipped(self):
        m = manager(
            resolve_after=10_000.0,
            correlation_window=100.0,
            prefix_overlap=0.3,
        )
        m.ingest(
            make_report(
                0, 120.0,
                [make_component(1, 65001, 65002, prefixes=self.pfx(1, 2, 3))],
            )
        )
        m.ingest(
            make_report(
                1, 280.0,
                [make_component(1, 65003, 65004, prefixes=self.pfx(4, 5))],
            )
        )
        # Jaccard 3/5 with #1 (last seen 180s ago) and 2/5 with #2 (20s
        # ago): #1 scores higher but is out of the window.
        m.ingest(
            make_report(
                2, 300.0,
                [
                    make_component(
                        1, 65009, 65010, prefixes=self.pfx(1, 2, 3, 4, 5)
                    )
                ],
            )
        )
        assert len(m.all_incidents()) == 2
        assert m.get(2).related_stems == (("65009", "65010"),)
        assert m.get(1).related_stems == ()


class TestSimultaneousIncidents:
    def test_distinct_stems_in_one_window_get_distinct_ids(self):
        m = manager()
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                    make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
                    make_component(3, 65005, 65006, prefixes=("10.2.0.0/24",)),
                ],
            )
        )
        records = m.all_incidents()
        assert [r.incident_id for r in records] == [1, 2, 3]
        assert [r.best_rank for r in records] == [1, 2, 3]
        assert len({r.stem for r in records}) == 3

    def test_ingest_returns_changed_records_in_id_order(self):
        m = manager()
        changed = m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",)),
                    make_component(2, 65001, 65002, prefixes=("10.0.0.0/24",)),
                ],
            )
        )
        assert [(e["incident"], e["to"]) for e in changed] == [
            (1, "open"),
            (2, "open"),
        ]

    def test_each_evolves_independently(self):
        m = manager(resolve_after=300.0)
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                    make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
                ],
            )
        )
        # Only the first stem persists; the second ages out.
        m.ingest(make_report(1, 180.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        m.ingest(make_report(6, 480.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        by_id = {r.incident_id: r for r in m.all_incidents()}
        assert not by_id[1].resolved
        assert by_id[2].resolved
        assert by_id[2].transitions[-1].reason.startswith("quiet for")


class TestEscalationAndAging:
    def test_persistence_escalates_to_investigating(self):
        m = manager(investigate_after=2)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002)]))
        assert m.all_incidents()[0].status is IncidentStatus.OPEN
        m.ingest(make_report(1, 180.0, [make_component(1, 65001, 65002)]))
        assert m.all_incidents()[0].status is IncidentStatus.INVESTIGATING

    def test_quiet_incident_resolves_after_the_policy_window(self):
        m = manager(resolve_after=300.0)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        changed = m.ingest(
            make_report(6, 480.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))])
        )
        record = m.get(1)
        assert record is not None and record.resolved
        assert record.resolved_at == 480.0
        # Touched records' moves first, then the aged ones'.
        assert [(e["incident"], e["to"]) for e in changed] == [
            (2, "open"),
            (1, "resolved"),
        ]

    def test_finalize_resolves_every_live_incident(self):
        m = manager()
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                    make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
                ],
            )
        )
        changed = m.finalize()
        assert len(changed) == 2
        assert all(r.resolved for r in m.all_incidents())
        assert all(
            r.transitions[-1].reason == "end of stream"
            for r in m.all_incidents()
        )
        # Idempotent: nothing left to resolve.
        assert m.finalize() == []


class TestReopenAfterResolve:
    def quiet_then_recur(self, gap: float) -> IncidentManager:
        m = manager(resolve_after=300.0, reopen_window=900.0)
        m.ingest(make_report(0, 120.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        # A foreign stem drives stream time forward so #1 ages out.
        m.ingest(make_report(6, 480.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))]))
        assert m.get(1).resolved
        m.ingest(
            make_report(
                9, 480.0 + gap,
                [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))],
            )
        )
        return m

    def test_recurrence_inside_the_window_reopens_the_same_id(self):
        m = self.quiet_then_recur(gap=600.0)
        record = m.get(1)
        assert not record.resolved
        assert record.reopen_count == 1
        assert record.resolved_at is None
        assert m.created_total == 2  # no third incident was minted
        # The audit trail shows the resolved -> open edge explicitly.
        edges = [(t.from_status, t.to_status) for t in record.transitions]
        assert ("resolved", "open") in edges

    def test_recurrence_beyond_the_window_is_a_new_incident(self):
        m = self.quiet_then_recur(gap=2000.0)
        assert m.get(1) is None  # the stale incident was unlinked
        assert m.created_total == 3
        fresh = m.get(3)
        assert fresh is not None
        assert fresh.stem == ("65001", "65002")
        assert fresh.reopen_count == 0

    def test_reopen_counts_as_persistence_and_escalates(self):
        # The reopened window is the incident's second observation, so
        # the same ingest escalates it straight to investigating.
        m = self.quiet_then_recur(gap=600.0)
        record = m.get(1)
        assert record.status is IncidentStatus.INVESTIGATING
        assert record.windows_observed == 2


class TestRetention:
    def test_max_resolved_evicts_oldest_first(self):
        m = manager(resolve_after=100.0, max_resolved=1)
        m.ingest(make_report(0, 100.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        m.ingest(make_report(2, 300.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))]))
        m.ingest(make_report(4, 500.0, [make_component(1, 65005, 65006, prefixes=("10.2.0.0/24",))]))
        # #1 and #2 both resolved; only the newest resolution survives.
        retained = {r.incident_id for r in m.all_incidents()}
        assert retained == {2, 3}


class TestStatePersistence:
    def evolved_manager(self) -> IncidentManager:
        m = manager(resolve_after=300.0)
        m.ingest(
            make_report(
                0, 120.0,
                [
                    make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                    make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
                ],
            )
        )
        m.ingest(make_report(1, 180.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        m.ingest(make_report(6, 480.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
        return m

    def test_export_import_round_trip_is_exact(self):
        source = self.evolved_manager()
        clone = IncidentManager(policy=source.policy)
        clone.import_state(source.export_state())
        assert clone.export_state() == source.export_state()
        assert clone.counts_by_status() == source.counts_by_status()
        # The rebuilt index must drive identical future evolution.
        report = make_report(7, 540.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))])
        source.ingest(report)
        clone.ingest(report)
        assert clone.export_state() == source.export_state()

    def test_import_refuses_a_used_manager(self):
        source = self.evolved_manager()
        with pytest.raises(ValueError, match="used incident manager"):
            source.import_state(source.export_state())


class TestClassification:
    def test_mass_withdrawal(self):
        c = make_component(1, 65001, 65002, withdrawals=9, announcements=1)
        assert classify_component(c) == "mass-withdrawal"

    def test_flap(self):
        c = make_component(
            1, 65001, 65002, withdrawals=4, announcements=4,
            prefixes=("10.0.0.0/24", "10.0.1.0/24"),
        )
        assert classify_component(c) == "flap"

    def test_announcement_flood(self):
        c = make_component(
            1, 65001, 65002, withdrawals=0, announcements=40,
            prefixes=tuple(f"10.0.{i}.0/24" for i in range(8)),
        )
        assert classify_component(c) == "announcement-flood"

    def test_path_change_is_the_default(self):
        c = make_component(1, 65001, 65002, withdrawals=1, announcements=7)
        assert classify_component(c) == "path-change"

    def test_empty_evidence_is_bare_correlation(self):
        c = make_component(1, 65001, 65002, withdrawals=0, announcements=0)
        assert classify_component(c) == "correlation"
