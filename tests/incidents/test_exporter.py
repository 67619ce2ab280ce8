"""Incident metrics: scrape-time derivation and registry integration."""

from functools import partial

import pytest

from repro.incidents import IncidentManager, IncidentPolicy
from repro.pipeline import (
    MetricsRegistry,
    MonitorConfig,
    SyntheticSource,
    run_monitor,
)
from repro.pipeline.monitor import incident_metrics
from tests.incidents.conftest import make_component, make_report


def scraped(manager: IncidentManager) -> MetricsRegistry:
    """A registry exporting *manager* the way ``run_monitor`` does."""
    registry = MetricsRegistry()
    registry.register_collector(partial(incident_metrics, manager))
    return registry


def lived_in_manager() -> IncidentManager:
    """One live (2 windows), one resolved, one reopened incident."""
    m = IncidentManager(
        policy=IncidentPolicy(resolve_after=300.0, reopen_window=900.0)
    )
    m.ingest(
        make_report(
            0, 120.0,
            [
                make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",)),
                make_component(2, 65003, 65004, prefixes=("10.1.0.0/24",)),
            ],
        )
    )
    # 65001 persists; 65003 goes quiet and resolves at 480.
    m.ingest(make_report(6, 480.0, [make_component(1, 65001, 65002, prefixes=("10.0.0.0/24",))]))
    # 65003 recurs inside the reopen window: resolved -> open again.
    m.ingest(make_report(9, 660.0, [make_component(1, 65003, 65004, prefixes=("10.1.0.0/24",))]))
    return m


class TestSnapshot:
    def test_counts_come_from_the_live_manager(self):
        manager = lived_in_manager()
        snapshot = scraped(manager).snapshot()
        assert snapshot["repro_incidents_total"] == manager.counts_by_status()
        assert snapshot["repro_incidents_created_total"] == 2
        assert snapshot["repro_incidents_reopened_total"] == 1
        # One resolve transition happened (later reopened) — lifetime
        # counters count transitions, not current states.
        assert snapshot["repro_incidents_resolved_total"] == 1
        assert snapshot["repro_incidents_stream_time"] == 660.0

    def test_age_histogram_covers_exactly_the_live_incidents(self):
        manager = lived_in_manager()
        snapshot = scraped(manager).snapshot()
        live = [r for r in manager.all_incidents() if not r.resolved]
        ages = snapshot["repro_incident_age_seconds"]
        assert ages["count"] == len(live) == 2
        # Ages measure against stream time (660), never the wall clock.
        assert ages["sum"] == pytest.approx(
            sum(660.0 - r.opened_at for r in live)
        )

    def test_ttr_histogram_covers_resolved_incidents(self):
        manager = lived_in_manager()
        manager.finalize()
        snapshot = scraped(manager).snapshot()
        ttr = snapshot["repro_incident_time_to_resolve_seconds"]
        assert ttr["count"] == 2
        assert snapshot["repro_incident_age_seconds"]["count"] == 0

    def test_class_breakdown_matches_the_manager(self):
        manager = lived_in_manager()
        snapshot = scraped(manager).snapshot()
        assert (
            snapshot["repro_incidents_by_class"]
            == manager.counts_by_class()
        )

    def test_an_empty_manager_exports_zeroes(self):
        snapshot = scraped(IncidentManager()).snapshot()
        assert snapshot["repro_incidents_created_total"] == 0
        assert sum(snapshot["repro_incidents_total"].values()) == 0
        assert snapshot["repro_incident_age_seconds"]["count"] == 0


LIFETIME = (
    "repro_incidents_created_total",
    "repro_incidents_resolved_total",
    "repro_incidents_reopened_total",
)


class TestLifetimeCounters:
    def test_counters_never_fall_over_a_run(self):
        # A short reopen window: recurring stems unlink their resolved
        # incidents and open new ones, taking the old moves out of the
        # retained rows.
        registry = MetricsRegistry()
        scrapes = []
        result = run_monitor(
            SyntheticSource(3000, 1800.0, seed=5),
            MonitorConfig(
                window=120.0,
                slide=60.0,
                batch_size=64,
                resolve_after=120.0,
                reopen_window=120.0,
            ),
            registry=registry,
            on_report=lambda report: scrapes.append(registry.snapshot()),
        )
        manager = result.incidents
        assert manager.created_total > len(manager.all_incidents())
        for name in LIFETIME:
            values = [scrape[name] for scrape in scrapes]
            assert values == sorted(values), name
        assert scrapes[-1]["repro_incidents_reopened_total"] > 0

    def test_a_restored_manager_counts_from_its_rows(self):
        manager = lived_in_manager()
        manager.finalize()
        restored = IncidentManager(policy=manager.policy)
        restored.import_state(manager.export_state())
        before = scraped(manager).snapshot()
        after = scraped(restored).snapshot()
        assert [after[name] for name in LIFETIME] == [
            before[name] for name in LIFETIME
        ] == [2, 3, 1]


class TestExposition:
    def test_render_text_is_prometheus_shaped(self):
        text = scraped(lived_in_manager()).render_text()
        assert '# TYPE repro_incidents_total gauge' in text
        assert 'repro_incidents_total{status="open"}' in text
        assert 'repro_incidents_total{status="investigating"}' in text
        assert 'repro_incidents_total{status="resolved"}' in text
        assert "repro_incidents_created_total 2" in text
        assert "repro_incidents_reopened_total 1" in text
        assert "# TYPE repro_incident_age_seconds histogram" in text
        assert (
            "# TYPE repro_incident_time_to_resolve_seconds histogram"
            in text
        )
        assert "repro_incidents_stream_time 660" in text

    def test_every_scrape_rederives_from_current_state(self):
        manager = lived_in_manager()
        registry = scraped(manager)
        before = registry.render_text()
        manager.finalize()
        after = registry.render_text()
        assert before != after
        assert 'repro_incidents_total{status="resolved"} 2' in after


class TestRegistryIntegration:
    def test_collector_rides_both_exposition_surfaces(self):
        registry = MetricsRegistry()
        events = registry.counter("repro_pipeline_events_total")
        events.inc(5)
        registry.register_collector(
            partial(incident_metrics, lived_in_manager())
        )
        snapshot = registry.snapshot()
        assert snapshot["repro_incidents_created_total"] == 2
        text = registry.render_text()
        assert "repro_incidents_total" in text
        # Registered metrics keep rendering alongside the collector.
        assert "repro_pipeline_events_total 5" in text
        assert snapshot["repro_pipeline_events_total"] == 5
