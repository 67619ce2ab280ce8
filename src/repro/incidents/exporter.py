"""Prometheus-style exposition for the incident lifecycle.

Modeled on Sintra's ``event_manager/prometheus_exporter.py``: the
exporter owns no counters of its own — every scrape derives the full
metric set fresh from the manager's current incident table, so the
exposition can never drift from the store. All ages are measured in
*stream time* (the manager's ``last_time``), keeping the exporter on
the same determinism footing as everything else the monitor persists.

Metric names (DESIGN.md §12):

* ``repro_incidents_total{status=...}`` — live counts per lifecycle
  state (gauge; resolved incidents fall out when compacted);
* ``repro_incidents_by_class{class=...}`` — counts per triage class;
* ``repro_incidents_created_total`` / ``..._reopened_total`` /
  ``..._resolved_total`` — lifetime counters from transition history;
* ``repro_incident_age_seconds`` — histogram of live incident ages;
* ``repro_incident_time_to_resolve_seconds`` — histogram of
  open→resolved durations over retained resolved incidents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.incidents.lifecycle import IncidentStatus
from repro.incidents.manager import IncidentManager

if TYPE_CHECKING:  # import would cycle through repro.pipeline.monitor
    from repro.pipeline.metrics import Histogram

#: Bucket edges (stream seconds) for the age / time-to-resolve
#: histograms: one monitor window through a working day.
AGE_BUCKETS = (
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 14400.0, 86400.0,
)


class IncidentExporter:
    """Registry collector deriving incident metrics at scrape time."""

    def __init__(self, manager: IncidentManager) -> None:
        self.manager = manager

    def _histograms(self) -> "tuple[Histogram, Histogram]":
        # Imported here, not at module level: repro.pipeline.monitor
        # imports this module, so a top-level metrics import would
        # close an import cycle through the pipeline package.
        from repro.pipeline.metrics import Histogram

        ages = Histogram(
            "repro_incident_age_seconds",
            "Age of live incidents in stream seconds.",
            AGE_BUCKETS,
        )
        ttr = Histogram(
            "repro_incident_time_to_resolve_seconds",
            "Open-to-resolved duration of retained resolved incidents.",
            AGE_BUCKETS,
        )
        now = self.manager.last_time
        for record in self.manager.all_incidents():
            if record.resolved:
                duration = record.time_to_resolve
                if duration is not None:
                    ttr.observe(duration)
            else:
                ages.observe(record.age(now))
        return ages, ttr

    def _lifetime_counts(self) -> tuple[int, int]:
        reopened = resolved = 0
        for record in self.manager.all_incidents():
            for event in record.transitions:
                if event.to_status == IncidentStatus.RESOLVED.value:
                    resolved += 1
                elif event.from_status == IncidentStatus.RESOLVED.value:
                    reopened += 1
        return reopened, resolved

    def render_text(self) -> str:
        from repro.pipeline.metrics import _format_number

        by_status = self.manager.counts_by_status()
        by_class = self.manager.counts_by_class()
        reopened, resolved = self._lifetime_counts()
        ages, ttr = self._histograms()
        lines = [
            "# HELP repro_incidents_total Incidents currently"
            " retained, by lifecycle state.",
            "# TYPE repro_incidents_total gauge",
        ]
        for status in IncidentStatus:
            lines.append(
                f'repro_incidents_total{{status="{status.value}"}}'
                f" {by_status.get(status.value, 0)}"
            )
        lines.append(
            "# HELP repro_incidents_by_class Incidents currently"
            " retained, by triage class."
        )
        lines.append("# TYPE repro_incidents_by_class gauge")
        for klass, count in by_class.items():
            lines.append(
                f'repro_incidents_by_class{{class="{klass}"}} {count}'
            )
        lines.append(
            "# HELP repro_incidents_created_total Incidents ever opened."
        )
        lines.append("# TYPE repro_incidents_created_total counter")
        lines.append(
            f"repro_incidents_created_total {self.manager.created_total}"
        )
        lines.append(
            "# HELP repro_incidents_reopened_total Reopen transitions"
            " over retained incidents."
        )
        lines.append("# TYPE repro_incidents_reopened_total counter")
        lines.append(f"repro_incidents_reopened_total {reopened}")
        lines.append(
            "# HELP repro_incidents_resolved_total Resolve transitions"
            " over retained incidents."
        )
        lines.append("# TYPE repro_incidents_resolved_total counter")
        lines.append(f"repro_incidents_resolved_total {resolved}")
        for histogram in (ages, ttr):
            lines.append(
                f"# HELP {histogram.name} {histogram.help}"
            )
            lines.append(f"# TYPE {histogram.name} histogram")
            lines.extend(histogram.render())
        lines.append(
            "# HELP repro_incidents_stream_time Latest stream"
            " timestamp folded into the manager."
        )
        lines.append("# TYPE repro_incidents_stream_time gauge")
        lines.append(
            "repro_incidents_stream_time"
            f" {_format_number(self.manager.last_time)}"
        )
        return "\n".join(lines) + "\n"

    def to_snapshot(self) -> dict[str, object]:
        by_status = self.manager.counts_by_status()
        reopened, resolved = self._lifetime_counts()
        ages, ttr = self._histograms()
        return {
            "repro_incidents_total": by_status,
            "repro_incidents_by_class": self.manager.counts_by_class(),
            "repro_incidents_created_total": self.manager.created_total,
            "repro_incidents_reopened_total": reopened,
            "repro_incidents_resolved_total": resolved,
            "repro_incident_age_seconds": ages.to_value(),
            "repro_incident_time_to_resolve_seconds": ttr.to_value(),
            "repro_incidents_stream_time": self.manager.last_time,
        }
