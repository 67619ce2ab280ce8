"""The monitor loop: source → pipeline → incident log, forever.

:class:`MonitorCore` is the one implementation of that loop's body. It
wires a :class:`~repro.pipeline.sources.Source` into the two-stage
analysis pipeline (windowed Stemming, TAMP annotation), persists every
emitted window report to the checkpoint store's incident log, grows
the managed incidents from the reports, and checkpoints at quiescent
points. Two drivers own the *loop*: :func:`monitor_loop` below
(pacing, metrics, crash injection, ``max_events``), which cuts each
batch after every event that closes a window so a report leaves as
soon as its closing event is in, and the serve layer's
:class:`~repro.serve.sharding.ShardSet`, which pumps whole batches
through one core per shard between HTTP requests (a shard's
transitions reach readers only when its ``offer`` returns, so cutting
there would gain nothing). Both are coroutines on the process's
one event loop: each batch starts with an ``asyncio.sleep`` for the
pacer's delay (0 when unpaced), and that await is where HTTP requests
on the same loop run, against the state at a batch boundary.
:func:`run_monitor` is ``asyncio.run`` of :func:`monitor_loop`, for a
caller with no loop of its own.

Determinism boundary — what resume restores bit-identically:
everything that reaches the incident log (window fingerprints, ranked
stems, TAMP annotations), the pipeline/window/TAMP state behind it,
and the managed incident lifecycle (the
:class:`~repro.incidents.manager.IncidentManager` snapshot rides in
every checkpoint, and the sqlite store is re-synced from it on resume
so a crash/resume run ends with byte-identical incident ids, states
and timestamps). What it deliberately does not restore: the metrics
registry (a resumed process is a new process; its counters say so).

Crash semantics, used by the chaos tests: a
:class:`~repro.testkit.crash.CrashPlan` fires *after* a part of a
batch is pumped but *before* its outputs are persisted, and before the
batch is checkpointed — the worst legal moment; the parts before it
may have put reports in the incident log already. ``max_events``
stops the run the same hard way (no flush, no final checkpoint), which
is how the CI smoke job simulates a kill it can later resume from.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from repro.incidents.manager import IncidentManager, IncidentPolicy
from repro.incidents.store import INCIDENT_DB, IncidentStore
from repro.mrt.ingest import IngestReport
from repro.pipeline.checkpoint import (
    CheckpointError,
    CheckpointState,
    CheckpointStore,
)
from repro.pipeline.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelledGauge,
    Metric,
    MetricsRegistry,
)
from repro.pipeline.runtime import Batch, Pipeline, iter_batches
from repro.pipeline.sources import Pacer, Source
from repro.pipeline.windows import (
    TampAnnotator,
    WindowedStemmer,
    WindowReport,
    WindowState,
)
from repro.testkit.crash import CrashPlan

#: Called with each window report once it is in the incident log.
ReportHook = Optional[Callable[[WindowReport], None]]

#: Where the lifecycle fields below take their defaults from.
_DEFAULT_POLICY = IncidentPolicy()


@dataclass(frozen=True)
class MonitorConfig:
    """Everything that shapes a monitor run.

    :meth:`describe` returns the subset that determines the *output*
    (window geometry, stemming knobs, batching); that
    subset is written into checkpoints and must match on resume.
    Operational knobs — pacing, checkpoint cadence, ``max_events`` —
    may differ between the original run and the resume without
    affecting bit-identity.
    """

    window: float = 300.0
    slide: Optional[float] = None
    batch_size: int = 256
    # Accepted and unused: bench/monitor.py, frozen outside benchmark
    # PRs, reads both, and describe() keeps writing them so checkpoint
    # configs stay the same. The pipeline holds no queue.
    max_queue: int = 64
    policy: str = "block"
    min_strength: int = _DEFAULT_POLICY.min_strength
    max_components: int = 16
    # Accepted and unused: bench/monitor.py, frozen outside benchmark
    # PRs, reads it. Nothing in the monitor shards.
    workers: Optional[int] = None
    pace: float = 0.0
    checkpoint_every: int = 1
    keep_checkpoints: int = 3
    resolve_after: float = _DEFAULT_POLICY.resolve_after
    correlation_window: float = _DEFAULT_POLICY.correlation_window
    reopen_window: float = _DEFAULT_POLICY.reopen_window
    investigate_after: int = _DEFAULT_POLICY.investigate_after
    prefix_overlap: float = _DEFAULT_POLICY.prefix_overlap
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"--batch-size must be at least 1, got {self.batch_size}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                "--checkpoint-every must be at least 1,"
                f" got {self.checkpoint_every}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(
                f"--max-events must be at least 1, got {self.max_events}"
            )

    def incident_policy(self) -> IncidentPolicy:
        return IncidentPolicy(
            resolve_after=self.resolve_after,
            correlation_window=self.correlation_window,
            reopen_window=self.reopen_window,
            investigate_after=self.investigate_after,
            prefix_overlap=self.prefix_overlap,
            min_strength=self.min_strength,
        )

    def describe(self) -> dict[str, object]:
        return {
            "window": self.window,
            "slide": self.window if self.slide is None else self.slide,
            "batch_size": self.batch_size,
            "max_queue": self.max_queue,
            "policy": self.policy,
            "min_strength": self.min_strength,
            "max_components": self.max_components,
            # Incident-lifecycle knobs are output-shaping too: the
            # manager's state is checkpointed, so resuming under a
            # different policy would grow different incidents.
            "incidents": self.incident_policy().describe(),
        }


class MonitorCore:
    """One monitor pipeline and its durable state, driven from outside.

    Collaborators are attributes. The ones that mutate on every pump
    carry a ``live_`` prefix, which is what lets lint rule SRV001 keep
    serve handlers off them. A driver calls :meth:`pump` and
    :meth:`drain` per batch, or per part of one (:func:`monitor_loop`
    cuts at closing events), then :meth:`checkpoint_if_due` per batch
    (:meth:`feed` is the three in a row over a whole batch),
    :meth:`finish` at end of stream and :meth:`close` on the way out.
    Collaborator methods are looked up at each call, never cached:
    instrumentation rebinds them per instance and may swap
    ``live_manager`` for a stand-in.

    Construction leaves what an earlier run wrote alone. A resume
    restores the latest checkpoint; a fresh start (or a resume that
    finds no checkpoint) starts at zero. The first :meth:`pump` or
    :meth:`finish` then brings the directory level with that position:
    the incident log is cut back to ``reports_emitted`` lines and the
    sqlite store re-synced, and a start at zero also removes the
    checkpoints it finds, so what a dead or earlier run wrote past that
    position is gone before the replay re-emits it. A run whose source
    fails before yielding an event leaves the directory as it was.
    """

    def __init__(
        self,
        source: Source,
        config: MonitorConfig,
        *,
        checkpoint_dir: Optional[str | Path] = None,
        resume: bool = False,
    ) -> None:
        self.source = source
        self.config = config
        self.store: Optional[CheckpointStore] = None
        self.incident_store: Optional[IncidentStore] = None
        if resume and checkpoint_dir is None:
            raise CheckpointError("resume requires a checkpoint directory")
        state: Optional[CheckpointState] = None
        if checkpoint_dir is not None:
            self.store = CheckpointStore(
                checkpoint_dir, keep=config.keep_checkpoints
            )
            state = self.store.latest() if resume else None
            if state is not None:
                state.matches(source.describe(), config.describe())
            self.incident_store = IncidentStore(
                self.store.directory / INCIDENT_DB
            )
        self.live_window = WindowedStemmer(
            config.window,
            config.slide,
            min_strength=config.min_strength,
            max_components=config.max_components,
        )
        self.live_tamp = TampAnnotator()
        self.live_pipeline = Pipeline([self.live_window, self.live_tamp])
        self.live_manager = IncidentManager(
            policy=config.incident_policy()
        )
        #: Stream offset reached (== total events ever processed).
        self.offset = 0
        self.reports_emitted = 0
        #: Events pumped and checkpoints written by *this* core.
        self.events_done = 0
        self.checkpoints_written = 0
        self.latest_window_end = 0.0
        self.finished = False
        if state is not None:
            self._restore(state)
        self._fresh = state is None
        self._reconciled = self.store is None
        self._last_checkpoint_window = self.live_window.window_index

    def _reconcile(self) -> None:
        """Cut the directory back to the position the core starts from."""
        assert self.store is not None and self.incident_store is not None
        if self._fresh:
            # Starting at zero: an earlier run's checkpoints sort after
            # ours until we pass their offsets, so pruning would unlink
            # each new one and a resume would restore the old run.
            for path in self.store.checkpoints():
                path.unlink()
        self.store.truncate_reports(self.reports_emitted)
        self.incident_store.sync(self.live_manager, self.reports_emitted)
        self._reconciled = True

    def _restore(self, state: CheckpointState) -> None:
        self.live_window.restore_state(WindowState.from_dict(state.window))
        self.live_tamp.restore_state(state.tamp)
        self.live_pipeline.restore_stats(state.stats)
        self.offset = state.offset
        self.reports_emitted = state.reports_emitted
        if state.incidents is not None:
            self.live_manager.import_state(state.incidents)
        if state.ingest is not None and self.source.ingest_report is None:
            self.source.ingest_report = IngestReport.from_dict(state.ingest)

    def pump(self, batch: Batch) -> None:
        """Push *batch* through the stages; outputs wait for a drain."""
        if not self._reconciled:
            self._reconcile()
        self.live_pipeline.feed(batch)
        self.offset = batch.end_offset
        self.events_done += len(batch)

    def drain(self, on_report: ReportHook = None) -> list[dict[str, object]]:
        """Persist the reports the last pump closed.

        Each report grows the incidents, lands in the incident log and
        is then handed to *on_report*. Returns the transition-feed
        entries the incident fold made, report by report.
        """
        entries: list[dict[str, object]] = []
        for item in self.live_pipeline.take():
            assert isinstance(item, WindowReport)
            self.reports_emitted += 1
            self.latest_window_end = item.end
            entries.extend(self.live_manager.ingest(item))
            if self.store is not None:
                self.store.append_report(item.to_dict())
            if on_report is not None:
                on_report(item)
        return entries

    def checkpoint_if_due(self) -> bool:
        """Checkpoint once ``checkpoint_every`` windows have closed."""
        closed = self.live_window.window_index - self._last_checkpoint_window
        if self.store is None or closed < self.config.checkpoint_every:
            return False
        self.checkpoint()
        return True

    def checkpoint(self) -> None:
        """Save the state, then bring the sqlite store level with it."""
        assert self.store is not None and self.incident_store is not None
        ingest = self.source.ingest_report
        self.store.save(
            CheckpointState(
                source=self.source.describe(),
                config=self.config.describe(),
                offset=self.offset,
                reports_emitted=self.reports_emitted,
                window=self.live_window.export_state().to_dict(),
                tamp=self.live_tamp.export_state(),
                stats=self.live_pipeline.stats(),
                ingest=None if ingest is None else ingest.to_dict(),
                incidents=self.live_manager.export_state(),
            )
        )
        self.incident_store.sync(self.live_manager, self.reports_emitted)
        self.checkpoints_written += 1
        self._last_checkpoint_window = self.live_window.window_index

    def feed(self, batch: Batch) -> list[dict[str, object]]:
        """Pump, drain and checkpoint if due; returns the transitions."""
        self.pump(batch)
        entries = self.drain()
        self.checkpoint_if_due()
        return entries

    def finish(self, on_report: ReportHook = None) -> list[dict[str, object]]:
        """End of stream: flush, resolve what is live, checkpoint.

        Never called on a hard stop — a killed run leaves incidents
        live so the resume keeps growing them identically.
        """
        if self.finished:
            return []
        if not self._reconciled:
            self._reconcile()
        self.live_pipeline.flush()
        entries = self.drain(on_report)
        entries.extend(self.live_manager.finalize())
        if self.store is not None:
            self.checkpoint()
        self.finished = True
        return entries

    def close(self) -> None:
        if self.incident_store is not None:
            self.incident_store.close()


@dataclass
class MonitorResult:
    """What one :func:`run_monitor` call accomplished."""

    #: Window reports emitted by *this* run (a resume's list excludes
    #: windows already in the incident log before it started).
    reports: list[WindowReport]
    #: Events processed by this run.
    events: int
    #: Stream offset after the run (== total events ever processed).
    offset: int
    stats: dict[str, dict[str, int]]
    checkpoints_written: int
    #: "end" (source exhausted, flushed) or "max_events" (hard stop).
    stopped: str
    #: The managed incident lifecycle built (or resumed) by this run.
    incidents: IncidentManager = field(default_factory=IncidentManager)

    @property
    def report_dicts(self) -> list[dict[str, object]]:
        return [report.to_dict() for report in self.reports]


#: Bucket edges (stream seconds) for the age / time-to-resolve
#: histograms: one monitor window through a working day.
AGE_BUCKETS = (
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 14400.0, 86400.0,
)


def incident_metrics(manager: IncidentManager) -> list[Metric]:
    """The incident lifecycle metrics, read fresh from *manager*.

    A registry collector (DESIGN.md §12): it owns no counters, so the
    exposition cannot drift from the incident table. Ages are measured
    in stream time (the manager's ``last_time``), never the wall clock.
    The lifetime reopen/resolve counts are the manager's, kept at each
    move, so they never fall when resolved incidents are dropped.
    """
    reopened = Counter(
        "repro_incidents_reopened_total", "Reopen transitions made."
    )
    reopened.inc(manager.reopened_total)
    resolved = Counter(
        "repro_incidents_resolved_total", "Resolve transitions made."
    )
    resolved.inc(manager.resolved_total)
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
    now = manager.last_time
    for record in manager.all_incidents():
        if record.resolved:
            duration = record.time_to_resolve
            if duration is not None:
                ttr.observe(duration)
        else:
            ages.observe(record.age(now))
    created = Counter(
        "repro_incidents_created_total", "Incidents ever opened."
    )
    created.inc(manager.created_total)
    stream_time = Gauge(
        "repro_incidents_stream_time",
        "Latest stream timestamp folded into the manager.",
    )
    stream_time.set(now)
    return [
        LabelledGauge(
            "repro_incidents_total",
            "Incidents currently retained, by lifecycle state.",
            "status",
            manager.counts_by_status(),
        ),
        LabelledGauge(
            "repro_incidents_by_class",
            "Incidents currently retained, by triage class.",
            "class",
            manager.counts_by_class(),
        ),
        created,
        reopened,
        resolved,
        ages,
        ttr,
        stream_time,
    ]


def run_monitor(
    source: Source, config: MonitorConfig, **options: Any
) -> MonitorResult:
    """:func:`monitor_loop`, with the same keywords, on a new loop."""
    return asyncio.run(monitor_loop(source, config, **options))


async def monitor_loop(
    source: Source,
    config: MonitorConfig,
    *,
    checkpoint_dir: Optional[str | Path] = None,
    resume: bool = False,
    registry: Optional[MetricsRegistry] = None,
    on_report: ReportHook = None,
    crash_plan: Optional[CrashPlan] = None,
) -> MonitorResult:
    """Run the monitor until the source ends (or a stop/crash fires)."""
    registry = registry if registry is not None else MetricsRegistry()
    core = MonitorCore(
        source, config, checkpoint_dir=checkpoint_dir, resume=resume
    )
    registry.register_collector(partial(incident_metrics, core.live_manager))

    # -- metric handles -------------------------------------------------
    events_total = registry.counter(
        "repro_pipeline_events_total", "events admitted to the pipeline"
    )
    batches_total = registry.counter(
        "repro_pipeline_batches_total", "batches pumped"
    )
    windows_total = registry.counter(
        "repro_pipeline_windows_total", "window reports emitted"
    )
    incidents_total = registry.counter(
        "repro_pipeline_incidents_total",
        "ranked incident components emitted across all windows",
    )
    checkpoints_total = registry.counter(
        "repro_pipeline_checkpoints_total", "checkpoints written"
    )
    events_per_second = registry.gauge(
        "repro_pipeline_events_per_second",
        "events processed per wall-clock second, this run",
    )
    checkpoint_age = registry.gauge(
        "repro_pipeline_checkpoint_age_seconds",
        "seconds since the last checkpoint was written",
    )
    buffer_gauge = registry.gauge(
        "repro_pipeline_buffer_events",
        "events buffered in the current window",
    )
    index_gauge = registry.gauge(
        "repro_pipeline_index_sequences",
        "unique sequences in the window stage's sliding index"
        " (0 while it has none: restored, drained, about to reload)",
    )
    routes_gauge = registry.gauge(
        "repro_pipeline_tamp_routes", "routes in the live TAMP table"
    )
    strength_gauge = registry.gauge(
        "repro_pipeline_top_strength",
        "strength of the last closed window's strongest component",
    )
    lag_histogram = registry.histogram(
        "repro_pipeline_window_lag_seconds",
        "wall-clock delay between a window closing and its report",
    )

    clock = asyncio.get_running_loop().time
    pacer = Pacer(config.pace, clock=clock)
    run_start = clock()
    last_checkpoint_clock = pumped_at = run_start
    run_reports: list[WindowReport] = []
    stopped = "end"

    def handle_report(item: WindowReport) -> None:
        run_reports.append(item)
        windows_total.inc()
        incidents_total.inc(len(item.result.components))
        strongest = item.result.strongest
        strength_gauge.set(0 if strongest is None else strongest.strength)
        lag_histogram.observe(clock() - pumped_at)
        if on_report is not None:
            on_report(item)

    def note_checkpoint() -> None:
        nonlocal last_checkpoint_clock
        checkpoints_total.inc()
        last_checkpoint_clock = clock()

    def refresh_gauges() -> None:
        elapsed_run = max(clock() - run_start, 1e-9)
        events_per_second.set(core.events_done / elapsed_run)
        checkpoint_age.set(clock() - last_checkpoint_clock)
        buffer_gauge.set(core.live_window.buffered)
        index_gauge.set(core.live_window.index_sequences)
        routes_gauge.set(core.live_tamp.tamp.route_count())

    batches = iter_batches(
        source.events(core.offset),
        batch_size=config.batch_size,
        start_offset=core.offset,
    )
    try:
        for batch in batches:
            # Paces the replay and lets queued requests run between two
            # batches.
            await asyncio.sleep(pacer.delay(batch.events[-1].timestamp))
            # Cut after each closing event, so a report leaves before
            # the rest of its batch is admitted.
            for part in core.live_window.parts(batch):
                pumped_at = clock()
                core.pump(part)
                events_total.inc(len(part))
                if crash_plan is not None:
                    # After the pump, before persisting outputs or
                    # checkpointing: the least convenient legal instant.
                    crash_plan.fire(core.events_done)
                core.drain(handle_report)
            batches_total.inc()
            if core.checkpoint_if_due():
                note_checkpoint()
            refresh_gauges()
            if (
                config.max_events is not None
                and core.events_done >= config.max_events
            ):
                stopped = "max_events"
                break
        else:
            pumped_at = clock()
            core.finish(handle_report)
            if core.store is not None:
                note_checkpoint()
            refresh_gauges()
    finally:
        core.close()

    return MonitorResult(
        reports=run_reports,
        events=core.events_done,
        offset=core.offset,
        stats=core.live_pipeline.stats(),
        checkpoints_written=core.checkpoints_written,
        stopped=stopped,
        incidents=core.live_manager,
    )
