"""The three ``run_monitor`` workloads, untraced and traced.

Untraced passes call :func:`repro.pipeline.run_monitor` exactly as the
CLI does and time the call. The traced pass cannot: ``run_monitor``
builds its stages inside the function, so there is nothing to hand the
tracer. :func:`traced_monitor` therefore re-expresses the loop out of
the same public objects, with every call into a layer spanned, and the
gate requires it to reproduce the untraced reports and final
checkpoint byte for byte. What ``run_monitor`` does beyond that loop
(gauge refresh including ``top_strength()``, the legacy tracker, the
registry) is ``monitor.residual_s``.
"""

from __future__ import annotations

import bisect
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Iterator, Optional

from bench.common import (
    BATCH_SIZE,
    N_ROUTES,
    PROFILE,
    STREAM_RATE,
    Outcome,
    Sample,
    fresh_dir,
    layer_values,
    peak_rss_mb,
    require,
    timed_setups,
    typical,
    typical_worst,
)
from bench.clock import Lap, Meter
from bench.trace import Tracer
from repro.collector.events import BGPEvent
from repro.collector.stream import fingerprint_events
from repro.incidents.feed import load_incident_rows
from repro.incidents.manager import IncidentManager
from repro.incidents.store import INCIDENT_DB, IncidentStore
from repro.mrt.loader import dump_updates
from repro.pipeline import (
    CheckpointState,
    CheckpointStore,
    FileSource,
    MonitorConfig,
    Pipeline,
    Source,
    SyntheticSource,
    TampAnnotator,
    WindowedStemmer,
    WindowReport,
    iter_batches,
    run_monitor,
)
from repro.pipeline.windows import WindowState
from repro.stemming.stemmer import Stemmer


#: Replay speed-up of the open-loop workload: 100x the stream clock,
#: so about 1,100 events per calibrated second.
PACE = 100.0


@dataclass(frozen=True)
class MonitorWorkload:
    """Size and geometry of one monitor workload at scale 1."""

    name: str
    window: float
    slide: float
    #: Stream seconds in one closed-loop repeat; open-loop workloads
    #: take theirs from ``--seconds`` instead.
    timerange: float = 0.0
    durable: bool = False
    archive: bool = False
    pace: float = 0.0
    #: Generated events per stream second.
    rate: float = STREAM_RATE


WORKLOADS = {
    w.name: w
    for w in (
        MonitorWorkload(
            "monitor_durable",
            window=120.0,
            slide=60.0,
            timerange=1200.0,
            durable=True,
            archive=True,
            rate=60_000 / 3600.0,
        ),
        MonitorWorkload(
            "monitor_overlap", window=600.0, slide=60.0, timerange=1800.0
        ),
        MonitorWorkload(
            "monitor_paced",
            window=60.0,
            slide=15.0,
            durable=True,
            pace=PACE,
        ),
    )
}


class TimedSource(Source):
    """Hands *inner*'s events on, recording when each was due.

    With ``pace`` 0 the loop is closed and an event is due the moment
    the monitor pulls it. With ``pace`` > 0 the loop is open: the
    source sleeps until ``anchor + (timestamp - first) / pace`` on the
    calibrated clock and records that schedule time, not the time it
    woke, so a stalled monitor's lateness is charged to the reports
    that follow. ``describe()`` and the ingest report are the inner
    source's, so checkpoints come out as if the wrapper were not there.

    Every event also gives the meter its chance to sample: this
    generator is the one piece of bench code that runs all through a
    ``run_monitor`` call.
    """

    def __init__(
        self,
        inner: Source,
        meter: Meter,
        pace: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inner = inner
        self.meter = meter
        self.pace = pace
        self.tracer = tracer
        #: Stream timestamp and calibrated due time of every event
        #: yielded, in order.
        self.timestamps: list[float] = []
        self.due: list[float] = []
        #: How far behind schedule the generator itself ever ran.
        self.late_max = 0.0

    @property
    def ingest_report(self):
        return self.inner.ingest_report

    def describe(self) -> dict[str, object]:
        return self.inner.describe()

    def events(self, start_offset: int = 0) -> Iterator[BGPEvent]:
        timestamps, due = self.timestamps, self.due
        meter = self.meter
        if self.pace <= 0:
            for event in self.inner.events(start_offset):
                meter.tick()
                timestamps.append(event.timestamp)
                due.append(meter.now())
                yield event
            return
        anchor_ts: Optional[float] = None
        anchor = 0.0
        for event in self.inner.events(start_offset):
            if anchor_ts is None:
                anchor_ts, anchor = event.timestamp, meter.now()
            at = anchor + (event.timestamp - anchor_ts) / self.pace
            late = self._wait(at)
            if late > self.late_max:
                self.late_max = late
            timestamps.append(event.timestamp)
            due.append(at)
            yield event

    def _wait(self, at: float) -> float:
        if self.tracer is None or self.meter.wall_until(at) <= 0:
            return self.meter.sleep_until(at)
        with self.tracer.span("loadgen.wait"):
            return self.meter.sleep_until(at)


# -- inputs -------------------------------------------------------------


@dataclass
class MonitorInputs:
    workload: MonitorWorkload
    config: MonitorConfig
    workdir: Path
    meter: Meter
    #: Builds the source one repeat feeds from.
    open_source: Callable[[], Source]


def build_inputs(
    workload: MonitorWorkload,
    seed: int,
    seconds: float,
    scale: float,
    workdir: Path,
    meter: Meter,
) -> MonitorInputs:
    """Generate the stream (and archive) for one run from *seed*."""
    if workload.pace > 0:
        timerange = seconds * workload.pace
    else:
        timerange = workload.timerange * scale
    count = max(2, round(timerange * workload.rate))
    synthetic = SyntheticSource(
        count,
        timerange,
        profile=PROFILE,
        n_routes=N_ROUTES,
        seed=seed,
    )
    config = MonitorConfig(
        window=workload.window,
        slide=workload.slide,
        batch_size=BATCH_SIZE,
        checkpoint_every=1,
        pace=0.0,  # the bench owns the schedule (TimedSource)
    )
    if workload.archive:
        archive = workdir / "archive.mrt"
        dump_updates(synthetic.events(), archive)
        # A new FileSource per repeat: archive-replay users pay the
        # lazy MRT decode on every run, so every repeat pays it too.
        return MonitorInputs(
            workload, config, workdir, meter, lambda: FileSource(archive)
        )
    next(synthetic.events())  # generate now, not inside a timed region
    return MonitorInputs(
        workload, config, workdir, meter, lambda: synthetic
    )


# -- one repeat ---------------------------------------------------------


@dataclass
class Repeat:
    """What one pass over the inputs produced and cost.

    All times are calibrated seconds (``bench/clock.py``). Only what
    the metrics and the gate need is kept: a repeat's events and
    reports are tens of megabytes, and holding every repeat's would
    make ``peak_rss_mb`` count repeats.
    """

    wall: float
    cpu: float
    #: Events the source yielded, and the offset the monitor reached.
    events: int
    offset: int
    dropped: int
    #: Events a report should have covered and did not.
    missing: int
    checkpoints: int
    checkpoint_dir: Optional[Path]
    report_json: list[str]
    #: ``(when, delay)`` per report; see :func:`report_delays`.
    delays: list[Sample]
    closing_delays: list[Sample]
    late_max: float
    #: Kept for the traced pass's offline replay only.
    reports: list[WindowReport] = field(default_factory=list)
    timestamps: list[float] = field(default_factory=list)


def report_delays(
    source: TimedSource,
    reports: list[WindowReport],
    report_at: list[float],
    from_closing_event: bool,
) -> list[Sample]:
    """``(when, delay)`` of every report but the final partial one.

    A window's closing event is the first with ``timestamp >=
    report.end``. The delay runs from the due time of the last event of
    the *batch* that carried it — the moment the monitor had been
    handed everything the report needs — to ``on_report``. Being a
    schedule time, it still charges a stall to the windows behind it.
    With *from_closing_event* it runs from the closing event's own due
    time and so adds the wait for the batch to fill: up to 230 ms at
    the paced rate, the same on every commit, and how much of it a
    window pays depends on where its closing event falls in a batch,
    which moves the median by 10 % from seed to seed. *when* is seconds
    since the first event was due.
    """
    due, timestamps = source.due, source.timestamps
    out = []
    for report, at in zip(reports, report_at):
        index = bisect.bisect_left(timestamps, report.end)
        if index == len(due):
            continue
        if not from_closing_event:
            index = min(index | (BATCH_SIZE - 1), len(due) - 1)
        out.append((at - due[0], at - due[index]))
    return out


def summarise(
    lap: Lap,
    source: TimedSource,
    reports: list[WindowReport],
    report_at: list[float],
    *,
    offset: int,
    stats: dict[str, dict[str, int]],
    checkpoints: int,
    checkpoint_dir: Optional[Path],
    keep: bool = False,
) -> Repeat:
    require(
        len(report_at) == len(reports),
        "on_report did not fire once per report",
    )
    timestamps = source.timestamps
    missing = 0
    for report in reports:
        expected = bisect.bisect_left(
            timestamps, report.end
        ) - bisect.bisect_left(timestamps, report.start)
        missing += abs(expected - report.event_count)
    return Repeat(
        wall=lap.seconds,
        cpu=lap.cpu,
        events=len(timestamps),
        offset=offset,
        dropped=sum(s["dropped"] for s in stats.values()),
        missing=missing,
        checkpoints=checkpoints,
        checkpoint_dir=checkpoint_dir,
        report_json=[
            json.dumps(report.to_dict(), sort_keys=True)
            for report in reports
        ],
        delays=report_delays(source, reports, report_at, False),
        closing_delays=report_delays(source, reports, report_at, True),
        late_max=source.late_max,
        reports=reports if keep else [],
        timestamps=timestamps if keep else [],
    )


def run_untraced(inputs: MonitorInputs, tag: str) -> Repeat:
    workload, meter = inputs.workload, inputs.meter
    source = TimedSource(inputs.open_source(), meter, workload.pace)
    directory = (
        fresh_dir(inputs.workdir / f"ck-{tag}") if workload.durable else None
    )
    report_at: list[float] = []
    gc.collect()
    with Lap(meter) as lap:
        result = run_monitor(
            source,
            inputs.config,
            checkpoint_dir=directory,
            on_report=lambda report: report_at.append(meter.now()),
        )
    return summarise(
        lap,
        source,
        result.reports,
        report_at,
        offset=result.offset,
        stats=result.stats,
        checkpoints=result.checkpoints_written,
        checkpoint_dir=directory,
    )


def instrument_stages(
    tracer: Tracer,
    window_stage: WindowedStemmer,
    tamp_stage: TampAnnotator,
    manager: IncidentManager,
    store: Optional[CheckpointStore],
    incident_store: Optional[IncidentStore],
) -> IncidentManager:
    """Span every call into one pipeline's layers (monitor or shard).

    Returns the stand-in to use in place of *manager*: the manager's
    class has ``__slots__``, so its methods cannot be rebound in place.
    """

    def window_index() -> int:
        return window_stage.window_index

    def window_name(args: tuple, out: object) -> str:
        closed = any(isinstance(item, WindowReport) for item in out or ())
        return "windows.close" if closed else "windows.admit"

    def tamp_name(args: tuple, out: object) -> str:
        annotated = isinstance(args[0], WindowReport)
        return "tamp.annotate" if annotated else "tamp.apply"

    for obj, method, name in (
        (window_stage, "process", window_name),
        (window_stage, "flush", "windows.close"),
        (window_stage, "export_state", "checkpoint.window_export"),
        (tamp_stage, "process", tamp_name),
        (tamp_stage, "export_state", "checkpoint.tamp_export"),
        (store, "save", "checkpoint.save"),
        (store, "append_report", "checkpoint.append_report"),
        (incident_store, "sync", "store.sync"),
    ):
        if obj is not None:
            tracer.wrap(obj, method, name, window_index)
    return tracer.proxy(
        manager,
        {
            "ingest": "incidents.ingest",
            "finalize": "incidents.ingest",
            "export_state": "incidents.export",
        },
        window_index,
    )


def traced_monitor(
    inputs: MonitorInputs, tracer: Tracer, counts: dict[str, float]
) -> Repeat:
    """``run_monitor``'s loop, rebuilt so each layer call is a span."""
    workload, config, meter = inputs.workload, inputs.config, inputs.meter
    source = TimedSource(
        inputs.open_source(), meter, workload.pace, tracer
    )
    directory = (
        fresh_dir(inputs.workdir / "ck-traced") if workload.durable else None
    )
    store: Optional[CheckpointStore] = None
    incident_store: Optional[IncidentStore] = None
    if directory is not None:
        store = CheckpointStore(directory, keep=config.keep_checkpoints)
        incident_store = IncidentStore(store.directory / INCIDENT_DB)
    window_stage = WindowedStemmer(
        config.window,
        config.slide,
        min_strength=config.min_strength,
        max_components=config.max_components,
        workers=config.workers,
    )
    tamp_stage = TampAnnotator()
    pipeline = Pipeline(
        [window_stage, tamp_stage],
        max_queue=config.max_queue,
        policy=config.policy,
    )
    manager = instrument_stages(
        tracer,
        window_stage,
        tamp_stage,
        IncidentManager(policy=config.incident_policy()),
        store,
        incident_store,
    )

    reports: list[WindowReport] = []
    report_at: list[float] = []
    offset = 0
    checkpoints = 0
    last_checkpoint_window = 0
    buffered_max = routes_max = 0

    def handle_outputs() -> None:
        for item in pipeline.take():
            reports.append(item)
            manager.ingest(item)
            if store is not None:
                store.append_report(item.to_dict())
            report_at.append(meter.now())

    def write_checkpoint() -> None:
        nonlocal checkpoints
        assert store is not None and incident_store is not None
        ingest = source.ingest_report
        store.save(
            CheckpointState(
                source=source.describe(),
                config=config.describe(),
                offset=offset,
                reports_emitted=len(reports),
                window=window_stage.export_state().to_dict(),
                tamp=tamp_stage.export_state(),
                stats=pipeline.stats(),
                ingest=None if ingest is None else ingest.to_dict(),
                incidents=manager.export_state(),
            )
        )
        incident_store.sync(manager, len(reports))
        checkpoints += 1

    gc.collect()
    with Lap(meter) as lap, tracer.span("monitor.run"):
        batches = iter_batches(
            source.events(0), batch_size=config.batch_size
        )
        # The first pull runs the source's lazy load: for an archive,
        # the whole MRT decode.
        first = "mrt.decode" if workload.archive else "sources.iter"
        with tracer.span(first):
            batch = next(batches, None)
        while batch is not None:
            pipeline.feed(batch)
            offset = batch.end_offset
            handle_outputs()
            if (
                store is not None
                and window_stage.window_index - last_checkpoint_window
                >= config.checkpoint_every
            ):
                write_checkpoint()
                last_checkpoint_window = window_stage.window_index
            buffered_max = max(buffered_max, window_stage.buffered)
            routes_max = max(routes_max, tamp_stage.tamp.route_count())
            with tracer.span("sources.iter"):
                batch = next(batches, None)
        pipeline.flush()
        handle_outputs()
        manager.finalize()
        if store is not None:
            write_checkpoint()
    if incident_store is not None:
        incident_store.close()

    counts["windows.closes"] = len(reports)
    counts["windows.buffered_max"] = buffered_max
    counts["tamp.routes_max"] = routes_max
    counts["incidents.count"] = len(manager.all_incidents())
    counts["checkpoint.count"] = checkpoints
    ingest = source.ingest_report
    if ingest is not None:
        counts["mrt.records"] = ingest.records_decoded
        counts["mrt.events_out"] = ingest.events_produced
    return summarise(
        lap,
        source,
        reports,
        report_at,
        offset=offset,
        stats=pipeline.stats(),
        checkpoints=checkpoints,
        checkpoint_dir=directory,
        keep=True,
    )


# -- the gate -----------------------------------------------------------


def latest_checkpoint_text(directory: Path) -> str:
    paths = CheckpointStore(directory).checkpoints()
    require(bool(paths), f"no checkpoint written in {directory}")
    return paths[-1].read_text(encoding="utf-8")


def check_durability(repeat: Repeat, config: MonitorConfig) -> None:
    """The last checkpoint loads, is complete, and round-trips."""
    assert repeat.checkpoint_dir is not None
    store = CheckpointStore(repeat.checkpoint_dir)
    state = store.latest()
    require(state is not None, "no checkpoint to load")
    require(
        state.offset == repeat.events,
        f"checkpoint offset {state.offset} != {repeat.events} events"
        " the source yielded",
    )
    logged = [
        json.dumps(row, sort_keys=True) for row in store.read_reports()
    ]
    require(
        logged == repeat.report_json,
        "incidents.jsonl does not hold one line per report",
    )
    window_stage = WindowedStemmer(
        config.window,
        config.slide,
        min_strength=config.min_strength,
        max_components=config.max_components,
    )
    window_stage.restore_state(WindowState.from_dict(state.window))
    require(
        window_stage.export_state().to_dict() == state.window,
        "window state does not round-trip through restore",
    )
    tamp_stage = TampAnnotator()
    tamp_stage.restore_state(state.tamp)
    require(
        tamp_stage.export_state() == state.tamp,
        "TAMP state does not round-trip through restore",
    )
    manager = IncidentManager(policy=config.incident_policy())
    manager.import_state(state.incidents)
    require(
        manager.export_state() == state.incidents,
        "incident state does not round-trip through import",
    )
    synced = [
        record.to_dict()
        for record in load_incident_rows(repeat.checkpoint_dir)
    ]
    require(
        synced == state.incidents["incidents"],
        "sqlite incident rows differ from the checkpointed manager",
    )


def check_repeats(inputs: MonitorInputs, repeats: list[Repeat]) -> int:
    """Gate the repeats of one run; returns the failed-event count."""
    reference = repeats[0].report_json
    require(bool(reference), "the monitor emitted no report")
    failed = 0
    for repeat in repeats:
        require(
            repeat.report_json == reference,
            "window reports differ between repeats of the same input",
        )
        failed += (
            repeat.events - repeat.offset
        ) + repeat.dropped + repeat.missing
    if inputs.workload.durable:
        check_durability(repeats[-1], inputs.config)
    return failed


def replay_windows(
    repeat: Repeat,
    config: MonitorConfig,
    events: list[BGPEvent],
    meter: Meter,
) -> tuple[float, float]:
    """Re-derive every report offline; returns the seconds it took.

    Each closed window's events are cut out of the yielded stream by
    timestamp and put through the public ``Stemmer.decompose`` and
    ``fingerprint_events``. The fingerprints must match the reports'
    (an oracle independent of the window stage's buffer), and the two
    timings estimate how ``windows.close_s`` splits.
    """
    timestamps = repeat.timestamps
    stemmer = Stemmer(
        min_strength=config.min_strength,
        max_components=config.max_components,
    )
    decompose_s = fingerprint_s = 0.0
    clock = meter.now
    for report in repeat.reports:
        meter.tick()
        window_events = events[
            bisect.bisect_left(timestamps, report.start):
            bisect.bisect_left(timestamps, report.end)
        ]
        started = clock()
        result = stemmer.decompose(window_events)
        middle = clock()
        fingerprint = fingerprint_events(window_events)
        fingerprint_s += clock() - middle
        decompose_s += middle - started
        require(
            fingerprint == report.fingerprint,
            f"window {report.index}: fingerprint differs from an"
            " offline replay of its events",
        )
        require(
            len(result.components) == len(report.result.components),
            f"window {report.index}: offline decomposition differs",
        )
    return decompose_s, fingerprint_s


# -- the passes ---------------------------------------------------------


def run(
    name: str,
    *,
    seed: int,
    seconds: float,
    scale: float,
    trace: bool,
    workdir: Path,
) -> Outcome:
    workload = WORKLOADS[name]
    if trace and workload.pace > 0:
        # Two paced passes share the run: half the time each.
        seconds = seconds / 2
    meter = Meter()
    inputs, setup_s = timed_setups(
        meter,
        lambda: build_inputs(workload, seed, seconds, scale, workdir, meter),
    )
    if trace:
        return _traced_pass(inputs)
    outcome = _untraced_pass(inputs, seconds)
    outcome.values["setup_s"] = setup_s
    return outcome


def _untraced_pass(inputs: MonitorInputs, seconds: float) -> Outcome:
    repeats: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < deadline:
        repeats.append(run_untraced(inputs, "untraced"))
        if inputs.workload.pace > 0:
            break  # the schedule, not a deadline, sets the length
    failed = check_repeats(inputs, repeats)
    delays = [repeat.delays for repeat in repeats]
    outcome = Outcome(
        attempted=sum(r.events for r in repeats), failed=failed
    )
    outcome.values = {
        "throughput_per_s": median([r.events / r.wall for r in repeats]),
        "cpu_s_per_kunit": median(
            [r.cpu / (r.events / 1000.0) for r in repeats]
        ),
        "latency_p50_ms": typical(delays) * 1000.0,
        "latency_worst_ms": typical_worst(delays) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - failed / outcome.attempted,
    }
    outcome.details = {
        "repeats": len(repeats),
        "latency_samples": sum(len(samples) for samples in delays),
        "unit": "events",
    }
    return outcome


def _traced_pass(inputs: MonitorInputs) -> Outcome:
    untraced = run_untraced(inputs, "untraced")
    tracer = Tracer(inputs.meter.now)
    counts: dict[str, float] = {}
    traced = traced_monitor(inputs, tracer, counts)
    failed = check_repeats(inputs, [untraced, traced])
    if inputs.workload.durable:
        assert untraced.checkpoint_dir and traced.checkpoint_dir
        require(
            latest_checkpoint_text(untraced.checkpoint_dir)
            == latest_checkpoint_text(traced.checkpoint_dir),
            "traced and untraced final checkpoints differ",
        )
        require(
            untraced.checkpoints == traced.checkpoints,
            "traced and untraced passes checkpointed differently",
        )
        counts["checkpoint.bytes_last"] = len(
            latest_checkpoint_text(traced.checkpoint_dir).encode("utf-8")
        )
    events = list(inputs.open_source().events())
    decompose_s, fingerprint_s = replay_windows(
        traced, inputs.config, events, inputs.meter
    )

    values = layer_values(tracer, "monitor.run", untraced.wall)
    values.update(counts)
    values["stemming.decompose_s"] = decompose_s
    values["stream.fingerprint_s"] = fingerprint_s
    values["monitor.residual_s"] = (
        untraced.wall - values["trace.layer_sum_s"]
    )
    values["loadgen.late_max_ms"] = traced.late_max * 1000.0
    values["loadgen.latency_samples"] = len(traced.delays)
    values["monitor.report_delay_p50_ms"] = (
        typical([traced.closing_delays]) * 1000.0
    )
    outcome = Outcome(
        values=values,
        attempted=untraced.events + traced.events,
        failed=failed,
        tracer=tracer,
    )
    outcome.details = {
        "latency_samples": len(traced.delays),
        "unit": "events",
    }
    return outcome
