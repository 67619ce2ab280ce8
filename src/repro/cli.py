"""Command-line interface.

The operator subcommands cover the workflows the paper describes:

* ``repro demo`` — build the simulated Berkeley site, inject a chosen
  incident, and print the diagnosis (a self-contained tour).
* ``repro diagnose EVENTS.jsonl`` — run event-rate + Stemming + TAMP
  over a recorded event stream.
* ``repro render EVENTS.jsonl -o out.svg`` — draw the TAMP picture of
  the routes announced in a stream.
* ``repro rate EVENTS.jsonl`` — print the Figure 8 style rate series.
* ``repro scenarios {list,describe,generate,score}`` — the labeled
  anomaly catalog (:mod:`repro.scenarios`): list/describe the
  registry, generate seeded streams with ground-truth labels, or run
  the precision/recall scorer (``--baseline`` turns it into the
  detection-quality regression gate; exit 1 on regression).
* ``repro monitor [EVENTS]`` — run the streaming pipeline
  (:mod:`repro.pipeline`) as a long-lived monitor: windowed Stemming
  + incremental TAMP over a replayed archive, synthetic feed
  (``--synthetic N``) or quarantine file (``--from-quarantine``),
  with checkpoints (``--checkpoint-dir``/``--resume``), wall-clock
  pacing (``--pace``) and live metrics (``--metrics-port``).
* ``repro serve [EVENTS]`` — the multi-tenant read path
  (:mod:`repro.serve`): the same pipeline sharded by peer
  (``--shards N``) behind an asyncio HTTP port serving the cached
  TAMP picture (``/picture.svg``, ETag/304), incident feeds
  (``/incidents`` JSON, ``/events`` SSE), and the metrics exposition
  — render once per window, serve thousands of times.

Two developer subcommands guard the codebase itself:

* ``repro lint [paths]`` — the determinism & hot-path static
  analyzer (:mod:`repro.devtools`). Exit 0 means clean, 1 means
  findings, 2 means a usage error (bad path, unknown or empty rule
  selection, unwritable ``--output``). Every run analyzes every file
  it is given; ``--format json`` is the CI artifact.
* ``repro faults IN -o OUT --fault NAME[:k=v,...] --seed N`` — corrupt
  an MRT archive with the :mod:`repro.testkit` fault injectors
  (``--list-faults`` for the catalog, ``--make-corpus DIR`` to
  regenerate the golden malformed-MRT corpus).

Event files are either the JSONL format of
:meth:`repro.collector.stream.EventStream.save` or MRT archives
(RouteViews-style ``.mrt``/``.bz2``-decompressed update files are
detected by extension and loaded through :mod:`repro.mrt`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from repro.analysis.report import diagnose
from repro.collector.rates import bin_events
from repro.collector.stream import EventStream
from repro.pipeline.metrics import MetricsRegistry
from repro.pipeline.monitor import MonitorConfig
from repro.stemming.stemmer import Stemmer
from repro.tamp.prune import DEFAULT_THRESHOLD, prune_flat
from repro.tamp.render import render_ascii, render_svg

DEMO_SCENARIOS = ("route-leak", "backdoor", "session-reset", "med-oscillation",
                  "customer-flap")


class UsageError(Exception):
    """A command line the handler cannot act on: exit 2, like argparse."""


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: 0 ok, 1 runtime error, 2 usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "profile", None) is not None:
            return _run_profiled(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the subcommand under cProfile (the ``--profile PATH`` flag).

    Binary pstats go to PATH (for ``snakeviz``/``pstats`` digging) and
    a top-25-by-cumulative-time text summary to PATH.txt, so a perf
    regression report needs no extra tooling to read.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = args.handler(args)
    finally:
        profiler.disable()
        out: Path = args.profile
        profiler.dump_stats(out)
        summary = out.with_name(out.name + ".txt")
        with summary.open("w") as sink:
            stats = pstats.Stats(profiler, stream=sink)
            stats.sort_stats("cumulative").print_stats(25)
        print(
            f"profile written to {out} (summary: {summary})",
            file=sys.stderr,
        )
    return status


def _add_stream_options(parser: argparse.ArgumentParser) -> None:
    """The source/window/checkpoint flags `monitor` and `serve` share.

    Both subcommands drive the same pipeline over the same sources;
    keeping one flag set means a monitor invocation can be replayed
    under `serve` (and resumed from the same checkpoints) verbatim.
    A flag that sets a :class:`MonitorConfig` field has the field's
    name as its ``dest`` and the field's default as its default.
    """
    config = MonitorConfig()
    parser.add_argument(
        "events", type=Path, nargs="?", default=None,
        help="event archive to replay (JSONL or MRT by extension);"
             " omit when using --synthetic or --from-quarantine",
    )
    parser.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="monitor a deterministic synthetic feed of N events",
    )
    parser.add_argument(
        "--synthetic-timerange", type=float, default=3600.0,
        metavar="SECONDS",
        help="archive timespan of the synthetic feed (default 3600)",
    )
    parser.add_argument(
        "--synthetic-seed", type=int, default=31,
        help="seed for the synthetic feed (default 31)",
    )
    parser.add_argument(
        "--from-quarantine", action="store_true",
        help="treat EVENTS as a quarantine JSONL written by a previous"
             " ingest and replay the records that now decode",
    )
    parser.add_argument(
        "--window", type=float, default=config.window, metavar="SECONDS",
        help="analysis window length (default %(default)g)",
    )
    parser.add_argument(
        "--slide", type=float, default=config.slide, metavar="SECONDS",
        help="window slide; defaults to the window length (tumbling)",
    )
    parser.add_argument(
        "--pace", type=float, default=config.pace, metavar="FACTOR",
        help="replay speed-up vs archive time: 1 = real time, 60 ="
             " a minute per second, 0 = as fast as possible (default)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="write periodic checkpoints and the incident log here",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=config.checkpoint_every,
        metavar="WINDOWS",
        help="windows between checkpoints (default %(default)g)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    parser.add_argument(
        "--batch-size", type=int, default=config.batch_size,
        help="events per pipeline batch (default %(default)g)",
    )
    parser.add_argument(
        "--max-events", type=int, default=config.max_events,
        help="hard-stop after this many events without flushing or"
             " checkpointing (simulates a kill; resume later)",
    )
    parser.add_argument(
        "--min-strength", type=int, default=config.min_strength,
        help="minimum correlation strength for a component"
             " (default %(default)g)",
    )
    parser.add_argument(
        "--components", type=int, dest="max_components",
        default=config.max_components, metavar="COMPONENTS",
        help="maximum components per window (default %(default)g)",
    )
    parser.add_argument(
        "--resolve-after", type=float, default=config.resolve_after,
        metavar="SECONDS",
        help="stream-seconds of quiet before an incident resolves"
             " (default %(default)g)",
    )
    parser.add_argument(
        "--correlation-window", type=float,
        default=config.correlation_window, metavar="SECONDS",
        help="max stream-time gap for merging a new stem into a live"
             " incident by prefix overlap (default %(default)g)",
    )
    parser.add_argument(
        "--reopen-window", type=float, default=config.reopen_window,
        metavar="SECONDS",
        help="a stem recurring within this many seconds of resolution"
             " reopens its incident instead of opening a new one"
             " (default %(default)g)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAMP + Stemming BGP anomaly detection (DSN 2005 repro)",
    )
    sub = parser.add_subparsers(required=True)

    # Shared by the subcommands worth profiling (the TAMP/Stemming
    # compute paths); handled centrally in main().
    profile_opt = argparse.ArgumentParser(add_help=False)
    profile_opt.add_argument(
        "--profile", type=Path, default=None, metavar="PATH",
        help="profile the run: binary cProfile stats to PATH, top-25"
             " cumulative summary to PATH.txt",
    )

    # Shared by every subcommand that loads an event file: the MRT
    # ingest strictness policy (JSONL loads ignore these).
    ingest_opt = argparse.ArgumentParser(add_help=False)
    ingest_opt.add_argument(
        "--strict-ingest", action="store_true",
        help="raise on the first undecodable MRT record instead of"
             " skipping with accounting",
    )
    ingest_opt.add_argument(
        "--max-error-rate", type=float, default=None, metavar="FRACTION",
        help="abort an MRT load once more than this fraction of records"
             " fails to decode (default: skip all, warn past 1%%)",
    )

    demo = sub.add_parser(
        "demo", parents=[profile_opt],
        help="simulate an incident and diagnose it",
    )
    demo.add_argument(
        "scenario",
        choices=DEMO_SCENARIOS,
        nargs="?",
        default="route-leak",
    )
    demo.add_argument(
        "--prefixes", type=int, default=800,
        help="Berkeley table size (default 800)",
    )
    demo.add_argument(
        "--save", type=Path, default=None,
        help="also save the incident's event stream as JSONL",
    )
    demo.set_defaults(handler=cmd_demo)

    diag = sub.add_parser(
        "diagnose", parents=[profile_opt, ingest_opt],
        help="diagnose a JSONL event stream",
    )
    diag.add_argument("events", type=Path)
    diag.add_argument(
        "--components", type=int, default=8,
        help="maximum components to extract (default 8)",
    )
    diag.set_defaults(handler=cmd_diagnose)

    render = sub.add_parser(
        "render", parents=[profile_opt, ingest_opt],
        help="TAMP picture of a stream",
    )
    render.add_argument("events", type=Path)
    render.add_argument("-o", "--output", type=Path, default=None,
                        help="write SVG here (default: ASCII to stdout)")
    render.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="prune threshold (default %(default)g)")
    render.set_defaults(handler=cmd_render)

    rate = sub.add_parser(
        "rate", parents=[ingest_opt],
        help="event-rate series of a stream",
    )
    rate.add_argument("events", type=Path)
    rate.add_argument("--bins", type=int, default=50)
    rate.set_defaults(handler=cmd_rate)

    animate = sub.add_parser(
        "animate", parents=[profile_opt, ingest_opt],
        help="SMIL-animated SVG of a stream (plays in a browser)",
    )
    animate.add_argument("events", type=Path)
    animate.add_argument("-o", "--output", type=Path, required=True)
    animate.add_argument(
        "--duration", type=float, default=30.0,
        help="play duration in seconds (default 30, per the paper)",
    )
    animate.add_argument(
        "--fps", type=int, default=25,
        help="frames per second (default 25, per the paper)",
    )
    animate.set_defaults(handler=cmd_animate)

    monitor = sub.add_parser(
        "monitor", parents=[profile_opt, ingest_opt],
        help="run the streaming pipeline as a long-lived monitor",
    )
    _add_stream_options(monitor)
    monitor.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (text) and /metrics.json on this port"
             " while running (0 picks a free port)",
    )
    monitor.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the final metrics snapshot as JSON",
    )
    monitor.set_defaults(handler=cmd_monitor)

    serve = sub.add_parser(
        "serve", parents=[profile_opt, ingest_opt],
        help="run sharded monitor pipelines behind an HTTP read path:"
             " cached TAMP picture, incident feeds (JSON + SSE), and"
             " metrics on one port",
    )
    _add_stream_options(serve)
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="pipeline shards, partitioned by peer (default 1); the"
             " merged picture is bit-identical to an unsharded run",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="HTTP port (default 8080; 0 picks a free port)",
    )
    serve.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help="picture prune threshold (default %(default)g)",
    )
    serve.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving this long after the stream ends (default 0)",
    )
    serve.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the final metrics snapshot as JSON",
    )
    serve.set_defaults(handler=cmd_serve)

    incidents = sub.add_parser(
        "incidents",
        help="inspect the sqlite incident store written by monitor",
    )
    incidents.add_argument(
        "action",
        choices=("list", "show", "export", "compact"),
        help="list incidents; show one incident's full lifecycle;"
             " export the store as JSONL; or compact resolved rows"
             " (compacting a store a running monitor still syncs is"
             " undone at its next checkpoint)",
    )
    incidents.add_argument(
        "store", type=Path,
        help="incident store: a monitor --checkpoint-dir or the"
             " incidents.sqlite file inside one",
    )
    incidents.add_argument(
        "--id", type=int, default=None, metavar="N",
        help="incident id (required for show)",
    )
    incidents.add_argument(
        "--status", choices=("open", "investigating", "resolved"),
        default=None, help="filter list output by lifecycle state",
    )
    incidents.add_argument(
        "-o", "--output", type=Path, default=None,
        help="JSONL destination for export (default stdout)",
    )
    incidents.add_argument(
        "--keep-resolved", type=int, default=0, metavar="N",
        help="resolved incidents to retain when compacting (default 0)",
    )
    incidents.set_defaults(handler=cmd_incidents)

    faults = sub.add_parser(
        "faults",
        help="corrupt an MRT archive with seeded fault injectors",
    )
    faults.add_argument(
        "input", type=Path, nargs="?", default=None,
        help="MRT archive to corrupt",
    )
    faults.add_argument(
        "-o", "--output", type=Path, default=None,
        help="where to write the corrupted archive",
    )
    faults.add_argument(
        "--fault", action="append", default=None, metavar="NAME[:k=v,...]",
        help="fault to apply (repeatable; applied in order, e.g."
             " flip-attrs:rate=0.3,flips=2)",
    )
    faults.add_argument(
        "--seed", type=int, default=None,
        help="master seed; required when corrupting (faults must be"
             " replayable)",
    )
    faults.add_argument(
        "--list-faults", action="store_true",
        help="print the fault catalog and exit",
    )
    faults.add_argument(
        "--make-corpus", type=Path, default=None, metavar="DIR",
        help="regenerate the golden malformed-MRT corpus into DIR and"
             " exit (seed defaults to the pinned golden seed)",
    )
    faults.set_defaults(handler=cmd_faults)

    scen = sub.add_parser(
        "scenarios",
        help="the labeled anomaly catalog: list, generate, score",
    )
    scen.add_argument(
        "action",
        choices=("list", "describe", "generate", "score"),
        help="list the registry; describe entries; generate labeled"
             " streams (events JSONL + labels JSON); or run the"
             " detection-quality scorer",
    )
    scen.add_argument(
        "names", nargs="*", default=[],
        help="scenario names (default: all for generate/score, required"
             " for describe)",
    )
    scen.add_argument(
        "--seed", type=int, default=0,
        help="generator seed (default 0 — the baseline configuration)",
    )
    scen.add_argument(
        "-o", "--output", type=Path, default=None,
        help="generate: directory for the stream/labels artifacts;"
             " score: path for the JSON scorecard",
    )
    scen.add_argument(
        "--baseline", type=Path, default=None, metavar="SCORECARD",
        help="score: compare against this scorecard and fail (exit 1)"
             " on any metric regression",
    )
    scen.add_argument(
        "--tolerance", type=float, default=None,
        help="score: absolute drop in a [0,1] metric that counts as a"
             " regression (default 0.05)",
    )
    scen.add_argument(
        "--min-strength", type=int, default=2,
        help="score: detector threshold (raise to demonstrate the gate"
             " tripping on a degraded detector)",
    )
    scen.set_defaults(handler=cmd_scenarios)

    lint = sub.add_parser(
        "lint",
        help="determinism & hot-path static analysis",
    )
    lint.add_argument(
        "paths", type=Path, nargs="*", default=[Path("src")],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text; json is the CI artifact)",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--output", type=Path, default=None,
        help="also write the report to this file",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios import paper as scenarios
    from repro.simulator.workloads import BerkeleySite

    if args.scenario in ("route-leak", "backdoor", "session-reset"):
        print(f"building Berkeley site ({args.prefixes} prefixes)...")
        site = BerkeleySite(n_prefixes=args.prefixes)
        incident = {
            "route-leak": lambda: scenarios.route_leak(site),
            "backdoor": lambda: scenarios.backdoor_routes(site),
            "session-reset": lambda: scenarios.session_reset(site),
        }[args.scenario]()
    elif args.scenario == "med-oscillation":
        print("building the Figure 3 MED-oscillation lab...")
        incident = scenarios.med_oscillation(flap_count=100)
    else:
        from repro.simulator.workloads import IspAnonSite

        print("building ISP-Anon core (8 reflectors)...")
        isp = IspAnonSite(n_reflectors=8, n_prefixes=400)
        incident = scenarios.customer_flap(isp, flap_count=10)
    print(f"incident '{incident.name}': {len(incident.stream)} events")
    print()
    report = diagnose(incident.stream)
    print(report.to_text())
    if args.save is not None:
        incident.stream.save(args.save)
        print(f"\nevent stream saved to {args.save}")
    return 0


def _load_stream(
    path: Path, args: argparse.Namespace | None = None
) -> EventStream:
    """Load events from JSONL or (by extension) an MRT updates file.

    MRT loads honor the ``--strict-ingest`` / ``--max-error-rate``
    policy flags and print the ingest report to stderr whenever the
    load was lossy — the operator should never act on a diagnosis of a
    partial feed without knowing it was partial.
    """
    from repro.mrt.ingest import IngestPolicy
    from repro.pipeline.sources import load_event_file

    stream = load_event_file(
        path,
        IngestPolicy(
            strict=bool(getattr(args, "strict_ingest", False)),
            max_error_rate=getattr(args, "max_error_rate", None),
        ),
    )
    report = stream.ingest_report
    if report is not None and report.suspicious:
        print(report.summary(), file=sys.stderr)
    return stream


def cmd_diagnose(args: argparse.Namespace) -> int:
    stream = _load_stream(args.events, args)
    report = diagnose(
        stream, stemmer=Stemmer(max_components=args.components)
    )
    print(report.to_text())
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.tamp.picture import picture_from_events

    stream = _load_stream(args.events, args)
    # Batch path: replay the stream into a route table and build the
    # final picture directly — same graph as incremental maintenance
    # (a point-in-time render skips the intermediate mutations).
    graph = prune_flat(picture_from_events(stream, "stream"), args.threshold)
    if args.output is None:
        print(render_ascii(graph))
    else:
        args.output.write_text(
            render_svg(graph, title=str(args.events.name))
        )
        print(f"wrote {args.output}")
    return 0


def cmd_rate(args: argparse.Namespace) -> int:
    stream = _load_stream(args.events, args)
    if not len(stream):
        print("empty stream")
        return 0
    bin_seconds = max(1.0, stream.timerange / args.bins)
    series = bin_events(stream, bin_seconds)
    peak = max(series.counts) if series.counts else 1
    for index, count in enumerate(series.counts):
        bar = "#" * round(40 * count / max(peak, 1))
        print(f"{series.bin_start(index):>12.1f}s {count:>8} {bar}")
    print(
        f"peak {series.peak()[1]} at t={series.peak()[0]:.1f}s,"
        f" grass level {series.grass_level():.1f},"
        f" spikes at {series.spikes()}"
    )
    return 0


def cmd_animate(args: argparse.Namespace) -> int:
    from repro.tamp.animate import animate_stream
    from repro.tamp.svg_animation import render_svg_animation

    stream = _load_stream(args.events, args)
    animation = animate_stream(
        stream, play_duration=args.duration, fps=args.fps
    )
    args.output.write_text(
        render_svg_animation(animation, title=str(args.events.name))
    )
    changed = len(animation.frames_with_changes())
    print(
        f"wrote {args.output}: {animation.frame_count} frames"
        f" ({changed} with changes), timerange"
        f" {animation.timerange:.1f}s -> {args.duration:.0f}s play"
    )
    return 0


def _monitor_source(args: argparse.Namespace):
    from repro.mrt.ingest import IngestPolicy
    from repro.pipeline import FileSource, QuarantineSource, SyntheticSource

    picked = [
        args.synthetic is not None,
        args.from_quarantine,
        args.events is not None and not args.from_quarantine,
    ]
    if sum(picked) != 1:
        raise ValueError(
            "monitor needs exactly one source: EVENTS,"
            " --synthetic N, or EVENTS with --from-quarantine"
        )
    if args.synthetic is not None:
        return SyntheticSource(
            args.synthetic,
            args.synthetic_timerange,
            seed=args.synthetic_seed,
        )
    if args.from_quarantine:
        return QuarantineSource(args.events)
    return FileSource(
        args.events,
        policy=IngestPolicy(
            strict=args.strict_ingest,
            max_error_rate=args.max_error_rate,
        ),
    )


def cmd_monitor(args: argparse.Namespace) -> int:
    import asyncio

    from repro.pipeline import MonitorResult, monitor_loop
    from repro.pipeline.windows import WindowReport

    source = _monitor_source(args)
    config = _monitor_config(args)
    registry = MetricsRegistry()

    def print_report(report: WindowReport) -> None:
        stems = report.ranked_stems()
        head = (
            f"window {report.index} [{report.start:.0f}s,"
            f" {report.end:.0f}s): {report.event_count} events,"
            f" {len(stems)} incident(s)"
        )
        print(head)
        for stem in stems[:5]:
            print(
                f"  #{stem['rank']} {stem['stem']}"
                f" strength {stem['strength']}"
                f" ({stem['events']} events,"
                f" {stem['prefixes']} prefixes)"
            )

    async def monitor() -> MonitorResult:
        # The metrics server runs on the monitor's own loop: a scrape is
        # answered between two batches, never beside one.
        server = None
        if args.metrics_port is not None:
            from functools import partial

            from repro.serve import HttpServer, serve_metrics

            server = HttpServer()
            for path in ("/metrics", "/metrics.json"):
                server.route(path, partial(serve_metrics, registry))
            await server.start(port=args.metrics_port)
            print(
                f"metrics on http://127.0.0.1:{server.port}/metrics",
                file=sys.stderr,
            )
        try:
            return await monitor_loop(
                source,
                config,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                registry=registry,
                on_report=print_report,
            )
        finally:
            if server is not None:
                await server.close()

    result = asyncio.run(monitor())
    report = source.ingest_report
    if report is not None and report.suspicious:
        print(report.summary(), file=sys.stderr)
    print(
        f"monitor stopped ({result.stopped}): {result.events} events,"
        f" {len(result.reports)} window(s),"
        f" {result.checkpoints_written} checkpoint(s),"
        f" offset {result.offset}"
    )
    manager = result.incidents
    counts = manager.counts_by_status()
    print(
        f"incidents: {manager.created_total} created —"
        f" {counts.get('open', 0)} open,"
        f" {counts.get('investigating', 0)} investigating,"
        f" {counts.get('resolved', 0)} resolved"
    )
    for record in manager.active()[:10]:
        print(f"  {record.describe()}")
    if args.checkpoint_dir is not None:
        print(
            f"incident store: {args.checkpoint_dir}/incidents.sqlite"
            " (inspect with `repro incidents`)"
        )
    _write_metrics(args.metrics_out, registry)
    return 0


def _monitor_config(args: argparse.Namespace) -> MonitorConfig:
    """The config that the parsed ``monitor``/``serve`` flags set."""
    names = {field.name for field in fields(MonitorConfig)}
    return MonitorConfig(
        **{name: value for name, value in vars(args).items() if name in names}
    )


def _write_metrics(path: Optional[Path], registry: MetricsRegistry) -> None:
    """The ``--metrics-out`` snapshot, if one was asked for."""
    if path is None:
        return
    path.write_text(
        json.dumps(registry.snapshot(), sort_keys=True, indent=1) + "\n"
    )
    print(f"metrics snapshot written to {path}")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp, run_serve

    source = _monitor_source(args)
    config = _monitor_config(args)
    registry = MetricsRegistry()

    def started(app: ServeApp) -> None:
        print(
            f"serving on http://{args.host}:{app.server.port}/ —"
            " picture.svg, incidents, events (SSE), metrics, status",
            file=sys.stderr,
            flush=True,
        )

    result = asyncio.run(
        run_serve(
            source,
            config,
            shards=args.shards,
            host=args.host,
            port=args.port,
            checkpoint_root=args.checkpoint_dir,
            resume=args.resume,
            threshold=args.threshold,
            registry=registry,
            linger=args.linger,
            on_started=started,
        )
    )
    print(
        f"serve stopped ({result.stopped}): {result.events} events,"
        f" {result.renders} render(s),"
        f" {result.published} transition event(s) published"
    )
    _write_metrics(args.metrics_out, registry)
    return 0


def cmd_incidents(args: argparse.Namespace) -> int:
    from repro.incidents import INCIDENT_DB, IncidentStore

    path = args.store
    if path.is_dir():
        path = path / INCIDENT_DB
    if not path.exists():
        raise UsageError(f"no incident store at {path}")

    with IncidentStore(path) as store:
        if args.action == "list":
            records = store.rows()
            if args.status is not None:
                records = [
                    r for r in records
                    if r.status.value == args.status
                ]
            for record in records:
                print(record.describe())
            counts = store.counts_by_status()
            summary = ", ".join(
                f"{count} {status}"
                for status, count in sorted(counts.items())
            )
            print(
                f"{len(records)} shown ({summary or 'empty'};"
                f" synced through report {store.reports_applied()})"
            )
            return 0
        if args.action == "show":
            if args.id is None:
                raise UsageError("show requires --id")
            record = store.row(args.id)
            if record is None:
                raise UsageError(f"no incident with id {args.id}")
            print(record.describe())
            print(json.dumps(record.to_dict(), indent=1, sort_keys=True))
            return 0
        if args.action == "export":
            if args.output is None:
                store.write_jsonl(sys.stdout)
            else:
                count = store.export_jsonl(args.output)
                print(f"{count} incident(s) exported to {args.output}")
            return 0
        # compact
        removed = store.compact(keep_resolved=args.keep_resolved)
        print(
            f"compacted: {removed} resolved incident(s) removed,"
            f" {store.count()} remain"
        )
        return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.testkit import (
        corrupt_file,
        fault_names,
        generate_corpus,
        parse_fault_spec,
    )
    from repro.testkit.corpus import GOLDEN_SEED
    from repro.testkit.faults import FAULTS

    if args.list_faults:
        for name in fault_names():
            fault = FAULTS[name]
            params = ", ".join(fault.params)
            suffix = f" ({params})" if params else ""
            print(f"{name:<18} [{fault.level:>6}] {fault.summary}{suffix}")
        return 0
    if args.make_corpus is not None:
        seed = GOLDEN_SEED if args.seed is None else args.seed
        paths = generate_corpus(args.make_corpus, seed=seed)
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
        return 0
    if args.input is None or args.output is None:
        raise UsageError(
            "faults needs INPUT and -o OUTPUT (or --list-faults /"
            " --make-corpus)"
        )
    if not args.fault:
        raise UsageError("at least one --fault is required")
    if args.seed is None:
        raise UsageError(
            "--seed is required when corrupting (faults must be"
            " replayable)"
        )
    plan = [parse_fault_spec(spec) for spec in args.fault]
    stats = corrupt_file(args.input, args.output, plan, seed=args.seed)
    print(
        f"wrote {args.output}: {stats['bytes_in']} -> "
        f"{stats['bytes_out']} bytes"
        f" ({len(plan)} fault(s), seed {args.seed})"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import registry
    from repro.scenarios.score import (
        DEFAULT_TOLERANCE,
        Scorecard,
        build_scorecard,
        compare_scorecards,
        format_comparison,
    )

    for name in args.names:
        if name not in registry.SCENARIOS:
            known = ", ".join(registry.names())
            raise UsageError(
                f"unknown scenario {name!r}; registered: {known}"
            )

    if args.action == "list":
        for scenario in registry.iter_scenarios():
            scored = "" if scenario.scored else "  (not scored)"
            print(
                f"{scenario.name:<22} {scenario.incident_class.value:<18}"
                f" {scenario.reference}{scored}"
            )
        return 0

    if args.action == "describe":
        names = args.names or registry.names()
        for index, name in enumerate(names):
            if index:
                print()
            print(registry.get(name).describe())
        return 0

    if args.action == "generate":
        out_dir = args.output or Path("scenario_streams")
        out_dir.mkdir(parents=True, exist_ok=True)
        names = args.names or registry.names()
        for name in names:
            incident = registry.generate(name, seed=args.seed)
            events_path = out_dir / f"{name}.events.jsonl"
            labels_path = out_dir / f"{name}.labels.json"
            incident.stream.save(events_path)
            labels_path.write_text(
                incident.labels_json() + "\n", encoding="utf-8"
            )
            print(
                f"{name}: {len(incident.stream)} events, seed"
                f" {args.seed} -> {events_path} + {labels_path.name}"
            )
        return 0

    # score
    names = args.names or None
    card = build_scorecard(
        names, seed=args.seed, min_strength=args.min_strength
    )
    for name in sorted(card.scores):
        row = card.scores[name]
        rank = "-" if row.best_rank is None else str(row.best_rank)
        latency = (
            "-"
            if row.detection_latency is None
            else f"{row.detection_latency:.0f}s"
        )
        ttr = (
            "-"
            if row.time_to_resolve is None
            else f"{row.time_to_resolve:.0f}s"
        )
        print(
            f"{name:<22} P={row.precision:.3f} R={row.recall:.3f}"
            f" F1={row.f1:.3f} rank={rank} top1={row.top1_rate:.2f}"
            f" inc={row.incidents} latency={latency} ttr={ttr}"
            f" detected={row.detected}"
        )
    if args.output is not None:
        card.save(args.output)
        print(f"scorecard written to {args.output}")
    if args.baseline is None:
        return 0
    if not args.baseline.exists():
        raise UsageError(f"baseline {args.baseline} not found")
    baseline = Scorecard.load(args.baseline)
    tolerance = (
        DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    )
    regressions, checks = compare_scorecards(
        card, baseline, tolerance=tolerance
    )
    print(
        f"detection-quality gate: {checks} checks against"
        f" {args.baseline} (tolerance {tolerance})"
    )
    print(format_comparison(card, baseline, regressions))
    if regressions:
        print(f"{len(regressions)} regression(s)", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import (
        analyze_paths,
        render_json,
        render_text,
        rule_catalog,
    )

    if args.list_rules:
        for rule in rule_catalog():
            print(f"{rule.id:<9} {rule.summary}")
        return 0
    rules = None
    if args.rules is not None:
        rules = {part.strip() for part in args.rules.split(",") if part.strip()}
    try:
        findings = analyze_paths(list(args.paths), rules)
    except (FileNotFoundError, ValueError) as exc:
        raise UsageError(exc) from exc
    renderers = {"json": render_json, "text": render_text}
    report = renderers[args.format](findings)
    if args.output is not None:
        try:
            args.output.write_text(report + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from exc
        print(f"wrote {args.output} ({len(findings)} finding(s))")
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
