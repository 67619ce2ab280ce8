#!/usr/bin/env python3
"""Detection at several timescales at once.

The operational scenario behind Figure 8: a collector ingests a live
event stream containing (a) background churn, (b) a big session-reset
spike, and (c) a low-grade persistent oscillation whose event rate sits
in the grass. A rate-threshold detector sees only the spike; Stemming
over trailing windows of ten minutes, four hours and two days surfaces
both — the oscillation through its long window, exactly the Section
III-B temporal-independence argument. (``repro monitor`` is the same
decomposition run continuously over one sliding window.)

Run:
    python examples/live_detection.py
"""

from repro import RouteExplorer, Stemmer, StemmingResult
from repro.collector.rates import bin_events
from repro.net.aspath import ASPath
from repro.simulator.synthetic import (
    ISP_ANON_PROFILE,
    background_churn_events,
    oscillation_events,
    populate_view,
    session_reset_events,
)
from repro.simulator.workloads import synthetic_prefixes
from repro.stemming.encode import format_stem

HOUR = 3600.0
DAY = 24 * HOUR
WINDOWS = (10 * 60.0, 4 * HOUR, 2 * DAY)


def build_stream():
    rex = RouteExplorer()
    populate_view(rex, 60_000, ISP_ANON_PROFILE)
    prefixes = synthetic_prefixes(1_000)
    grass = background_churn_events(
        prefixes, peer_count=20, start=0.0, duration=2 * DAY,
        events_per_second=0.01,
    )
    spike = session_reset_events(
        rex, peer_index=0, start=1.2 * DAY, convergence_seconds=300.0
    )
    oscillation = oscillation_events(
        prefixes[0],
        peer_indices=[3, 4],
        paths=[ASPath([1, 4545]), ASPath([2, 4545])],
        start=0.0,
        duration=2 * DAY,
        period=300.0,  # one cycle every five minutes: pure grass
    )
    return grass.merged_with(spike).merged_with(oscillation)


def main() -> dict[float, StemmingResult]:
    stream = build_stream()
    print(f"stream: {len(stream)} events over {stream.timerange / DAY:.1f} days")

    # The naive rate detector.
    series = bin_events(stream, bin_seconds=HOUR)
    spikes = series.spikes(threshold_factor=10.0)
    print(
        f"rate detector (hourly bins): grass={series.grass_level():.0f},"
        f" peak={series.peak()[1]}, spikes found={len(spikes)}"
    )
    print("  -> the oscillation raises no spike (it IS the grass)")

    # Stemming over each trailing window.
    stemmer = Stemmer()
    by_window = {
        window: stemmer.decompose(
            stream.between(stream.end_time - window, float("inf"))
        )
        for window in WINDOWS
    }
    print()
    print("Stemming over trailing windows:")
    for window, result in by_window.items():
        top = result.strongest
        label = (
            f"{format_stem(top.stem)} ({len(top.prefixes)} prefixes,"
            f" {top.event_count} events)"
            if top
            else "nothing"
        )
        print(
            f"  window {window / HOUR:6.1f} h: {result.total_events:6d}"
            f" events, strongest: {label}"
        )
    # What dominates the longest window but not the shortest: the
    # oscillation signature (Section IV-E/F).
    short_locations = {
        c.location for c in by_window[min(WINDOWS)].components[:3]
    }
    persistent = [
        c
        for c in by_window[max(WINDOWS)].components[:3]
        if c.location not in short_locations
    ]
    print()
    if persistent:
        print("persistent anomalies (dominate long windows only):")
        for component in persistent:
            print(f"  {component.describe()}")
    else:
        print("no persistent anomalies")
    return by_window


if __name__ == "__main__":
    main()
