#!/usr/bin/env python3
"""Analyzing BGP archive data: the RouteViews / MRT workflow.

The paper's tools ran on live IBGP feeds; the public equivalent is MRT
archives. This example exercises the full loop offline:

1. simulate an incident and export it as a standards-compliant MRT
   updates file (what you would otherwise download from
   archive.routeviews.org),
2. export the pre-incident tables as a TABLE_DUMP_V2 RIB snapshot,
3. load both back as a stranger would — RIB into a collector for the
   TAMP picture, updates into an event stream for Stemming,
4. diagnose the updates in one batch, then run the archive through the
   monitor loop (what ``repro monitor FILE`` does) and read the managed
   incidents it grows from the window reports.

Run:
    python examples/routeviews_mrt.py
"""

from pathlib import Path

from repro import BerkeleySite, diagnose, scenarios
from repro.mrt.loader import dump_rib, dump_updates, load_rib, load_updates
from repro.pipeline import (
    FileSource,
    MonitorConfig,
    MonitorResult,
    WindowReport,
    run_monitor,
)
from repro.tamp.picture import picture_from_rex
from repro.tamp.prune import prune_flat
from repro.tamp.render import render_ascii

OUT_DIR = Path(__file__).resolve().parent / "output"


def main(out_dir: Path = OUT_DIR) -> MonitorResult:
    out_dir.mkdir(exist_ok=True)

    # --- 1+2: produce the archive files ------------------------------
    print("simulating a route leak and exporting MRT archives...")
    site = BerkeleySite(n_prefixes=600)
    rib_path = out_dir / "rib.snapshot.mrt"
    records = dump_rib(site.rex, rib_path)
    print(f"  RIB snapshot: {records} MRT records -> {rib_path}")
    incident = scenarios.route_leak(site, cycles=1)
    updates_path = out_dir / "updates.incident.mrt"
    written = dump_updates(incident.stream, updates_path)
    print(f"  updates file: {written} MRT records -> {updates_path}")

    # --- 3: load them back, cold -------------------------------------
    print("\nloading the archives back (as a downstream user would)...")
    rex = load_rib(rib_path)
    print(
        f"  RIB: {rex.route_count()} routes, {rex.prefix_count()} prefixes,"
        f" {len(rex.peers())} peers"
    )
    stream = load_updates(updates_path)
    print(f"  updates: {len(stream)} events over {stream.timerange:.0f}s")

    # The TAMP picture of the snapshot.
    picture = prune_flat(
        picture_from_rex(rex, "snapshot", include_prefix_leaves=False)
    )
    print("\npre-incident routing structure (from the RIB file):")
    print(render_ascii(picture))

    # --- 4: diagnose, then monitor -----------------------------------
    report = diagnose(stream)
    print(f"\ndiagnosis: {report.headline}")

    # Replay the archive through sliding windows, as a live deployment
    # would see it; each closed window's stems grow the incidents.
    def show(window: WindowReport) -> None:
        top = window.result.strongest
        print(
            f"  window {window.index} ({window.start:.0f}-{window.end:.0f}s,"
            f" {window.event_count} events):"
            f" {top.describe() if top else 'nothing'}"
        )

    print("\nmonitoring the updates archive (window 60s, slide 30s):")
    result = run_monitor(
        FileSource(updates_path),
        MonitorConfig(window=60.0, slide=30.0, min_strength=5),
        on_report=show,
    )
    print("\nfinal incident board:")
    for record in result.incidents.all_incidents():
        print(record.describe())
        for first, second in record.related_stems:
            print(f"    related stem: {first}--{second}")
    return result


if __name__ == "__main__":
    main()
