"""Shared benchmark infrastructure.

Every benchmark here regenerates a table row, figure or ablation of
the paper's evaluation, or the monitor's checkpoint tax. The streaming
monitor's throughput and the serve path are ``bench/``'s workloads,
not cases here. Results are appended to ``bench_results/`` as
human-readable rows next to the published numbers, so EXPERIMENTS.md
can be cross-checked against a run.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0 = published sizes) multiplies
route and event counts. The calibrated full-scale suite runs in minutes
on a current machine; set 0.1 for a quick pass.

Absolute times are NOT expected to match the paper (C++ on a 2003
Pentium 4 vs Python today); the *shape* — scaling with input size, who
is fast and who is slow, where time is spent — is the reproduction
target.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import pytest

from repro.collector.rex import RouteExplorer
from repro.simulator.synthetic import (
    BERKELEY_PROFILE,
    ISP_ANON_PROFILE,
    populate_view,
    sized_event_stream,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


def scaled(value: int, minimum: int = 100) -> int:
    return max(minimum, int(value * SCALE))


def record_row(table: str, row: str, data: Optional[dict] = None) -> None:
    """Append one result row to bench_results/<table>.txt (and echo it).

    When *data* is given, the row is also appended — as a machine-readable
    entry tagged with the run's scale — to
    ``bench_results/BENCH_<table>.json``. CI empties those files before
    its smoke run, so the artifact it uploads, and what
    ``bench_guard`` compares with the baselines, are that run's rows.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{table}.txt"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(row + "\n")
    if data is not None:
        entry = {"scale": SCALE, "row": row}
        entry.update(data)
        json_path = RESULTS_DIR / f"BENCH_{table}.json"
        try:
            entries = json.loads(json_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            entries = []
        if not isinstance(entries, list):
            entries = []
        entries.append(entry)
        json_path.write_text(
            json.dumps(entries, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(row)


@pytest.fixture(scope="session")
def berkeley_rex() -> RouteExplorer:
    """A Berkeley-profile collector view at the paper's largest size."""
    rex = RouteExplorer("berkeley-bench")
    populate_view(
        rex,
        scaled(230_000),
        BERKELEY_PROFILE,
        routes_per_prefix=1.8,
        seed=2003,
    )
    return rex


@pytest.fixture(scope="session")
def isp_rex() -> RouteExplorer:
    """An ISP-Anon-profile collector view at the paper's largest size."""
    rex = RouteExplorer("isp-bench")
    populate_view(
        rex,
        scaled(1_500_000),
        ISP_ANON_PROFILE,
        routes_per_prefix=7.5,
        seed=2002,
    )
    return rex


def subset_rex(rex: RouteExplorer, n_routes: int, profile) -> RouteExplorer:
    """A fresh collector holding the first *n_routes* of *rex*'s view."""
    if n_routes >= rex.route_count():
        # The full-size row: copying 1.5M routes would double resident
        # memory for an identical view, and the extra live objects tax
        # the timed region (GC scans, cache misses) without changing
        # the measured workload.
        return rex
    subset = RouteExplorer("subset")
    remaining = n_routes
    for peer in rex.peers():
        if remaining <= 0:
            break
        rib = rex.rib(peer)
        subset.peer_with(peer)
        target = subset.rib(peer)
        for route in rib.routes():
            if remaining <= 0:
                break
            target.announce(route.prefix, route.attributes)
            remaining -= 1
    return subset


def stream_for(rex: RouteExplorer, events: int, timerange: float, seed: int):
    return sized_event_stream(rex, events, timerange, seed=seed)
