"""Benchmark regression guard: fresh BENCH_*.json vs a committed baseline.

``record_row`` appends one machine-readable entry per benchmark row to
``bench_results/BENCH_<table>.json``, tagged with the run's scale. CI's
benchmark smoke (``REPRO_BENCH_SCALE=0.05``) therefore leaves the fresh
rows at the end of the checked-in file; this script compares them
against ``bench_results/baselines/<same name>`` and fails when any
row's ``measured_seconds`` regressed by more than the tolerance.

Matching is by row identity — every entry key except the measurements
themselves (``row``, ``*_seconds`` other than the paper's published
number, and the ``workers`` tag that rows recorded before the fork
pool was deleted still carry). When a file holds several runs of the same
row, the last one wins: appended files read oldest-first, so the last
entry is the freshest run.

Rows whose baseline is below the noise floor are skipped: a 0.02 s row
can double on scheduler jitter alone, and the guard exists to catch
real slowdowns in the build path, not timer noise. A baseline row
above the floor with no fresh row fails the guard like a slowdown: a
row the benchmarks stopped writing, or now write under another
identity, would otherwise drop out of the comparison unnoticed. The
baseline is a measurement on specific hardware — refresh it (rerun
the smoke scale and copy the file into ``baselines/``) when the CI
runner class changes, rather than widening the tolerance.

Deliberately stdlib-only so it runs before/without the package install.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

#: Entry keys that describe the measurement, not the row's identity.
#: ``paper_seconds`` stays in the identity: it is the published
#: constant the row reproduces, not something we measured.
MEASUREMENT_KEYS = frozenset(
    {
        "row",
        "workers",
        "measured_seconds",
        "naive_seconds",
        "object_seconds",
        "per_event_seconds",
    }
)

DEFAULT_TOLERANCE = 0.25
DEFAULT_NOISE_FLOOR = 0.05


def row_identity(entry: dict) -> tuple:
    return tuple(
        sorted(
            (key, value)
            for key, value in entry.items()
            if key not in MEASUREMENT_KEYS
        )
    )


def latest_by_identity(
    entries: list, scale: Optional[float] = None
) -> dict:
    """Map row identity → the last (freshest) matching entry."""
    latest: dict = {}
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        if "measured_seconds" not in entry:
            continue
        if scale is not None and entry.get("scale") != scale:
            continue
        latest[row_identity(entry)] = entry
    return latest


def compare(
    fresh_entries: list,
    baseline_entries: list,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    scale: Optional[float] = None,
) -> tuple[list, list]:
    """(regressions, checked) over rows present in both files.

    Each regression/checked item is a dict with the row text, both
    timings and the ratio; regressions exceeded ``tolerance``.
    """
    fresh = latest_by_identity(fresh_entries, scale)
    baseline = latest_by_identity(baseline_entries, scale)
    regressions = []
    checked = []
    for identity, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(identity)
        if fresh_entry is None:
            continue
        base_time = float(base_entry["measured_seconds"])
        fresh_time = float(fresh_entry["measured_seconds"])
        if base_time < noise_floor:
            continue
        report = {
            "row": fresh_entry.get("row", str(identity)),
            "baseline_seconds": base_time,
            "fresh_seconds": fresh_time,
            "ratio": fresh_time / base_time,
        }
        checked.append(report)
        if fresh_time > base_time * (1.0 + tolerance):
            regressions.append(report)
    return regressions, checked


def unwritten(
    fresh_entries: list,
    baseline_entries: list,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    scale: Optional[float] = None,
) -> list:
    """The row texts of baseline rows above *noise_floor* that no
    fresh entry matches."""
    fresh = latest_by_identity(fresh_entries, scale)
    baseline = latest_by_identity(baseline_entries, scale)
    return [
        entry.get("row", str(identity))
        for identity, entry in sorted(baseline.items())
        if identity not in fresh
        and float(entry["measured_seconds"]) >= noise_floor
    ]


def load_entries(path: Path) -> list:
    entries = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON list of row entries")
    return entries


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh benchmark rows regress vs a baseline"
    )
    parser.add_argument("fresh", type=Path, help="freshly written BENCH json")
    parser.add_argument("baseline", type=Path, help="committed baseline json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=DEFAULT_NOISE_FLOOR,
        help="skip rows whose baseline is below this many seconds",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="only compare entries recorded at this REPRO_BENCH_SCALE",
    )
    args = parser.parse_args(argv)
    try:
        fresh_entries = load_entries(args.fresh)
        baseline_entries = load_entries(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"bench-guard error: {exc}", file=sys.stderr)
        return 2
    regressions, checked = compare(
        fresh_entries,
        baseline_entries,
        tolerance=args.tolerance,
        noise_floor=args.noise_floor,
        scale=args.scale,
    )
    if not checked:
        print(
            "bench-guard error: no comparable rows between"
            f" {args.fresh} and {args.baseline}"
            + (f" at scale {args.scale}" if args.scale is not None else ""),
            file=sys.stderr,
        )
        return 2
    for report in checked:
        marker = "REGRESSED" if report in regressions else "ok"
        print(
            f"{marker:>9}  x{report['ratio']:.2f}"
            f"  baseline={report['baseline_seconds']:.3f}s"
            f"  fresh={report['fresh_seconds']:.3f}s"
            f"  {report['row']}"
        )
    missing = unwritten(
        fresh_entries,
        baseline_entries,
        noise_floor=args.noise_floor,
        scale=args.scale,
    )
    for row in missing:
        print(f"{'MISSING':>9}  no fresh row  {row}")
    if regressions:
        print(
            f"bench-guard: {len(regressions)} of {len(checked)} rows"
            f" slower than baseline by more than"
            f" {args.tolerance:.0%}",
            file=sys.stderr,
        )
    if missing:
        print(
            f"bench-guard: {len(missing)} baseline rows have no fresh"
            f" row in {args.fresh}",
            file=sys.stderr,
        )
    if regressions or missing:
        return 1
    print(f"bench-guard: {len(checked)} rows within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
