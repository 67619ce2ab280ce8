"""Pieces every workload shares: geometry, outcomes, percentiles.

The geometry constants are the part of the benchmark that must never
change between two commits being compared; ``--scale`` multiplies
sizes, never these.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, TypeVar

from bench.clock import Lap, Meter
from bench.trace import Tracer, self_times

#: Collector view behind every stream: ISP-Anon, the paper's large
#: table. (``profile="berkeley"`` cannot populate a view at the
#: default 7.5 routes/prefix over 4 peers, so it is not used.)
PROFILE = "isp-anon"
N_ROUTES = 20_000
BATCH_SIZE = 256

#: Generated events per stream-second (20k / 1800 s), except where a
#: workload states its own.
STREAM_RATE = 20_000 / 1800.0

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

T = TypeVar("T")

#: ``(calibrated seconds into the pass, latency in calibrated seconds)``.
Sample = tuple[float, float]


class GateError(Exception):
    """The program's outputs were wrong; the run must not count."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Outcome:
    """One workload pass: the metric values plus the contract counts."""

    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Side information for ``--details`` (sample counts, repeats).
    details: dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


def percentile(samples: list[float], share: float) -> float:
    """Linear-interpolated quantile of *samples* (0 <= share <= 1)."""
    if not samples:
        raise GateError("no latency samples: nothing closed or replied")
    ordered = sorted(samples)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def typical(passes: list[list[Sample]]) -> float:
    """The median latency over every sample of every pass."""
    return percentile(
        [latency for samples in passes for _, latency in samples], 0.5
    )


#: Length of the slices :func:`typical_worst` cuts a pass into.
SLICE = 0.5


def typical_worst(passes: list[list[Sample]]) -> float:
    """How bad it gets in a typical half second.

    The slowest latency in each :data:`SLICE` of each pass, averaged
    over the middle half of the slices. A plain high percentile sits
    where the latency distribution is steepest — between requests that
    found the loop idle and requests that waited out a window close —
    so a few percent more or less waiting moves it by tens of percent;
    and one host stall of half a second owns it outright. A slice's
    maximum is set by the longest stall in that slice, which is what
    the write path controls; dropping the top and bottom quarter of
    the slices shrugs off the odd bad (or empty) stretch and averaging
    the rest wastes less of the run than a median would.
    """
    worst: list[float] = []
    for samples in passes:
        by_slice: dict[int, float] = {}
        for when, latency in samples:
            key = int(when / SLICE)
            by_slice[key] = max(by_slice.get(key, 0.0), latency)
        worst.extend(by_slice.values())
    if not worst:
        raise GateError("no latency samples: nothing closed or replied")
    worst.sort()
    quarter = len(worst) // 4
    middle = worst[quarter:len(worst) - quarter]
    return statistics.fmean(middle)


def timed_setups(meter: Meter, build: Callable[[], T]) -> tuple[T, float]:
    """Run *build* :data:`SETUPS` times; keep the last, time the median."""
    times: list[float] = []
    built: Optional[T] = None
    for _ in range(SETUPS):
        built = None  # drop the previous set-up before timing the next
        gc.collect()
        with Lap(meter) as lap:
            built = build()
        times.append(lap.seconds)
    assert built is not None
    return built, statistics.median(times)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_values(
    tracer: Tracer, root: str, untraced_wall: float
) -> dict[str, float]:
    """Per-layer seconds and the trace diagnostics for one traced pass.

    ``<span name>_s`` is the span name's self time. The root span's own
    self time is the bench loop's glue, which no layer owns; coverage
    is everything else over the root's duration.
    """
    owned = self_times(tracer.spans)
    wall = tracer.total(root)
    glue = owned.pop(root, 0.0)
    values = {f"{name}_s": seconds for name, seconds in owned.items()}
    layer_sum = sum(owned.values())
    busy = sum(
        seconds
        for name, seconds in owned.items()
        if not name.startswith("loadgen.")
    )
    durable = sum(
        seconds
        for name, seconds in owned.items()
        if name.startswith("checkpoint.")
        or name in ("incidents.export", "store.sync")
    )
    values["checkpoint.share"] = durable / busy if busy else 0.0
    values["trace.coverage"] = (wall - glue) / wall
    values["trace.wall_ratio"] = wall / untraced_wall
    values["trace.layer_sum_s"] = layer_sum
    return values
