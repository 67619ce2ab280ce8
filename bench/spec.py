"""``BENCHMARK.json`` as the single list of names, units and bounds.

The workloads compute values into plain dicts; what gets *emitted*,
under which unit, is whatever the contract file lists — so the program
and the contract cannot drift apart, and ``bench compare`` reads each
metric's bound from the same place the driver does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from bench import ROOT


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median the metric may worsen by; ``None``
    #: for per-layer metrics, which carry no bound.
    bound: float | None = None


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]


def load_spec() -> Spec:
    data = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    return Spec(
        run_seconds=int(data["run_seconds"]),
        workloads=tuple(w["name"] for w in data["workloads"]),
        end_to_end=tuple(Metric(**m) for m in data["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in data["per_layer"]),
    )


def emit(
    metrics: tuple[Metric, ...], values: dict[str, float]
) -> dict[str, dict[str, object]]:
    """The contract's ``metrics`` object for *values*.

    A layer a workload never enters reports 0 — that is the point of
    the bypass workloads — but a missing end-to-end value is a bug.
    """
    out: dict[str, dict[str, object]] = {}
    for metric in metrics:
        if metric.bound is not None and metric.name not in values:
            raise KeyError(f"workload produced no {metric.name}")
        out[metric.name] = {
            "value": values.get(metric.name, 0.0),
            "unit": metric.unit,
        }
    return out
