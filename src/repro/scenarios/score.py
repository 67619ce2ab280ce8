"""Precision/recall scoring of Stemming against labeled scenarios.

The scorer runs the shipped monitor loop
(:func:`repro.pipeline.monitor.run_monitor`) over a
:class:`LabeledIncident`'s stream and matches each window's ranked stem
locations against the incident's ground-truth edges (DESIGN.md §11):

* a ranked stem *matches* when its bare location pair equals one of
  ``incident.true_stems`` (the same values
  :attr:`repro.stemming.stemmer.Component.location` reports);
* per window, precision = matching stems in the top *k* over ranked
  stems considered, recall = distinct true stems covered by the top
  *k* over all true stems, F1 their harmonic mean;
* only windows overlapping the incident's active window are scored,
  and per-incident metrics are means over those windows, plus the best
  (lowest) rank any true stem ever achieved and the fraction of
  windows where a true stem was ranked first / in the top *k*.

Since the incident subsystem landed, the scorer also scores the
*streaming* lifecycle (Moriano et al., arXiv:1905.05835, evaluate
detection *delay* against labeled onsets, not just hit rates): the
run's :class:`~repro.incidents.manager.IncidentManager` grew its
incidents from the same window reports, and each scenario
reports how many managed incidents matched the ground-truth stems
(the merge rules should produce exactly one), the detection latency
from labeled onset to the incident opening, and its time-to-resolve.

:class:`Scorecard` aggregates incident scores into the JSON artifact
(``bench_results/SCORE_scenarios.json``), and
:func:`compare_scorecards` diffs a fresh scorecard against the
checked-in baseline in the same >-threshold style as
``benchmarks/bench_guard.py`` — the tier-1 detection-quality gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.incidents.lifecycle import IncidentRecord, stem_key
from repro.incidents.manager import IncidentManager
from repro.pipeline.monitor import MonitorConfig, run_monitor
from repro.pipeline.sources import StreamSource
from repro.scenarios.labels import LabeledIncident, StemEdge

#: Absolute drop in a [0, 1] metric that fails the gate.
DEFAULT_TOLERANCE = 0.05

#: The [0, 1] metrics the gate compares, in report order.
GATE_METRICS = (
    "precision",
    "recall",
    "f1",
    "top1_rate",
    "topk_rate",
    "prefix_recall",
)

#: Lifecycle timings may drift this much (relative) plus a one-second
#: absolute floor before the gate calls it a regression — they are
#: stream-time quantities, so any real movement means the merge rules
#: or window geometry changed, not the hardware.
TIMING_RELATIVE_SLACK = 0.25
TIMING_ABSOLUTE_SLACK = 1.0


@dataclass(frozen=True, slots=True)
class RankedScore:
    """Match quality of one ranked-stem list against ground truth."""

    precision: float
    recall: float
    f1: float
    #: 1-based rank of the best-placed true stem in the *full* ranking
    #: (None when no true stem was ranked at all).
    best_rank: Optional[int]
    top1_hit: bool
    topk_hit: bool


def score_ranked(
    ranked: Sequence[StemEdge],
    true_stems: Sequence[StemEdge],
    k: int,
) -> RankedScore:
    """Score one ranked list of stem locations against the true edges.

    Precision counts over the stems actually considered —
    ``min(k, len(ranked))`` — so a short-but-correct ranking is not
    penalized for stems it never claimed; an empty ranking scores zero
    across the board. Duplicate true stems in the top *k* count once
    for recall but every occurrence counts for precision.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not true_stems:
        raise ValueError("cannot score against empty ground truth")
    truth = set(true_stems)
    head = list(ranked[:k])
    if not head:
        return RankedScore(0.0, 0.0, 0.0, None, False, False)
    matches = sum(1 for stem in head if stem in truth)
    covered = len(truth & set(head))
    precision = matches / len(head)
    recall = covered / len(truth)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    best_rank = None
    for position, stem in enumerate(ranked, start=1):
        if stem in truth:
            best_rank = position
            break
    return RankedScore(
        precision=precision,
        recall=recall,
        f1=f1,
        best_rank=best_rank,
        top1_hit=bool(head) and head[0] in truth,
        topk_hit=covered > 0,
    )


@dataclass(frozen=True, slots=True)
class IncidentScore:
    """Detection quality of the windowed detector on one incident."""

    scenario: str
    incident_class: str
    seed: Optional[int]
    events: int
    #: Windows the detector emitted / windows that overlapped the
    #: incident's active span and were scored.
    windows: int
    windows_scored: int
    precision: float
    recall: float
    f1: float
    #: Best (lowest) rank any true stem achieved in any scored window.
    best_rank: Optional[int]
    #: Fraction of scored windows with a true stem at rank 1 / in top k.
    top1_rate: float
    topk_rate: float
    #: Share of the labeled affected prefixes that appear in matched
    #: components across scored windows.
    prefix_recall: float
    detected: bool
    #: Managed incidents whose stem (or a merged related stem) matched
    #: a true stem — the merge rules should yield exactly one.
    incidents: int = 0
    #: Stream-seconds from the labeled onset to the matched incident
    #: opening (None when no incident matched).
    detection_latency: Optional[float] = None
    #: Stream-seconds the matched incident stayed open.
    time_to_resolve: Optional[float] = None

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "class": self.incident_class,
            "seed": self.seed,
            "events": self.events,
            "windows": self.windows,
            "windows_scored": self.windows_scored,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "best_rank": self.best_rank,
            "top1_rate": round(self.top1_rate, 6),
            "topk_rate": round(self.topk_rate, 6),
            "prefix_recall": round(self.prefix_recall, 6),
            "detected": self.detected,
            "incidents": self.incidents,
            "detection_latency": (
                None
                if self.detection_latency is None
                else round(self.detection_latency, 6)
            ),
            "time_to_resolve": (
                None
                if self.time_to_resolve is None
                else round(self.time_to_resolve, 6)
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IncidentScore":
        best_rank = data.get("best_rank")
        return cls(
            scenario=str(data["scenario"]),
            incident_class=str(data.get("class", "")),
            seed=data.get("seed"),
            events=int(data.get("events", 0)),
            windows=int(data.get("windows", 0)),
            windows_scored=int(data.get("windows_scored", 0)),
            precision=float(data.get("precision", 0.0)),
            recall=float(data.get("recall", 0.0)),
            f1=float(data.get("f1", 0.0)),
            best_rank=None if best_rank is None else int(best_rank),
            top1_rate=float(data.get("top1_rate", 0.0)),
            topk_rate=float(data.get("topk_rate", 0.0)),
            prefix_recall=float(data.get("prefix_recall", 0.0)),
            detected=bool(data.get("detected", False)),
            incidents=int(data.get("incidents", 0)),
            detection_latency=_opt_float(data.get("detection_latency")),
            time_to_resolve=_opt_float(data.get("time_to_resolve")),
        )


def _opt_float(value: object) -> Optional[float]:
    return None if value is None else float(value)


def _zero_score(incident: LabeledIncident, windows: int) -> IncidentScore:
    return IncidentScore(
        scenario=incident.name,
        incident_class=incident.incident_class.value,
        seed=incident.seed,
        events=len(incident.stream),
        windows=windows,
        windows_scored=0,
        precision=0.0,
        recall=0.0,
        f1=0.0,
        best_rank=None,
        top1_rate=0.0,
        topk_rate=0.0,
        prefix_recall=0.0,
        detected=False,
    )


def _match_incidents(
    manager: IncidentManager, incident: LabeledIncident
) -> tuple[int, Optional[float], Optional[float]]:
    """Match the run's managed incidents against ground truth.

    Returns ``(matched incidents, detection latency, time to
    resolve)``: an incident matches when its stem — or any stem merged
    into it — equals a true stem; latency and time-to-resolve come
    from the earliest-opened match.
    """
    truth = {stem_key(edge) for edge in incident.true_stems}

    def matches(record: IncidentRecord) -> bool:
        return record.stem in truth or any(
            related in truth for related in record.related_stems
        )

    matched = [r for r in manager.all_incidents() if matches(r)]
    if not matched:
        return 0, None, None
    first = min(matched, key=lambda r: (r.opened_at, r.incident_id))
    latency = first.opened_at - incident.window.start
    return len(matched), latency, first.time_to_resolve


def score_incident(
    incident: LabeledIncident,
    *,
    window: float,
    slide: Optional[float] = None,
    top_k: int = 3,
    min_strength: int = 2,
    max_components: int = 16,
) -> IncidentScore:
    """Run the monitor over one labeled stream and score it.

    The lifecycle is scaled to *window* and pinned here, so a change of
    the monitor's defaults does not move the scorecard.
    ``resolve_after`` of two windows lets an incident survive one quiet
    window without closing; the effectively unbounded reopen window
    means a true stem recurring late in the scenario reopens its
    original incident instead of fragmenting into a second one — which
    is what "exactly one merged incident per scenario" requires.
    """
    if not incident.true_stems:
        raise ValueError(
            f"scenario {incident.name!r} has no true stems to score"
        )
    config = MonitorConfig(
        window=window,
        slide=slide,
        min_strength=min_strength,
        max_components=max_components,
        resolve_after=2.0 * window,
        correlation_window=2.0 * window,
        reopen_window=1e12,
        investigate_after=2,
        prefix_overlap=0.5,
    )
    result = run_monitor(StreamSource(incident.stream), config)
    reports = result.reports
    scored = [
        report
        for report in reports
        if incident.window.overlaps(report.start, report.end)
    ]
    if not scored:
        return _zero_score(incident, len(reports))
    per_window: list[RankedScore] = []
    best_rank: Optional[int] = None
    matched_prefixes: set = set()
    for report in scored:
        ranked = [
            component.location for component in report.result.components
        ]
        window_score = score_ranked(ranked, incident.true_stems, top_k)
        per_window.append(window_score)
        if window_score.best_rank is not None and (
            best_rank is None or window_score.best_rank < best_rank
        ):
            best_rank = window_score.best_rank
        for component in report.result.components[:top_k]:
            if component.location in set(incident.true_stems):
                matched_prefixes.update(component.prefixes)
    count = len(per_window)
    prefix_recall = (
        len(matched_prefixes & incident.affected_prefixes)
        / len(incident.affected_prefixes)
        if incident.affected_prefixes
        else 0.0
    )
    matched_incidents, latency, time_to_resolve = _match_incidents(
        result.incidents, incident
    )
    return IncidentScore(
        scenario=incident.name,
        incident_class=incident.incident_class.value,
        seed=incident.seed,
        events=len(incident.stream),
        windows=len(reports),
        windows_scored=count,
        precision=sum(s.precision for s in per_window) / count,
        recall=sum(s.recall for s in per_window) / count,
        f1=sum(s.f1 for s in per_window) / count,
        best_rank=best_rank,
        top1_rate=sum(1 for s in per_window if s.top1_hit) / count,
        topk_rate=sum(1 for s in per_window if s.topk_hit) / count,
        prefix_recall=prefix_recall,
        detected=any(s.topk_hit for s in per_window),
        incidents=matched_incidents,
        detection_latency=latency,
        time_to_resolve=time_to_resolve,
    )


@dataclass(slots=True)
class Scorecard:
    """The detection-quality artifact: one score row per scenario."""

    scores: dict[str, IncidentScore] = field(default_factory=dict)
    config: dict[str, object] = field(default_factory=dict)
    #: v2 added the streaming-lifecycle columns (incidents,
    #: detection_latency, time_to_resolve).
    schema: int = 2

    def add(self, score: IncidentScore) -> None:
        self.scores[score.scenario] = score

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": self.schema,
            "config": self.config,
            "scenarios": {
                name: score.to_dict()
                for name, score in sorted(self.scores.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "Scorecard":
        card = cls(
            config=dict(data.get("config", {})),
            schema=int(data.get("schema", 1)),
        )
        for name, row in data.get("scenarios", {}).items():
            row = dict(row)
            row.setdefault("scenario", name)
            card.add(IncidentScore.from_dict(row))
        return card

    @classmethod
    def load(cls, path: Path | str) -> "Scorecard":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def build_scorecard(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    *,
    min_strength: int = 2,
    max_components: int = 16,
    size_overrides: Optional[dict[str, object]] = None,
) -> Scorecard:
    """Generate and score every (or the named) scored scenarios.

    *size_overrides* is forwarded to every builder (e.g. smaller sites
    for smoke runs); unknown keys for a given builder fail loudly, so
    only pass knobs every selected scenario accepts.
    """
    from repro.scenarios import registry

    if names is None:
        names = registry.scored_names()
    card = Scorecard(
        config={
            "seed": seed,
            "min_strength": min_strength,
            "max_components": max_components,
            "tolerance": DEFAULT_TOLERANCE,
        }
    )
    for name in names:
        scenario = registry.get(name)
        if not scenario.scored:
            raise ValueError(
                f"scenario {name!r} has no ground-truth stems to score"
            )
        incident = scenario.build(seed=seed, **(size_overrides or {}))
        card.add(
            score_incident(
                incident,
                window=scenario.window,
                slide=scenario.slide,
                top_k=scenario.top_k,
                min_strength=min_strength,
                max_components=max_components,
            )
        )
    return card


@dataclass(frozen=True, slots=True)
class Regression:
    """One scenario metric that fell below its baseline."""

    scenario: str
    metric: str
    fresh: Optional[float]
    baseline: Optional[float]

    def row(self) -> str:
        fresh = "missing" if self.fresh is None else f"{self.fresh:.4f}"
        base = "-" if self.baseline is None else f"{self.baseline:.4f}"
        return (
            f"  {self.scenario:<24} {self.metric:<14}"
            f" fresh={fresh:<9} baseline={base:<9} REGRESSED"
        )


def compare_scorecards(
    fresh: Scorecard,
    baseline: Scorecard,
    tolerance: float = DEFAULT_TOLERANCE,
    rank_slack: int = 0,
) -> tuple[list[Regression], int]:
    """Diff a fresh scorecard against the checked-in baseline.

    Returns ``(regressions, checks)`` in the ``bench_guard`` style: a
    [0, 1] metric regresses when it drops more than *tolerance* below
    baseline; ``best_rank`` regresses when the true stem's best rank
    worsens by more than *rank_slack* (or vanishes). The lifecycle
    columns are gated too: the matched-incident count must equal the
    baseline exactly (fragmenting one event into two incidents — or
    merging two into one — is a merge-rule change, not noise), and
    detection latency / time-to-resolve regress when they grow beyond
    the relative+absolute timing slack or disappear. Scenarios present
    only in the fresh card are new coverage, never failures; scenarios
    missing from the fresh card fail outright.
    """
    regressions: list[Regression] = []
    checks = 0
    for name, base in sorted(baseline.scores.items()):
        current = fresh.scores.get(name)
        if current is None:
            checks += 1
            regressions.append(Regression(name, "present", None, 1.0))
            continue
        for metric in GATE_METRICS:
            checks += 1
            fresh_value = getattr(current, metric)
            base_value = getattr(base, metric)
            if fresh_value < base_value - tolerance:
                regressions.append(
                    Regression(name, metric, fresh_value, base_value)
                )
        checks += 1
        if base.best_rank is not None and (
            current.best_rank is None
            or current.best_rank > base.best_rank + rank_slack
        ):
            regressions.append(
                Regression(
                    name,
                    "best_rank",
                    None
                    if current.best_rank is None
                    else float(current.best_rank),
                    float(base.best_rank),
                )
            )
        checks += 1
        if current.incidents != base.incidents:
            regressions.append(
                Regression(
                    name,
                    "incidents",
                    float(current.incidents),
                    float(base.incidents),
                )
            )
        for metric in ("detection_latency", "time_to_resolve"):
            checks += 1
            base_value = getattr(base, metric)
            if base_value is None:
                continue
            fresh_value = getattr(current, metric)
            limit = (
                base_value * (1.0 + TIMING_RELATIVE_SLACK)
                + TIMING_ABSOLUTE_SLACK
            )
            if fresh_value is None or fresh_value > limit:
                regressions.append(
                    Regression(name, metric, fresh_value, base_value)
                )
    return regressions, checks


def format_comparison(
    fresh: Scorecard,
    baseline: Scorecard,
    regressions: Sequence[Regression],
) -> str:
    """Human-readable gate report, one line per baseline scenario."""
    failed = {(r.scenario, r.metric) for r in regressions}
    bad_scenarios = {r.scenario for r in regressions}
    lines = []
    for name, base in sorted(baseline.scores.items()):
        current = fresh.scores.get(name)
        if current is None:
            lines.append(f"  {name:<24} MISSING from fresh scorecard")
            continue
        status = "REGRESSED" if name in bad_scenarios else "ok"
        rank = "-" if current.best_rank is None else str(current.best_rank)
        latency = (
            "-"
            if current.detection_latency is None
            else f"{current.detection_latency:.0f}s"
        )
        ttr = (
            "-"
            if current.time_to_resolve is None
            else f"{current.time_to_resolve:.0f}s"
        )
        lines.append(
            f"  {name:<24} f1={current.f1:.3f} (base {base.f1:.3f})"
            f" recall={current.recall:.3f} rank={rank}"
            f" inc={current.incidents} latency={latency}"
            f" ttr={ttr} {status}"
        )
        for scenario, metric in sorted(failed):
            if scenario != name or metric == "present":
                continue
            reg = next(
                r
                for r in regressions
                if r.scenario == scenario and r.metric == metric
            )
            lines.append(reg.row())
    return "\n".join(lines)
