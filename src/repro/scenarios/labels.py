"""The label schema: machine-readable ground truth for a scenario.

Every scenario in the library emits a :class:`LabeledIncident` — the
event stream the collector saw plus everything a scorer needs to judge
a detector against it: the incident class, the true stem edge(s) the
Stemming decomposition should report, the affected prefix set, and the
active time window. The types here are deliberately frozen and slotted:
ground truth that a test can mutate is not ground truth.

``true_stems`` holds *every* ground-truth problem edge, as bare value
pairs matching :attr:`repro.stemming.stemmer.Component.location`. Most
incidents have exactly one; a route leak has one per leaked adjacency.
Recall is measured against all of them (DESIGN.md §11).

:class:`ScenarioDetails` replaces the old untyped ``details: dict``: an
immutable mapping with a constrained value vocabulary, so scenario
facts serialize cleanly into the labels artifact and cannot be edited
after construction.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

from repro.collector.stream import EventStream
from repro.net.prefix import Prefix

#: One ground-truth problem edge, as bare stem values — the exact shape
#: :attr:`repro.stemming.stemmer.Component.location` reports.
StemEdge = tuple[object, object]

#: Scenario facts are restricted to JSON-friendly scalars and int
#: tuples (AS paths, prefix-length histograms) so the labels artifact
#: round-trips without custom encoders.
DetailValue = Union[int, float, str, bool, None, tuple[int, ...]]


class IncidentClass(enum.Enum):
    """Taxonomy of the anomaly catalog (ROADMAP item 2 families)."""

    #: Announcement bursts with bursty inter-arrival structure
    #: (Moriano et al., arXiv:1905.05835).
    BURST = "burst"
    #: Route leaks via valley-violating AS-path patterns
    #: (CAIR, arXiv:1605.00618).
    ROUTE_LEAK = "route-leak"
    #: Interception / forged-origin hijack paths (CAIR).
    INTERCEPTION = "interception"
    #: Hyper-specific-prefix floods, /25–/32 (Sediqi et al.,
    #: arXiv:2206.13876).
    HYPER_SPECIFIC = "hyper-specific"
    #: Community-tag-signaled events (CommunityWatch, arXiv:1806.07476).
    COMMUNITY_SIGNAL = "community-signal"
    #: The paper's Section IV / Section I incident shapes.
    SESSION_RESET = "session-reset"
    ORIGIN_HIJACK = "origin-hijack"
    FLAP = "flap"
    OSCILLATION = "oscillation"
    MISCONFIGURATION = "misconfiguration"


class ScenarioDetails(Mapping[str, DetailValue]):
    """Immutable, typed scenario facts (the old ``details`` dict).

    Behaves as a read-only mapping — ``details["flap_count"]`` keeps
    working everywhere the dict did — but the storage is a frozen item
    tuple, lists arrive as int tuples, and every value is checked
    against :data:`DetailValue` at construction time.
    """

    __slots__ = ("_items",)

    def __init__(self, **facts: DetailValue) -> None:
        items = []
        for key, value in facts.items():
            if isinstance(value, list):
                value = tuple(value)
            if isinstance(value, tuple):
                if not all(isinstance(v, int) for v in value):
                    raise TypeError(
                        f"detail {key!r}: tuples must be all-int,"
                        f" got {value!r}"
                    )
            elif not isinstance(value, (int, float, str, bool, type(None))):
                raise TypeError(
                    f"detail {key!r} has unsupported type"
                    f" {type(value).__name__}; allowed: int, float, str,"
                    " bool, None, tuple[int, ...]"
                )
            items.append((key, value))
        self._items: tuple[tuple[str, DetailValue], ...] = tuple(items)

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, DetailValue]
    ) -> "ScenarioDetails":
        return cls(**dict(mapping))

    def __getitem__(self, key: str) -> DetailValue:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"ScenarioDetails({body})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScenarioDetails):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def to_dict(self) -> dict[str, DetailValue]:
        """A plain-dict copy (JSON artifact form; lists for tuples)."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self._items
        }


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """The incident's active interval, in stream (archive) seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"window ends before it starts: [{self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, start: float, end: float) -> bool:
        """True when [start, end) intersects the active window.

        A zero-length active window (an instantaneous incident) still
        overlaps any span containing its instant.
        """
        if self.duration == 0.0:
            return start <= self.start < end
        return start < self.end and end > self.start


def _stem_text(edge: StemEdge) -> list[str]:
    return [str(edge[0]), str(edge[1])]


@dataclass(frozen=True, slots=True)
class LabeledIncident:
    """One generated anomaly plus its machine-readable ground truth."""

    name: str
    incident_class: IncidentClass
    stream: EventStream
    #: Every AS-graph edge where the problem lies, as Stemming should
    #: report them (empty when the incident has no stem-shaped
    #: location, e.g. the Figure 6 mis-tagging).
    true_stems: tuple[StemEdge, ...]
    #: Prefixes the incident affects.
    affected_prefixes: frozenset[Prefix]
    #: When the incident was active in stream time.
    window: TimeWindow
    #: Typed scenario facts used by assertions and reports.
    details: ScenarioDetails = field(default_factory=ScenarioDetails)
    #: Seed the generator ran with (paper scenarios are deterministic
    #: simulations; they record the seed they were asked for anyway).
    seed: Optional[int] = None

    @property
    def true_stem(self) -> Optional[StemEdge]:
        """Back-compat single-location view (first true stem or None)."""
        return self.true_stems[0] if self.true_stems else None

    def labels_dict(self) -> dict[str, object]:
        """The ground-truth side alone, JSON-serializable.

        This is the labels artifact ``repro scenarios generate``
        writes next to the event stream: everything except the events.
        """
        return {
            "name": self.name,
            "class": self.incident_class.value,
            "seed": self.seed,
            "true_stems": [_stem_text(edge) for edge in self.true_stems],
            "affected_prefixes": sorted(
                str(p) for p in self.affected_prefixes
            ),
            "window": {"start": self.window.start, "end": self.window.end},
            "events": len(self.stream),
            "fingerprint": self.stream.fingerprint(),
            "details": self.details.to_dict(),
        }

    def labels_json(self) -> str:
        return json.dumps(self.labels_dict(), sort_keys=True, indent=1)

