"""Traffic-weighted Stemming (Section III-D.2).

Stemming's prefix counts weigh every prefix equally, but Internet traffic
is elephants-and-mice: 10% of prefixes can carry 90% of the bytes. A
routing problem on a few elephant prefixes matters far more than one on a
thousand idle mice. The weighted stemmer multiplies each event's
contribution by the traffic volume of its prefix, so the decomposition
ranks incidents by *impact* rather than by event count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.collector.events import BGPEvent, Token
from repro.collector.stream import EventStream
from repro.net.prefix import Prefix
from repro.stemming.counter import _subsequences
from repro.stemming.stemmer import Component, StemmingResult, _contains


@dataclass(slots=True)
class TrafficWeightedStemmer:
    """Stemming where correlation strength is traffic volume.

    *volumes* maps prefix → traffic volume (bytes/sec or any consistent
    unit); prefixes absent from the map get *default_volume*. Strengths
    in the result are volume sums rounded to int, so
    :class:`Component` stays shared with the unweighted stemmer.
    """

    volumes: Mapping[Prefix, float]
    default_volume: float = 1.0
    min_strength: float = 1e-9
    max_components: int = 16

    def volume_of(self, prefix: Prefix) -> float:
        return self.volumes.get(prefix, self.default_volume)

    def decompose(self, events: Iterable[BGPEvent]) -> StemmingResult:
        remaining = list(events)
        total = len(remaining)
        components: list[Component] = []
        while remaining and len(components) < self.max_components:
            component = self._extract_strongest(remaining, len(components) + 1)
            if component is None:
                break
            components.append(component)
            affected = component.prefixes
            remaining = [e for e in remaining if e.prefix not in affected]
        return StemmingResult(
            components=tuple(components),
            residual_events=len(remaining),
            total_events=total,
        )

    def _extract_strongest(
        self, events: list[BGPEvent], rank: int
    ) -> Optional[Component]:
        weights: Counter[tuple[Token, ...]] = Counter()
        # Deduplicate (sequence, weight) pairs like the unweighted
        # counter; identical sequences always share a prefix, hence a
        # weight.
        sequence_weight: dict[tuple[Token, ...], float] = {}
        sequence_count: Counter[tuple[Token, ...]] = Counter()
        for event in events:
            sequence_count[event.sequence] += 1
            sequence_weight[event.sequence] = self.volume_of(event.prefix)
        for sequence, count in sequence_count.items():
            weight = sequence_weight[sequence] * count
            for subsequence in _subsequences(sequence, None):
                weights[subsequence] += weight
        if not weights:
            return None
        subsequence, strength = max(
            weights.items(), key=lambda item: (item[1], len(item[0]))
        )
        if strength < self.min_strength:
            return None
        prefixes = frozenset(
            e.prefix for e in events if _contains(e.sequence, subsequence)
        )
        component_events = EventStream(
            e for e in events if e.prefix in prefixes
        )
        return Component(
            rank=rank,
            subsequence=subsequence,
            strength=int(round(strength)),
            stem=(subsequence[-2], subsequence[-1]),
            prefixes=prefixes,
            events=component_events,
            withdrawals=component_events.withdraw_count(),
        )
