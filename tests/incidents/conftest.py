"""Fabricated components and window reports for incident-unit tests.

The manager only reads a handful of fields off a report — ``end``,
``index``, and the ranked components — so these helpers build real
:class:`Component` / :class:`WindowReport` objects around a synthetic
event list instead of running the full pipeline. Stems use the ``as``
token namespace so ``format_stem`` renders them (``AS65001--AS65002``).
"""

from dataclasses import dataclass

from repro.collector.events import EventKind
from repro.collector.stream import EventStream
from repro.pipeline.windows import WindowReport
from repro.stemming.stemmer import Component, StemmingResult


@dataclass(frozen=True)
class FakeEvent:
    """Just enough event surface for an :class:`EventStream` and
    ``classify_component``: the field production reads, ``kind``."""

    kind: EventKind
    timestamp: float = 0.0


def make_component(
    rank: int,
    left: int,
    right: int,
    *,
    strength: int = 5,
    prefixes: tuple[str, ...] = ("10.0.0.0/24", "10.0.1.0/24"),
    withdrawals: int = 0,
    announcements: int = 8,
) -> Component:
    events = [FakeEvent(EventKind.WITHDRAW)] * withdrawals + [
        FakeEvent(EventKind.ANNOUNCE)
    ] * announcements
    stem = (("as", left), ("as", right))
    return Component(
        rank=rank,
        subsequence=stem,
        strength=strength,
        stem=stem,
        prefixes=frozenset(prefixes),
        events=EventStream(events),  # type: ignore[arg-type]
        withdrawals=withdrawals,
    )


def make_report(
    index: int,
    end: float,
    components: tuple[Component, ...] | list[Component],
    *,
    window: float = 120.0,
) -> WindowReport:
    result = StemmingResult(
        components=tuple(components),
        residual_events=0,
        total_events=sum(c.event_count for c in components),
    )
    return WindowReport(
        index=index,
        start=end - window,
        end=end,
        event_count=result.total_events,
        fingerprint=f"window-{index}",
        result=result,
    )
