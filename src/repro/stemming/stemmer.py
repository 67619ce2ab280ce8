"""The Stemming decomposition.

Applies the subsequence counter recursively: find the strongest
subsequence s′, read its last adjacent pair as the stem (problem
location), collect the affected prefix set P (prefixes of events
containing s′) and the component E (every event touching P), remove E,
repeat. The result is a ranked list of :class:`Component`s — the "few
incidents" hidden in the million events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.collector.events import BGPEvent, Token
from repro.collector.stream import EventStream
from repro.net.prefix import Prefix
from repro.perf import gc_paused
from repro.stemming.counter import IdSequence, SubsequenceCounter
from repro.stemming.encode import format_stem, stem_values


@dataclass(frozen=True)
class Component:
    """One correlated component: a diagnosed incident."""

    rank: int
    #: The winning subsequence s′.
    subsequence: tuple[Token, ...]
    #: Number of events containing s′ (the correlation strength).
    strength: int
    #: The problem location: the last adjacent pair of s′.
    stem: tuple[Token, Token]
    #: Prefixes affected by the problem.
    prefixes: frozenset[Prefix]
    #: The events making up the component.
    events: EventStream

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def location(self) -> tuple[object, object]:
        """Bare stem values, for ground-truth comparison."""
        return stem_values(self.stem)

    def describe(self) -> str:
        return (
            f"#{self.rank}: {format_stem(self.stem)} — "
            f"{len(self.prefixes)} prefixes, {self.event_count} events, "
            f"strength {self.strength}"
        )


@dataclass(frozen=True)
class StemmingResult:
    """The full decomposition of a stream."""

    components: tuple[Component, ...]
    residual_events: int
    total_events: int

    @property
    def strongest(self) -> Optional[Component]:
        return self.components[0] if self.components else None

    def component_at(self, location: tuple[object, object]) -> Optional[Component]:
        """The component whose stem matches *location*, if any."""
        for component in self.components:
            if component.location == location:
                return component
        return None

    def coverage(self) -> float:
        """Fraction of events explained by some component."""
        if self.total_events == 0:
            return 0.0
        return 1.0 - self.residual_events / self.total_events

    def summary(self) -> str:
        lines = [
            f"{self.total_events} events -> {len(self.components)} components"
            f" ({self.coverage():.0%} explained)"
        ]
        lines.extend(c.describe() for c in self.components)
        return "\n".join(lines)


@dataclass(slots=True)
class Stemmer:
    """Configurable recursive decomposition.

    *min_strength* stops recursion once the strongest remaining
    correlation falls to background level (default 2: a subsequence seen
    once explains nothing). *max_components* bounds output for
    pathological streams. *max_subsequence_length* is forwarded to the
    counter (None = unbounded; see the ablation for the trade-off).
    """

    min_strength: int = 2
    max_components: int = 16
    max_subsequence_length: Optional[int] = None
    #: Worker processes for the counter's subsequence expansion (None =
    #: the ``REPRO_WORKERS`` environment variable; see ``repro.perf``).
    workers: Optional[int] = None

    def load(
        self, events: Iterable[BGPEvent], index: Optional["StemIndex"] = None
    ) -> "StemIndex":
        """Group and count *events* into *index* (default: a new one):
        a batch caller's whole stream, or one slide's admissions."""
        if index is None:
            index = StemIndex(self.max_subsequence_length, self.workers)
        index.add(events)
        return index

    def decompose(self, events: Iterable[BGPEvent]) -> StemmingResult:
        """Ranked correlated components of *events*: :meth:`load`
        everything, then :meth:`extract`."""
        return self.extract(self.load(events))

    def extract(self, index: "StemIndex") -> StemmingResult:
        """Ranked components of the events *index* holds; the index is
        left as it was, so its owner can keep sliding it.

        Two deduplication tricks keep a million-event decomposition fast:
        the counts are loaded once and component extraction *subtracts*
        sequences (from C-level copies of the index's tables) instead of
        recounting the residual, and every per-component scan (which
        prefixes match s′, which events belong to the component) runs
        over *unique sequences*, of which real streams have orders of
        magnitude fewer than events. All of it runs interned
        (DESIGN.md §10): matching and removal compare ints, and tokens
        reappear only inside the :class:`Component` results.
        """
        with gc_paused():
            counter = index.counter.fork()
            by_ids = index.by_ids.copy()
            components: list[Component] = []
            total = remaining = counter.event_count
            while by_ids and len(components) < self.max_components:
                extracted = self._component_from_top(
                    counter, by_ids, len(components) + 1
                )
                if extracted is None:
                    break
                component_of, affected_ids = extracted
                # One pass pops the component's sequences, collecting
                # its events and the counter removals together.
                removals: list[tuple[IdSequence, int]] = []
                component_events: list[BGPEvent] = []
                for ids in [s for s in by_ids if s[-1] in affected_ids]:
                    bucket = by_ids.pop(ids)
                    removals.append((ids, len(bucket)))
                    component_events.extend(bucket)
                    remaining -= len(bucket)
                components.append(component_of(component_events))
                if len(components) < self.max_components:
                    counter.subtract_id_sequences(removals)
        return StemmingResult(
            components=tuple(components),
            residual_events=remaining,
            total_events=total,
        )

    def strongest_component(
        self, events: Iterable[BGPEvent]
    ) -> Optional[Component]:
        """Just the top component (cheaper than a full decomposition)."""
        return replace(self, max_components=1).decompose(events).strongest

    def _component_from_top(
        self,
        counter: SubsequenceCounter,
        by_ids: dict[IdSequence, list[BGPEvent]],
        rank: int,
    ) -> Optional[tuple]:
        """The next component (minus its events) plus the affected
        prefix *token ids*.

        The id set drives removal matching in :meth:`extract` (int
        membership instead of Prefix hashing), and the caller collects
        the component's events while popping matched sequences — one
        scan where separate collect-then-remove passes would take two.
        Returns ``(build, affected_ids)`` where ``build(events)``
        finishes the :class:`Component`; its decoded tokens and
        prefixes are identical to what the object-level pipeline
        produced.
        """
        top = counter.top_ids()
        if top is None:
            return None
        top_ids, strength = top
        if strength < self.min_strength:
            return None
        token = counter.symbols.token
        subsequence = tuple(token(tid) for tid in top_ids)
        stem = (subsequence[-2], subsequence[-1])
        # C-level tuple membership rejects most sequences before any
        # Python adjacency walk.
        first = top_ids[0]
        if len(top_ids) == 2:
            # The usual winner is a bare pair (see _pair_top).
            second = top_ids[1]
            affected_ids = {
                ids[-1]
                for ids in by_ids
                if first in ids
                and second in ids
                and _adjacent(ids, first, second)
            }
        else:
            affected_ids = {
                ids[-1]
                for ids in by_ids
                if first in ids and _contains(ids, top_ids)
            }
        prefixes = frozenset(
            token(tid)[1]  # the prefix token's value
            for tid in affected_ids
        )

        def component_of(events: Iterable[BGPEvent]) -> Component:
            return Component(
                rank=rank,
                subsequence=subsequence,
                strength=strength,
                stem=stem,
                prefixes=prefixes,
                events=EventStream(events),
            )

        return component_of, affected_ids


class StemIndex:
    """The loaded first level: a unique-sequence index (id sequence ->
    events, in admission order) and its subsequence counts, kept current
    under :meth:`add` and :meth:`remove`.

    An event's prefix is its last token, so events sharing a sequence
    share a prefix, and per-sequence grouping loses nothing. The
    sequence *head* (peer, nexthop, collapsed AS path) is a pure
    function of (peer, attributes), so its rendered-and-interned id
    tuple is memoized on that pair: grouping costs a few small-key dict
    probes and an append per event, never a re-render. Bundles that
    render to one head (MED or communities differ, say) share its memo
    entry, so their events land in one bucket in arrival order.

    Batch Stemming loads one and drops it. The window stage keeps one
    across closes — each event grouped and counted once, however many
    windows it sits in — and, since the table and memos only grow
    (:attr:`interned`), rebuilds it when they have doubled.
    """

    __slots__ = (
        "symbols", "counter", "by_ids", "_peers", "_heads", "_pfx_ids"
    )

    def __init__(
        self, max_length: Optional[int] = None, workers: Optional[int] = None
    ) -> None:
        self.counter = SubsequenceCounter(max_length, workers=workers)
        self.symbols = self.counter.symbols
        self.by_ids: dict[IdSequence, list[BGPEvent]] = {}
        #: peer -> attributes -> (head, the head's scratch).
        self._peers: dict[int, dict] = {}
        #: head -> scratch (pfx id -> events), shared by every bundle
        #: rendering to that head; filled and emptied inside one
        #: :meth:`_group_by_ids`.
        self._heads: dict[IdSequence, dict[int, list[BGPEvent]]] = {}
        self._pfx_ids: dict[Prefix, int] = {}

    @property
    def interned(self) -> int:
        """Tokens plus memoized bundles: :meth:`remove` frees neither."""
        return self.symbols.token_count + sum(map(len, self._peers.values()))

    def add(self, events: Iterable[BGPEvent]) -> None:
        """Index and count *events*, which arrive after all held ones."""
        counts: list[tuple[IdSequence, int]] = []
        with gc_paused():
            for ids, batch in self._group_by_ids(events):
                bucket = self.by_ids.get(ids)
                if bucket is None:
                    self.by_ids[ids] = batch
                else:
                    bucket.extend(batch)
                counts.append((ids, len(batch)))
            self.counter.add_id_counts(counts)

    def remove(self, events: Iterable[BGPEvent]) -> None:
        """Drop *events*: the oldest held ones, as an eviction pops."""
        removals: list[tuple[IdSequence, int]] = []
        with gc_paused():
            for ids, batch in self._group_by_ids(events):
                bucket = self.by_ids[ids]
                if len(bucket) == len(batch):
                    del self.by_ids[ids]
                else:
                    del bucket[: len(batch)]
                removals.append((ids, len(batch)))
            self.counter.subtract_id_sequences(removals)

    def _group_by_ids(
        self, events: Iterable[BGPEvent]
    ) -> Iterator[tuple[IdSequence, list[BGPEvent]]]:
        """*events* grouped by interned id sequence, each group in
        arrival order — the one place an event is interned."""
        intern = self.symbols.intern_token
        peers, heads, pfx_ids = self._peers, self._heads, self._pfx_ids
        touched: list[tuple[IdSequence, dict]] = []
        for event in events:
            attributes = event.attributes
            bundles = peers.get(event.peer)
            if bundles is None:
                bundles = peers[event.peer] = {}
            entry = bundles.get(attributes)
            if entry is None:
                head = (
                    intern(("peer", event.peer)),
                    intern(("nh", attributes.nexthop)),
                    *(
                        intern(token)
                        for token in attributes.as_path.collapsed_tokens()
                    ),
                )
                entry = bundles[attributes] = (
                    head, heads.setdefault(head, {})
                )
            prefix = event.prefix
            pfx_id = pfx_ids.get(prefix)
            if pfx_id is None:
                pfx_id = pfx_ids[prefix] = intern(("pfx", prefix))
            scratch = entry[1]
            batch = scratch.get(pfx_id)
            if batch is None:
                if not scratch:
                    touched.append(entry)
                scratch[pfx_id] = [event]
            else:
                batch.append(event)
        for head, scratch in touched:
            for pfx_id, batch in scratch.items():
                yield head + (pfx_id,), batch
            scratch.clear()


def _adjacent(sequence: tuple, first: object, second: object) -> bool:
    """True if *first* immediately precedes *second* in *sequence*.

    Callers pre-filter with ``in`` (C-level), so this only walks the
    rare sequences that contain both elements somewhere.
    """
    index = sequence.index
    last = len(sequence) - 1
    start = 0
    while True:
        try:
            i = index(first, start)
        except ValueError:
            return False
        if i == last:
            return False
        if sequence[i + 1] == second:
            return True
        start = i + 1


def _contains(sequence: tuple, needle: tuple) -> bool:
    """True if *needle* occurs contiguously inside *sequence*
    (generic: token tuples and id tuples compare alike)."""
    n, m = len(sequence), len(needle)
    if m > n:
        return False
    first = needle[0]
    for start in range(n - m + 1):
        if sequence[start] == first and sequence[start : start + m] == needle:
            return True
    return False
