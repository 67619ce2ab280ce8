"""The Stemming decomposition.

Find the strongest subsequence s′, read its last adjacent pair as the
stem (problem location), collect the affected prefix set P (prefixes of
events containing s′) and the component E (every event touching P),
remove E, repeat. The result is a ranked list of :class:`Component`s —
the "few incidents" hidden in the million events.

One table feeds all of it: :class:`StemIndex` files each event under
its unique interned sequence and counts, beside that, the events
holding each adjacent pair. The maximum count is always a pair's, and
:meth:`StemIndex.rank_top` — the one tie rule — finds the longer
subsequences tying it inside runs of winning pairs, so no subsequence
longer than two is ever counted ahead of time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice
from operator import attrgetter, countOf
from typing import Callable, Collection, Iterable, Mapping, Optional

from repro.collector.events import BGPEvent, EventKind, Token
from repro.collector.stream import EventStream
from repro.interning import SymbolTable
from repro.net.prefix import Prefix
from repro.perf import gc_paused
from repro.stemming.counter import (
    PAIR_MASK,
    PAIR_SHIFT,
    IdSequence,
    PairsOf,
    _tiebreak,
    count_pairs,
    distinct_pairs,
)
from repro.stemming.encode import format_stem, stem_values

#: An extraction's working set: the sequences not yet in a component.
Alive = dict[IdSequence, "_Bucket"]


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
    #: How many of :attr:`events` are withdrawals: summed from the
    #: index's per-sequence tallies, never counted over the events.
    withdrawals: int

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
    pathological streams. *max_subsequence_length* bounds the
    subsequences the tie walk ranks (None = unbounded; see the ablation
    for the trade-off).
    """

    min_strength: int = 2
    max_components: int = 16
    max_subsequence_length: Optional[int] = None

    def load(self, events: Iterable[BGPEvent]) -> "StemIndex":
        """Group and count *events* into a new index: a batch caller's
        whole stream, or the buffer of a window stage that has none."""
        index = StemIndex(self.max_subsequence_length)
        index.add(events)
        return index

    def decompose(self, events: Iterable[BGPEvent]) -> StemmingResult:
        """Ranked correlated components of *events*: :meth:`load`
        everything, then :meth:`extract`."""
        return self.extract(self.load(events))

    def extract(self, index: "StemIndex") -> StemmingResult:
        """Ranked components of the events *index* holds; the index is
        left as it was, so its owner can keep sliding it.

        One loop over one working set — C-level copies of the index's
        unique-sequence table (the sequences still alive) and pair
        counts, plus a count -> pairs map built once — so extracting a
        component *subtracts* its sequences instead of recounting the
        residual, and everything runs over *unique sequences*, of which
        real streams have orders of magnitude fewer than events. The
        working counts hold only pairs at or above the floor
        ``max(1, min_strength)``: counts only fall during one
        extraction, so a pair below it can never become the top, and
        most pairs of a window (a subsequence seen once) never enter. Per
        component it asks the index three questions — who holds a tied
        pair, who holds the top, who ends in an affected prefix — which
        a slid index answers from its posting lists and a one-shot
        index by scanning the alive sequences (:class:`StemIndex`);
        either way the work after that follows what the component
        touches. All of it runs interned (DESIGN.md §10): matching and
        removal compare ints, and tokens reappear only inside the
        :class:`Component` results.
        """
        total = remaining = index.event_count
        components: list[Component] = []
        max_length = self.max_subsequence_length
        if max_length is not None and max_length < 2:
            return StemmingResult((), remaining, total)
        token = index.symbols.token
        floor = max(1, self.min_strength)
        with gc_paused():
            alive = index.by_ids.copy()
            pair_counts, by_count = _working_counts(
                index.pair_counts, floor
            )

            def multiplicity(ids: IdSequence) -> int:
                return len(alive[ids])

            while by_count and len(components) < self.max_components:
                strength = max(by_count)
                winning = by_count[strength]
                top_ids = index.rank_top(
                    winning,
                    strength,
                    lambda: index.holding_any(winning, alive),
                    multiplicity,
                )
                subsequence = tuple(token(tid) for tid in top_ids)
                affected_ids = {
                    ids[-1] for ids in index.holding(top_ids, alive)
                }
                # Pop the component's sequences in index order, so
                # simultaneous events come out as a scan would give them.
                removals: list[tuple[IdSequence, int]] = []
                events: list[BGPEvent] = []
                withdrawals = 0
                for ids in index.ending_in(affected_ids, alive):
                    bucket = alive.pop(ids)
                    removals.append((ids, len(bucket)))
                    events.extend(bucket)
                    withdrawals += bucket.withdrawals
                remaining -= len(events)
                components.append(
                    Component(
                        rank=len(components) + 1,
                        subsequence=subsequence,
                        strength=strength,
                        stem=(subsequence[-2], subsequence[-1]),
                        prefixes=frozenset(
                            token(tid)[1]  # the prefix token's value
                            for tid in affected_ids
                        ),
                        events=EventStream(events),
                        withdrawals=withdrawals,
                    )
                )
                if len(components) == self.max_components:
                    break
                if len(removals) > len(alive):
                    # The component explained most of what was left
                    # (typical for the first one of a spike): recounting
                    # the survivors is cheaper than walking its pairs.
                    pair_counts, by_count = _working_counts(
                        count_pairs(
                            (
                                (ids, len(bucket))
                                for ids, bucket in alive.items()
                            ),
                            Counter(),
                            index.pairs_of,
                        ),
                        floor,
                    )
                else:
                    _subtract_pairs(
                        pair_counts,
                        by_count,
                        count_pairs(removals, Counter(), index.pairs_of),
                        floor,
                    )
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


class StemIndex:
    """The loaded first level: a unique-sequence index (id sequence ->
    events, in admission order) and its adjacent-pair counts, kept
    current under :meth:`add` and :meth:`remove`.

    An event's prefix is its last token, so events sharing a sequence
    share a prefix, and per-sequence grouping loses nothing. The
    sequence *head* (peer, nexthop, collapsed AS path) is a pure
    function of (peer, attributes), so its rendered-and-interned id
    tuple is memoized on that pair: grouping costs a few small-key dict
    probes and an append per event, never a re-render. Bundles that
    render to one head (MED or communities differ, say) share its memo
    entry, so their events land in one bucket in arrival order.

    Batch Stemming loads one and drops it. The window stage keeps one
    across closes — each event grouped and counted once, at admission,
    however many windows it sits in — and, since the table and memos
    only grow (:attr:`interned`), rebuilds it when they have doubled.
    Beside the table the index keeps an admission log: for each held
    event, in arrival order, a reference to its sequence's key in
    ``by_ids`` (the very tuple, so the log costs one pointer per event).
    Evictions pop the oldest events, so :meth:`remove` takes a count and
    reads what to drop off the front of the log instead of grouping the
    events again.

    A kept index also keeps :class:`_Postings` over its unique
    sequences, built (one pass over ``by_ids``) the first time an index
    that already holds events is slid and maintained from then on: an
    entry appears when a sequence first does and goes when its last
    event leaves. :meth:`Stemmer.extract` asks every index the same
    questions (:meth:`holding_any`, :meth:`holding`, :meth:`ending_in`,
    :attr:`pairs_of`); with postings they are lookups, without — a
    batch load, extracted once — the scans that load would not repay
    postings for.
    """

    __slots__ = (
        "max_length", "symbols", "pair_counts", "by_ids", "_log",
        "_peers", "_heads", "_pfx_ids", "_postings",
    )

    def __init__(self, max_length: Optional[int] = None) -> None:
        """*max_length* bounds the subsequences the tie walk ranks
        (None = unbounded)."""
        self.max_length = max_length
        self.symbols = SymbolTable()
        #: Packed adjacent pair -> held events containing it: the live
        #: table, so an extraction copies it before subtracting.
        self.pair_counts: Counter[int] = Counter()
        self.by_ids: dict[IdSequence, _Bucket] = {}
        #: The admission log: each held event's ``by_ids`` key, oldest
        #: first.
        self._log: list[IdSequence] = []
        #: peer -> attributes -> (head, the head's scratch).
        self._peers: dict[int, dict] = {}
        #: head -> scratch (pfx id -> events), shared by every bundle
        #: rendering to that head; filled and emptied inside one
        #: :meth:`_admit`.
        self._heads: dict[IdSequence, dict[int, _Bucket]] = {}
        self._pfx_ids: dict[Prefix, int] = {}
        self._postings: Optional[_Postings] = None

    @property
    def event_count(self) -> int:
        """Held events: one admission-log entry each."""
        return len(self._log)

    @property
    def interned(self) -> int:
        """Tokens plus memoized bundles: :meth:`remove` frees neither."""
        return self.symbols.token_count + sum(map(len, self._peers.values()))

    def add(self, events: Iterable[BGPEvent]) -> None:
        """Index and count *events*, which arrive after all held ones."""
        with gc_paused():
            count_pairs(self._admit(events), self.pair_counts, self.pairs_of)

    def remove(self, count: int) -> None:
        """Drop the *count* oldest held events, as an eviction pops:
        the front of the admission log, counted per sequence. Asking
        for more than are held is refused before anything moves."""
        log = self._log
        if count > len(log):
            raise ValueError(
                f"cannot remove {count} of {len(log)} held events"
            )
        removals = Counter(islice(log, count))
        del log[:count]
        by_ids = self.by_ids
        gone: list[IdSequence] = []
        with gc_paused():
            postings = self._slid_postings()
            for ids, removed in removals.items():
                bucket = by_ids[ids]
                if len(bucket) == removed:
                    del by_ids[ids]
                    gone.append(ids)
                else:
                    bucket.withdrawals -= countOf(
                        map(_kind_of, islice(bucket, removed)), _WITHDRAW
                    )
                    del bucket[:removed]
            if len(removals) > len(by_ids):
                # The removals outnumber the survivors: recounting those
                # is cheaper than walking the majority's pairs.
                self.pair_counts = count_pairs(
                    ((ids, len(bucket)) for ids, bucket in by_ids.items()),
                    Counter(),
                    self.pairs_of,
                )
            else:
                # One C-counted delta for the whole removal and one
                # short sweep over its distinct pairs.
                pair_counts = self.pair_counts
                delta = count_pairs(removals.items(), Counter(), self.pairs_of)
                pair_counts.subtract(delta)
                for pair in delta:
                    if pair_counts[pair] <= 0:
                        pair_counts.pop(pair)  # C-level, unlike Counter's del
            if postings is not None:
                for ids in gone:
                    postings.unpost(ids)

    # -- The tie walk ----------------------------------------------------

    def rank_top(
        self,
        winning: Collection[int],
        best_count: int,
        holders: Callable[[], Iterable[IdSequence]],
        count_of: Callable[[IdSequence], int],
    ) -> IdSequence:
        """The strongest subsequence, given the packed pairs *winning*
        at the maximum count *best_count*.

        Ranking prefers longer on count ties, and a longer subsequence
        reaches the maximum only if every one of its adjacent pairs
        does, so it holds two consecutive winning pairs (a, b), (b, c):
        its *middle* id b ends one winning pair and starts another (a
        self-pair (a, a) is both). With no middle id no longer chain
        can exist — a lone winning pair of two distinct tokens, the
        common case, wins outright — and the winning pairs, each
        counted *best_count* already, are the finalists. Otherwise the
        longer finalists hide inside runs of consecutive winning pairs:
        *holders()* names the counted sequences to walk — at least
        every one containing a winning pair — and *count_of* their
        multiplicities; the windows of length ≥ 3 are counted exactly
        (:meth:`_candidate_windows`) and ranked (count, length, decoded
        rendering), with the winning pairs as the finalists again if
        none reaches *best_count*.
        """
        middles = {pair >> PAIR_SHIFT for pair in winning}.intersection(
            pair & PAIR_MASK for pair in winning
        )
        finalists: list[IdSequence] = []
        if middles:
            candidates = self._candidate_windows(
                winning, middles, holders(), count_of
            )
            finalists = [
                window
                for window, count in candidates.items()
                if count == best_count
            ]
        if finalists:
            best_length = max(map(len, finalists))
            finalists = [w for w in finalists if len(w) == best_length]
        else:
            finalists = [
                (pair >> PAIR_SHIFT, pair & PAIR_MASK) for pair in winning
            ]
            if len(finalists) == 1:
                return finalists[0]
        return min(finalists, key=self._tiebreak_ids)

    def _candidate_windows(
        self,
        winning: Collection[int],
        middles: set[int],
        holders: Iterable[IdSequence],
        count_of: Callable[[IdSequence], int],
    ) -> Counter[IdSequence]:
        """Exact counts for every window of length ≥ 3 made solely of
        winning pairs.

        Any subsequence tying the maximum count lies inside a maximal
        run of consecutive winning pairs in every sequence containing
        it, so enumerating run windows (deduplicated per sequence, so an
        event counts once) over *holders* and summing their
        multiplicities yields the candidates' true counts. Such a window
        holds one of the *middles* (see :meth:`rank_top`), so a holder
        holding none is skipped by one C-level ``isdisjoint`` — most
        holders of a tie hold a single tied pair, and no middle. Windows
        that fall short of the maximum are filtered by the caller.
        """
        candidates: Counter[IdSequence] = Counter()
        for ids in holders:
            n = len(ids)
            if n < 3 or middles.isdisjoint(ids):
                continue
            windows: Optional[set[IdSequence]] = None
            run_start = -1
            for i in range(n - 1):
                if ((ids[i] << PAIR_SHIFT) | ids[i + 1]) in winning:
                    if run_start < 0:
                        run_start = i
                    continue
                if run_start >= 0:
                    windows = self._run_windows(ids, run_start, i + 1, windows)
                    run_start = -1
            if run_start >= 0:
                windows = self._run_windows(ids, run_start, n, windows)
            if windows:
                multiplicity = count_of(ids)
                for window in windows:
                    candidates[window] += multiplicity
        return candidates

    def _run_windows(
        self,
        ids: IdSequence,
        start: int,
        end: int,
        acc: Optional[set[IdSequence]],
    ) -> Optional[set[IdSequence]]:
        """Collect the length ≥ 3 windows of ``ids[start:end]``."""
        max_length = self.max_length
        for left in range(start, end - 2):
            limit = end if max_length is None else min(end, left + max_length)
            for right in range(left + 3, limit + 1):
                if acc is None:
                    acc = set()
                acc.add(ids[left:right])
        return acc

    def _tiebreak_ids(self, ids: IdSequence) -> tuple[str, ...]:
        """Decoded rendering, so ranking matches the object-level
        counter bit for bit (the finalist pool is always small)."""
        token = self.symbols.token
        return _tiebreak(tuple(token(tid) for tid in ids))

    # -- What an extraction asks (lookups if slid, scans if not) --------

    def holding_any(
        self, pairs: Collection[int], alive: Alive
    ) -> Iterable[IdSequence]:
        """The *alive* sequences to search for runs of *pairs*: at
        least every one containing any of them."""
        postings = self._postings
        if postings is None:
            return alive
        return alive.keys() & set().union(
            *map(postings.by_pair.__getitem__, pairs)
        )

    def holding(
        self, subsequence: IdSequence, alive: Alive
    ) -> Iterable[IdSequence]:
        """The *alive* sequences containing *subsequence* (length ≥ 2)."""
        first, second = subsequence[:2]
        postings = self._postings
        if postings is None:
            # C-level tuple membership rejects most sequences before
            # any Python adjacency walk.
            if len(subsequence) == 2:
                return [
                    ids
                    for ids in alive
                    if first in ids
                    and second in ids
                    and _adjacent(ids, first, second)
                ]
            return [
                ids
                for ids in alive
                if first in ids and _contains(ids, subsequence)
            ]
        holders = alive.keys() & postings.by_pair[
            (first << PAIR_SHIFT) | second
        ]
        if len(subsequence) == 2:
            return holders
        return {ids for ids in holders if _contains(ids, subsequence)}

    def ending_in(
        self, prefix_ids: Collection[int], alive: Alive
    ) -> list[IdSequence]:
        """The *alive* sequences whose prefix is one of *prefix_ids*,
        in index (``by_ids``) order."""
        postings = self._postings
        if postings is None:
            return [ids for ids in alive if ids[-1] in prefix_ids]
        found = alive.keys() & set().union(
            *map(postings.by_prefix.__getitem__, prefix_ids)
        )
        return sorted(found, key=postings.order.__getitem__)

    @property
    def pairs_of(self) -> PairsOf:
        """Id sequence -> its distinct packed pairs (kept, or computed)."""
        postings = self._postings
        if postings is None:
            return distinct_pairs
        return postings.pairs.__getitem__

    def _slid_postings(self) -> Optional["_Postings"]:
        """The postings, built now if this index holds events and has
        none: it is being slid, so it is a kept one."""
        if self._postings is None and self.by_ids:
            self._postings = _Postings(self.by_ids)
        return self._postings

    def _admit(
        self, events: Iterable[BGPEvent]
    ) -> list[tuple[IdSequence, int]]:
        """File *events* into ``by_ids`` and the admission log — the one
        place an event is grouped and interned. Returns (key, events
        added) per sequence touched.

        Events are grouped per head, then per prefix, each group in
        arrival order; a group joins its sequence's bucket, or becomes
        it. Each group learns the key its bucket is filed under, so the
        log can name every event by that very tuple.
        """
        intern = self.symbols.intern_token
        peers, heads, pfx_ids = self._peers, self._heads, self._pfx_ids
        withdraw = _WITHDRAW
        arrivals: list[_Bucket] = []
        arrived = arrivals.append
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
                batch = scratch[pfx_id] = _Bucket((event,))
                batch.withdrawals = 1 if event.kind is withdraw else 0
            else:
                batch.append(event)
                if event.kind is withdraw:
                    batch.withdrawals += 1
            arrived(batch)
        by_ids = self.by_ids
        postings = self._slid_postings()
        counts: list[tuple[IdSequence, int]] = []
        for head, scratch in touched:
            for pfx_id, batch in scratch.items():
                ids = head + (pfx_id,)
                bucket = by_ids.get(ids)
                if bucket is None:
                    by_ids[ids] = batch
                    if postings is not None:
                        postings.post(ids)
                else:
                    ids = bucket.key
                    bucket.withdrawals += batch.withdrawals
                    bucket.extend(batch)
                batch.key = ids
                counts.append((ids, len(batch)))
            scratch.clear()
        self._log.extend(map(_key_of, arrivals))
        return counts


class _Bucket(list[BGPEvent]):
    """A ``by_ids`` value — the held events of one sequence, oldest
    first — that knows the key it is filed under and how many of its
    events are withdrawals (kept at admission and eviction, so an
    extraction sums buckets instead of counting events)."""

    __slots__ = ("key", "withdrawals")

    key: IdSequence
    withdrawals: int


_key_of = attrgetter("key")
_kind_of = attrgetter("kind")
_WITHDRAW = EventKind.WITHDRAW


class _Postings:
    """Posting lists over a kept :class:`StemIndex`'s unique sequences:
    what lets a component's extraction touch only the sequences it
    involves.

    ``by_pair``: packed pair -> the sequences containing it;
    ``by_prefix``: prefix id -> the sequences ending in it; ``pairs``:
    sequence -> its distinct packed pairs, computed once; ``order``:
    sequence -> a serial that grows with its position in ``by_ids``, so
    a set of sequences can be put back in index order. No posting is
    ever left empty.
    """

    __slots__ = ("by_pair", "by_prefix", "pairs", "order", "_serial")

    def __init__(self, sequences: Iterable[IdSequence]) -> None:
        self.by_pair: dict[int, set[IdSequence]] = {}
        self.by_prefix: dict[int, set[IdSequence]] = {}
        self.pairs: dict[IdSequence, set[int]] = {}
        self.order: dict[IdSequence, int] = {}
        self._serial = 0
        for ids in sequences:
            self.post(ids)

    def post(self, ids: IdSequence) -> None:
        """*ids* has just been appended to ``by_ids``."""
        self.order[ids] = self._serial
        self._serial += 1
        pairs = self.pairs[ids] = distinct_pairs(ids)
        by_pair = self.by_pair
        for pair in pairs:
            posting = by_pair.get(pair)
            if posting is None:
                by_pair[pair] = {ids}
            else:
                posting.add(ids)
        posting = self.by_prefix.get(ids[-1])
        if posting is None:
            self.by_prefix[ids[-1]] = {ids}
        else:
            posting.add(ids)

    def unpost(self, ids: IdSequence) -> None:
        """*ids* has just left ``by_ids``."""
        del self.order[ids]
        by_pair = self.by_pair
        for pair in self.pairs.pop(ids):
            posting = by_pair[pair]
            if len(posting) == 1:
                del by_pair[pair]
            else:
                posting.remove(ids)
        posting = self.by_prefix[ids[-1]]
        if len(posting) == 1:
            del self.by_prefix[ids[-1]]
        else:
            posting.remove(ids)


def _working_counts(
    counts: Mapping[int, int], floor: int
) -> tuple[dict[int, int], dict[int, set[int]]]:
    """An extraction's working counts: the pairs of *counts* at or
    above *floor*, as pair -> count and count -> the pairs at it."""
    # A plain dict: Counter's ``del`` is a Python-level method.
    working: dict[int, int] = {}
    by_count: dict[int, set[int]] = {}
    for pair, count in counts.items():
        if count < floor:
            continue
        working[pair] = count
        bucket = by_count.get(count)
        if bucket is None:
            by_count[count] = {pair}
        else:
            bucket.add(pair)
    return working, by_count


def _subtract_pairs(
    pair_counts: dict[int, int],
    by_count: dict[int, set[int]],
    delta: Counter[int],
    floor: int,
) -> None:
    """Take a component's summed pair *delta* off the working counts:
    each tracked pair moves bucket once, and leaves them once it falls
    below *floor*."""
    for pair in delta.keys() & pair_counts.keys():
        before = pair_counts[pair]
        removed = delta[pair]
        after = before - removed
        if after < 0:
            raise ValueError(
                f"cannot subtract {removed} of a pair counted {before} times"
            )
        bucket = by_count[before]
        if len(bucket) == 1:
            del by_count[before]
        else:
            bucket.remove(pair)
        if after < floor:
            del pair_counts[pair]
            continue
        pair_counts[pair] = after
        bucket = by_count.get(after)
        if bucket is None:
            by_count[after] = {pair}
        else:
            bucket.add(pair)


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
