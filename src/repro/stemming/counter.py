"""Contiguous-subsequence counting.

The statistical heart of Stemming: for every contiguous subsequence *s*
(length ≥ 2 — a problem location is a pair, so shorter carries no signal)
of every event sequence *c*, count how many events contain *s*.

Two implementations share an interface:

* :class:`SubsequenceCounter` — the production counter. It exploits the
  fact that BGP event streams are massively repetitive (a million-event
  spike touches a few thousand distinct (peer, nexthop, path, prefix)
  combinations), counting unique sequences first and expanding each once.
  Complexity O(U·L²) for U unique sequences of length L, independent of
  the raw event count beyond one dict lookup per event. The expansion is
  embarrassingly parallel across unique sequences, so large tables shard
  across a :mod:`repro.perf` worker pool and merge in the parent.
* :class:`NaiveSubsequenceCounter` — the textbook O(N·L²) version, kept
  as the baseline for the ablation benchmark
  (``benchmarks/test_ablations.py``) and as the object-level reference
  the interned counter's equivalence suite pins against.

Internally the production counter is *interned* (DESIGN.md §10): event
tokens map to dense int ids through a
:class:`~repro.interning.SymbolTable`, sequences become int tuples,
adjacent pairs pack into single ``(a << 32) | b`` ints, and every hot
store — the pair table, the count buckets, the lazily-built full
expansion — is keyed on those ids. Token tuples exist only at the API
boundary: :meth:`SubsequenceCounter.top` and
:meth:`SubsequenceCounter.counts` decode on the way out, and the
decoded results are exactly what the object-level counter produces.
Bulk callers (the stemmer) skip the boundary entirely via the id-level
API (:meth:`~SubsequenceCounter.add_id_counts`,
:meth:`~SubsequenceCounter.subtract_id_sequences`,
:attr:`~SubsequenceCounter.pair_counts`,
:meth:`~SubsequenceCounter.rank_top`).

A subtlety the stemmer relies on: subsequence count is monotone
non-increasing under extension, so the maximum count over length ≥ 2 is
always attained by an adjacent pair; ranking prefers longer subsequences
among equal counts, which localizes the stem at the *end* of the longest
common context (the paper's Figure 4 walk-through).

That monotonicity is also the counter's main performance lever. The
production counter keeps an *adjacent-pair* count table — O(L) per
sequence instead of the O(L²) full expansion — whose maximum is the
maximum count. Any subsequence tying the
maximum must consist entirely of maximum-count pairs, so the finalists
longer than two tokens hide inside runs of consecutive winning pairs;
:meth:`SubsequenceCounter.rank_top` — the one tie rule, behind
:meth:`~SubsequenceCounter.top` and the stemmer's extraction alike —
enumerates exactly those runs and counts
their windows, which settles (count, length, tiebreak) ranking without
materializing the millions-of-entries expansion. The full expansion is
still available through :meth:`SubsequenceCounter.counts` — built
lazily, sharded across a :mod:`repro.perf` worker pool when large, and
maintained incrementally (count-bucketed index, per-sequence memo)
under :meth:`SubsequenceCounter.subtract_sequences` once built. Worker
shards receive already-interned id sequences, so the shard join is a
plain C-level ``Counter.update`` — ids are assigned by the parent
before the fan-out, leaving nothing to remap.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Callable, Collection, Iterable, Optional

from repro.collector.events import BGPEvent, Token
from repro.interning import SymbolTable
from repro.perf import effective_workers, gc_paused, map_shards, partition

Sequence_ = tuple[Token, ...]
Pair = tuple[Token, Token]
#: An interned sequence: dense token ids in sequence order.
IdSequence = tuple[int, ...]

#: Id sequence -> its distinct packed adjacent pairs.
PairsOf = Callable[[IdSequence], Collection[int]]

#: The first token id of a packed adjacent-pair key occupies the bits
#: above the second. 32 bits per side matches the edge-id packing of
#: :mod:`repro.interning` — vastly above any real token table.
PAIR_SHIFT = 32
PAIR_MASK = (1 << PAIR_SHIFT) - 1

#: Bulk pair counting streams each sequence's distinct pairs once per
#: counted event through one C-level ``Counter.update``; past this
#: multiplicity the O(distinct) per-pair arithmetic add wins over the
#: O(events) stream repeat.
_STREAM_REPEAT_LIMIT = 8


def distinct_pairs(ids: IdSequence) -> set[int]:
    """The packed adjacent pairs of *ids*, each once."""
    return {(a << PAIR_SHIFT) | b for a, b in zip(ids, ids[1:])}


def count_pairs(
    items: Iterable[tuple[IdSequence, int]],
    into: Counter[int],
    pairs_of: PairsOf = distinct_pairs,
) -> Counter[int]:
    """Add to *into*, per packed pair, the events of *items* — (id
    sequence, multiplicity) — that contain it; returns *into*.

    One C-level ``Counter.update`` over a packed-pair stream that
    repeats each sequence's distinct pairs once per counted event,
    which is exactly the defining sum. *pairs_of* lets a caller that
    keeps each sequence's distinct pairs hand them over.
    """
    stream: list[int] = []
    extend = stream.extend
    for ids, multiplicity in items:
        pairs = pairs_of(ids)
        if multiplicity <= _STREAM_REPEAT_LIMIT:
            for _ in range(multiplicity):
                extend(pairs)
        else:
            # Heavily duplicated sequences (big flaps) add per pair in
            # O(distinct), not O(events).
            for pair in pairs:
                into[pair] += multiplicity
    into.update(stream)
    return into


class SubsequenceCounter:
    """Counts contiguous subsequences, deduplicating whole sequences."""

    def __init__(
        self,
        max_length: Optional[int] = None,
        workers: Optional[int] = None,
        symbols: Optional[SymbolTable] = None,
    ) -> None:
        """*max_length* bounds counted subsequence length (None = full).

        *workers* requests parallel expansion (None = the
        ``REPRO_WORKERS`` environment variable, see :mod:`repro.perf`);
        small tables fall back to the identical serial code path.

        *symbols* shares a caller's token table (the stemmer interns
        event streams once and feeds both its own index and the counter
        from the same ids); by default the counter owns a private one.
        """
        self.max_length = max_length
        self.workers = workers
        self.symbols = symbols if symbols is not None else SymbolTable()
        self._sequence_counts: Counter[IdSequence] = Counter()
        self._expanded: Optional[Counter[IdSequence]] = None
        #: count -> set of subsequences at that count; lazily built by
        #: top() and maintained incrementally thereafter.
        self._buckets: Optional[dict[int, set[IdSequence]]] = None
        #: sequence -> its distinct subsequences, memoized for sequences
        #: mutated after expansion (flapping streams re-add the same
        #: sequence thousands of times).
        self._expansions: dict[IdSequence, tuple[IdSequence, ...]] = {}
        #: packed adjacent pair -> number of events containing it.
        #: Maintained on every add/subtract (O(L) per sequence); it
        #: answers top() without the full expansion.
        self._pair_counts: Counter[int] = Counter()
        #: Events counted: the running sum of ``_sequence_counts``.
        self._events = 0

    # ------------------------------------------------------------------
    # Token-level API (the decode boundary)
    # ------------------------------------------------------------------

    def add(self, event: BGPEvent) -> None:
        self.add_sequence(event.sequence)

    def add_sequence(self, sequence: Sequence_, multiplicity: int = 1) -> None:
        """Count *multiplicity* events sharing one sequence.

        Grouped callers (the stemmer's unique-sequence index) pass the
        whole group size at once instead of looping O(events) times.
        """
        self.add_ids(self.intern_sequence(sequence), multiplicity)

    def add_all(self, events: Iterable[BGPEvent]) -> None:
        for event in events:
            self.add(event)

    def intern_sequence(self, sequence: Sequence_) -> IdSequence:
        """Encode a token sequence into this counter's id space."""
        return tuple(map(self.symbols.intern_token, sequence))

    def subtract_sequence(self, sequence: Sequence_, multiplicity: int) -> None:
        """Remove *multiplicity* occurrences of a whole sequence.

        This is what makes recursive decomposition cheap: extracting a
        component subtracts its events from the counts instead of
        recounting the residual stream. The expanded subsequence counts
        are updated in place when they exist.
        """
        self.subtract_sequences(((sequence, multiplicity),))

    def subtract_sequences(
        self, removals: Iterable[tuple[Sequence_, int]]
    ) -> None:
        """Batched :meth:`subtract_sequence` over many sequences.

        One component extraction removes every sequence matching the
        component's prefixes; those sequences share most of their
        subsequence structure, so summing the deltas first and walking
        the expansion once touches each affected subsequence a single
        time instead of once per removed sequence.
        """
        token_id = self.symbols.token_id
        id_removals: list[tuple[IdSequence, int]] = []
        for sequence, multiplicity in removals:
            ids = tuple(token_id(token) for token in sequence)
            if None in ids:
                # A never-interned token means a never-added sequence.
                raise ValueError(
                    f"cannot subtract {multiplicity} of a sequence"
                    " counted 0 times"
                )
            id_removals.append((ids, multiplicity))
        self.subtract_id_sequences(id_removals)

    def counts(self) -> Counter[Sequence_]:
        """Subsequence → number of events containing it (length ≥ 2).

        A subsequence occurring twice inside one event (possible when a
        path revisits a token pattern, e.g. "1 2 1 2") still counts that
        event once: strength means "how many events share this
        structure", not "how many occurrences exist".

        Decoded snapshot: the live store is id-keyed
        (:meth:`id_counts`); this renders token tuples for the caller
        and is rebuilt per call, so mutate-then-compare sees current
        counts.
        """
        token = self.symbols.token
        return Counter(
            {
                tuple(token(tid) for tid in ids): count
                for ids, count in self.id_counts().items()
            }
        )

    def top(self) -> Optional[tuple[Sequence_, int]]:
        """The strongest subsequence: highest count, longest on ties.

        Ties on (count, length) break toward the lexicographically
        smallest rendering for determinism. Decodes
        :meth:`top_ids`' winner at the boundary.
        """
        top = self.top_ids()
        if top is None:
            return None
        ids, count = top
        token = self.symbols.token
        return tuple(token(tid) for tid in ids), count

    # ------------------------------------------------------------------
    # Id-level API (the stemmer's hot path)
    # ------------------------------------------------------------------

    def add_ids(self, ids: IdSequence, multiplicity: int = 1) -> None:
        """:meth:`add_sequence` for an already-interned sequence."""
        if multiplicity < 1:
            raise ValueError(
                f"multiplicity must be >= 1, got {multiplicity}"
            )
        self._sequence_counts[ids] += multiplicity
        self._events += multiplicity
        self._shift_pairs(ids, multiplicity)
        if self._expanded is not None:
            # Keep the expansion current instead of invalidating it: a
            # rebuild is O(U·L²), this is O(L²).
            self._apply_delta(self._expansion(ids), multiplicity)

    def add_id_counts(
        self,
        items: Iterable[tuple[IdSequence, int]],
        pairs_of: PairsOf = distinct_pairs,
    ) -> None:
        """Bulk :meth:`add_ids` over a whole unique-sequence table.

        Without an expansion to maintain (the stemmer's loads and
        slides) the adjacent-pair table takes one C-level
        ``Counter.update`` over a packed-pair stream instead of a
        Python dict transaction per sequence. A caller that keeps each
        sequence's distinct pairs hands them over as *pairs_of*.
        """
        if self._expanded is not None:
            for ids, multiplicity in items:
                self.add_ids(ids, multiplicity)
            return
        items = list(items)
        sequence_counts = self._sequence_counts
        for ids, multiplicity in items:
            if multiplicity < 1:
                raise ValueError(
                    f"multiplicity must be >= 1, got {multiplicity}"
                )
            sequence_counts[ids] += multiplicity
            self._events += multiplicity
        count_pairs(items, self._pair_counts, pairs_of)

    def subtract_id_sequences(
        self,
        removals: Iterable[tuple[IdSequence, int]],
        pairs_of: PairsOf = distinct_pairs,
    ) -> None:
        """:meth:`subtract_sequences` over already-interned sequences
        (*pairs_of* as in :meth:`add_id_counts`)."""
        removals = list(removals)
        for ids, multiplicity in removals:
            current = self._sequence_counts.get(ids, 0)
            if multiplicity > current:
                raise ValueError(
                    f"cannot subtract {multiplicity} of a sequence counted"
                    f" {current} times"
                )
            if multiplicity == current:
                del self._sequence_counts[ids]
            else:
                self._sequence_counts[ids] = current - multiplicity
            self._events -= multiplicity
        # When the removals outnumber the survivors (typical for the
        # first extracted component, which often explains most of a
        # spike), rebuilding from the survivors is cheaper than walking
        # the majority's pairs and subsequences.
        majority = len(removals) > len(self._sequence_counts)
        if majority:
            self._pair_counts = count_pairs(
                self._sequence_counts.items(), Counter()
            )
        else:
            # One C-counted delta for the whole removal and one short
            # sweep over its distinct pairs.
            pair_counts = self._pair_counts
            pair_delta = count_pairs(removals, Counter(), pairs_of)
            pair_counts.subtract(pair_delta)
            for pair in pair_delta:
                if pair_counts[pair] <= 0:
                    pair_counts.pop(pair)  # C-level, unlike Counter's del
        if self._expanded is None:
            return
        if majority:
            # Drop the expansion and let the next counts() rebuild it.
            self._expanded = None
            self._buckets = None
            self._expansions.clear()
            return
        if len(removals) == 1:
            ids, multiplicity = removals[0]
            self._apply_delta(self._expansion(ids), -multiplicity)
            self._forget_expansion(ids)
            return
        delta: Counter[IdSequence] = Counter()
        for ids, multiplicity in removals:
            for subsequence in self._expansion(ids):
                delta[subsequence] += multiplicity
            self._forget_expansion(ids)
        expanded = self._expanded
        buckets = self._buckets
        if buckets is None:
            # No index to maintain: let Counter.subtract run in C, then
            # sweep only the touched keys for empties.
            expanded.subtract(delta)
            for subsequence in delta:
                if expanded[subsequence] <= 0:
                    del expanded[subsequence]
            return
        for subsequence, removed in delta.items():
            before = expanded[subsequence]
            after = before - removed
            if after <= 0:
                del expanded[subsequence]
            else:
                expanded[subsequence] = after
            self._move_bucket(buckets, subsequence, before, after)

    @property
    def event_count(self) -> int:
        return self._events

    @property
    def unique_sequence_count(self) -> int:
        return len(self._sequence_counts)

    @property
    def pair_counts(self) -> Counter[int]:
        """Packed adjacent pair -> events containing it: the live
        table, so an extraction copies it before subtracting."""
        return self._pair_counts

    def id_counts(self) -> Counter[IdSequence]:
        """The live expansion, keyed by interned id sequences."""
        if self._expanded is None:
            self._expanded = self._expand()
        return self._expanded

    def top_ids(self) -> Optional[tuple[IdSequence, int]]:
        """:meth:`top` without the decode: (id sequence, count).

        With the expansion materialized (someone called
        :meth:`counts`), this reads the full count-bucket index.
        Otherwise it answers from the adjacent-pair table alone: by
        count monotonicity the maximum count is attained by a pair, so
        the pairs at the table's maximum are the winners and
        :meth:`rank_top` — the tie rule :meth:`Stemmer.extract
        <repro.stemming.stemmer.Stemmer.extract>` applies per
        component — picks among them and the longer subsequences they
        chain into. Computed per call: this is the public oracle, not
        the extraction's loop.
        """
        if self._expanded is not None:
            if not self._expanded:
                return None
            buckets = self._ensure_buckets()
            best_count = max(buckets)
            bucket = buckets[best_count]
            best_length = max(map(len, bucket))
            finalists = [s for s in bucket if len(s) == best_length]
            return min(finalists, key=self._tiebreak_ids), best_count
        if self.max_length is not None and self.max_length < 2:
            return None
        pair_counts = self._pair_counts
        if not pair_counts:
            return None
        best_count = max(pair_counts.values())
        winning = {
            pair for pair, count in pair_counts.items() if count == best_count
        }
        sequence_counts = self._sequence_counts
        top = self.rank_top(
            winning,
            best_count,
            lambda: sequence_counts,
            sequence_counts.__getitem__,
        )
        return top, best_count

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
        does. When a single winning pair of two distinct tokens tops the
        table, no longer chain can exist and the pair wins outright
        (one top per extracted component is common). Otherwise the
        finalists hide inside runs of consecutive winning pairs:
        *holders()* names the counted sequences to walk — at least
        every one containing a winning pair — and *count_of* their
        multiplicities; those few windows are counted exactly and
        ranked (count, length, decoded rendering).
        """
        if len(winning) == 1:
            (pair,) = winning
            first, second = pair >> PAIR_SHIFT, pair & PAIR_MASK
            if first != second:
                return (first, second)
        candidates = self._candidate_windows(winning, holders(), count_of)
        finalists_pool = [
            window
            for window, count in candidates.items()
            if count == best_count
        ]
        best_length = max(map(len, finalists_pool))
        finalists = [w for w in finalists_pool if len(w) == best_length]
        return min(finalists, key=self._tiebreak_ids)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _expand(self) -> Counter[IdSequence]:
        """Build the full subsequence expansion, sharded when large.

        Deduplicated sequences are independent, so the unique-sequence
        table partitions cleanly: each worker expands its shard into a
        local Counter and the parent merges with ``Counter.update``
        (which adds counts in C). Serial execution uses the exact same
        shard function on one shard. Shards carry id sequences interned
        by the parent *before* the fan-out, so — unlike the picture
        build's shard join — there are no worker-local symbol tables
        and nothing to remap: subsequences are slices, and a slice of
        parent ids is already in the parent's id space.
        """
        items = list(self._sequence_counts.items())
        workers = effective_workers(self.workers, units=len(items))
        expand = partial(_expand_shard, max_length=self.max_length)
        with gc_paused():
            if workers <= 1:
                return expand(items)
            partials = map_shards(expand, partition(items, workers), workers)
            merged = partials[0]
            for part in partials[1:]:
                merged.update(part)
        return merged

    def _expansion(self, ids: IdSequence) -> tuple[IdSequence, ...]:
        """The distinct subsequences of one sequence, memoized."""
        cached = self._expansions.get(ids)
        if cached is None:
            # repro: allow[DET002] memo order is private to the counter;
            # every consumer (Counter deltas, bucket sets, max/min top())
            # is order-insensitive, and sorting would tax the hot
            # mutate-after-expansion path for nothing.
            cached = tuple(set(_subsequences(ids, self.max_length)))
            self._expansions[ids] = cached
        return cached

    def _forget_expansion(self, ids: IdSequence) -> None:
        """Drop the memo once a sequence has fully left the table."""
        if ids not in self._sequence_counts:
            self._expansions.pop(ids, None)

    def _shift_pairs(self, ids: IdSequence, delta: int) -> None:
        """Shift the sequence's distinct adjacent pairs by *delta* events."""
        pair_counts = self._pair_counts
        get = pair_counts.get
        for pair in distinct_pairs(ids):
            before = get(pair, 0)
            if before > -delta:
                pair_counts[pair] = before + delta
            else:
                del pair_counts[pair]

    def _candidate_windows(
        self,
        winning: Collection[int],
        holders: Iterable[IdSequence],
        count_of: Callable[[IdSequence], int],
    ) -> Counter[IdSequence]:
        """Exact counts for every window made solely of winning pairs.

        Any subsequence tying the maximum count lies inside a maximal
        run of consecutive winning pairs in every sequence containing
        it, so enumerating run windows (deduplicated per sequence, so an
        event counts once) over *holders* and summing their
        multiplicities yields the candidates' true counts (a sequence
        holding no winning pair's first id skips the walk). Windows
        that fall short of the maximum are filtered by the caller;
        winning pairs themselves always appear, so the finalist pool is
        never empty.
        """
        candidates: Counter[IdSequence] = Counter()
        firsts = {pair >> PAIR_SHIFT for pair in winning}
        for ids in holders:
            n = len(ids)
            if n < 2 or firsts.isdisjoint(ids):
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
    ) -> set[IdSequence]:
        """Collect the length ≥ 2 windows of ``ids[start:end]``."""
        if acc is None:
            acc = set()
        max_length = self.max_length
        for left in range(start, end - 1):
            limit = end if max_length is None else min(end, left + max_length)
            for right in range(left + 2, limit + 1):
                acc.add(ids[left:right])
        return acc

    def _ensure_buckets(self) -> dict[int, set[IdSequence]]:
        if self._buckets is None:
            buckets: dict[int, set[IdSequence]] = {}
            for subsequence, count in self.id_counts().items():
                bucket = buckets.get(count)
                if bucket is None:
                    bucket = buckets[count] = set()
                bucket.add(subsequence)
            self._buckets = buckets
        return self._buckets

    def _apply_delta(
        self, subsequences: Iterable[IdSequence], delta: int
    ) -> None:
        """Shift every listed subsequence's count by *delta* (±)."""
        expanded = self._expanded
        buckets = self._buckets
        assert expanded is not None
        for subsequence in subsequences:
            before = expanded.get(subsequence, 0)
            after = before + delta
            if after <= 0:
                if before:
                    del expanded[subsequence]
                after = 0
            else:
                expanded[subsequence] = after
            if buckets is not None:
                self._move_bucket(buckets, subsequence, before, after)

    def _tiebreak_ids(self, ids: IdSequence) -> tuple[str, ...]:
        """Decoded rendering, so ranking matches the object-level
        counter bit for bit (the finalist pool is always small)."""
        token = self.symbols.token
        return _tiebreak(tuple(token(tid) for tid in ids))

    @staticmethod
    def _move_bucket(
        buckets: dict[int, set],
        member,
        before: int,
        after: int,
    ) -> None:
        if before == after:
            return
        if before > 0:
            old = buckets.get(before)
            if old is not None:
                old.discard(member)
                if not old:
                    del buckets[before]
        if after > 0:
            new = buckets.get(after)
            if new is None:
                new = buckets[after] = set()
            new.add(member)


class NaiveSubsequenceCounter(SubsequenceCounter):
    """The O(N·L²) baseline: no sequence deduplication, no interning.

    Functionally identical to :class:`SubsequenceCounter`; exists so the
    ablation can quantify what deduplication buys on realistic streams,
    and as the object-level reference the interned counter's
    equivalence suite compares against.
    """

    def __init__(self, max_length: Optional[int] = None) -> None:
        super().__init__(max_length)
        self._raw: Counter[Sequence_] = Counter()
        self._events = 0

    def add_sequence(self, sequence: Sequence_, multiplicity: int = 1) -> None:
        if multiplicity < 1:
            raise ValueError(
                f"multiplicity must be >= 1, got {multiplicity}"
            )
        for subsequence in set(_subsequences(sequence, self.max_length)):
            self._raw[subsequence] += multiplicity
        self._events += multiplicity

    @property
    def event_count(self) -> int:
        return self._events

    @property
    def unique_sequence_count(self) -> int:
        raise NotImplementedError("naive counter does not deduplicate")

    def subtract_sequence(self, sequence: Sequence_, multiplicity: int) -> None:
        raise NotImplementedError(
            "the naive counter has no per-sequence bookkeeping to subtract"
        )

    def subtract_sequences(
        self, removals: Iterable[tuple[Sequence_, int]]
    ) -> None:
        raise NotImplementedError(
            "the naive counter has no per-sequence bookkeeping to subtract"
        )

    def counts(self) -> Counter[Sequence_]:
        return self._raw

    def top(self) -> Optional[tuple[Sequence_, int]]:
        # The naive counter maintains no bucket index; scan directly.
        return _scan_top(self.counts())


def _expand_shard(
    shard: list[tuple[IdSequence, int]], max_length: Optional[int] = None
) -> Counter[IdSequence]:
    """Expand one shard of (id sequence, multiplicity) pairs to counts.

    Module-level so worker processes can unpickle it.

    The expansion is head-factored: a sequence's windows split into the
    windows ending at its last token (the prefix — unique per sequence)
    and the windows of its head ``sequence[:-1]`` (the (peer, nexthop,
    AS path) context — shared by every prefix that context announces).
    Real streams have orders of magnitude fewer distinct heads than
    sequences, so aggregating head multiplicities first and recursing on
    distinct heads does O(U·L) work where the naive double loop does
    O(U·L²). Sequences with repeated tokens (a path revisiting a token
    pattern) fall back to per-sequence set deduplication, which the
    factored split cannot honor.
    """
    expanded: Counter[IdSequence] = Counter()
    heads: Counter[IdSequence] = Counter()
    for ids, multiplicity in shard:
        n = len(ids)
        if len(set(ids)) != n:
            # Repeated tokens: identical windows can arise at different
            # offsets and must count once per event.
            for subsequence in set(_subsequences(ids, max_length)):
                expanded[subsequence] += multiplicity
            continue
        longest = n if max_length is None else min(n, max_length)
        # Windows ending at the last token, lengths 2..longest.
        for start in range(max(0, n - longest), n - 1):
            expanded[ids[start:]] += multiplicity
        if n > 2:
            heads[ids[:-1]] += multiplicity
    # Distinct heads, processed level by level: each level counts the
    # windows ending at its last token, then hands its own head down.
    while heads:
        parents: Counter[IdSequence] = Counter()
        for head, multiplicity in heads.items():
            n = len(head)
            longest = n if max_length is None else min(n, max_length)
            for start in range(max(0, n - longest), n - 1):
                expanded[head[start:]] += multiplicity
            if n > 2:
                parents[head[:-1]] += multiplicity
        heads = parents
    return expanded


def _scan_top(
    counts: Counter[Sequence_],
) -> Optional[tuple[Sequence_, int]]:
    """Full-scan top(): the reference the bucket index must agree with."""
    if not counts:
        return None
    best_rank = max(
        (count, len(sequence)) for sequence, count in counts.items()
    )
    finalists = [
        sequence
        for sequence, count in counts.items()
        if (count, len(sequence)) == best_rank
    ]
    winner = min(finalists, key=_tiebreak)
    return winner, best_rank[0]


def _subsequences(sequence, max_length: Optional[int]):
    """All contiguous subsequences of length ≥ 2 (bounded by max_length).

    Generic over element type: token tuples and id tuples slice alike.
    """
    n = len(sequence)
    longest = n if max_length is None else min(n, max_length)
    for start in range(n - 1):
        stop_limit = min(n, start + longest)
        for stop in range(start + 2, stop_limit + 1):
            yield sequence[start:stop]


def _tiebreak(sequence: Sequence_) -> tuple[str, ...]:
    return tuple(f"{ns}:{value}" for ns, value in sequence)
