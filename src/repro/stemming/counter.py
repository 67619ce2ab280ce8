"""Contiguous-subsequence counting.

The statistical heart of Stemming: for every contiguous subsequence *s*
(length ≥ 2 — a problem location is a pair, so shorter carries no signal)
of every event sequence *c*, count how many events contain *s*.

Two implementations share an interface:

* :class:`SubsequenceCounter` — the production counter. BGP event
  streams are massively repetitive (a million-event spike touches a few
  thousand distinct (peer, nexthop, path, prefix) combinations), so it
  keeps a *unique-sequence* table and, beside it, the count of every
  *adjacent pair* — O(L) per sequence — and nothing else.
* :class:`NaiveSubsequenceCounter` — the textbook O(N·L²) version, kept
  as the baseline for the ablation benchmark
  (``benchmarks/test_ablations.py``) and as the object-level reference
  the interned counter's equivalence suite pins against.

The pair table is enough because subsequence count is monotone
non-increasing under extension: the maximum count over length ≥ 2 is
always attained by an adjacent pair, and any longer subsequence tying
the maximum consists entirely of maximum-count pairs. Ranking prefers
longer subsequences among equal counts, which localizes the stem at the
*end* of the longest common context (the paper's Figure 4 walk-through),
so the finalists hide inside runs of consecutive winning pairs;
:meth:`SubsequenceCounter.rank_top` — the one tie rule, behind
:meth:`~SubsequenceCounter.top` and the stemmer's extraction alike —
enumerates exactly those runs and counts their windows, which settles
(count, length, tiebreak) ranking without ever expanding the sequences
into their millions of subsequences. The full expansion is not state:
:meth:`SubsequenceCounter.counts` computes it per call from the
sequence table (the defining sum), as the oracle the equivalence suites
and the ablation compare against.

Internally the production counter is *interned* (DESIGN.md §10): event
tokens map to dense int ids through a
:class:`~repro.interning.SymbolTable`, sequences become int tuples and
adjacent pairs pack into single ``(a << 32) | b`` ints. Token tuples
exist only at the API boundary: :meth:`SubsequenceCounter.top` and
:meth:`SubsequenceCounter.counts` decode on the way out, and the
decoded results are exactly what the object-level counter produces.
Bulk callers (the stemmer) skip the boundary entirely via the id-level
API (:meth:`~SubsequenceCounter.add_id_counts`,
:meth:`~SubsequenceCounter.subtract_id_sequences`,
:attr:`~SubsequenceCounter.pair_counts`,
:meth:`~SubsequenceCounter.rank_top`).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Collection, Iterable, Optional

from repro.collector.events import BGPEvent, Token
from repro.interning import SymbolTable

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
        symbols: Optional[SymbolTable] = None,
    ) -> None:
        """*max_length* bounds counted subsequence length (None = full).

        *symbols* shares a caller's token table; by default the counter
        owns a private one.
        """
        self.max_length = max_length
        self.symbols = symbols if symbols is not None else SymbolTable()
        #: id sequence -> events sharing it.
        self._sequence_counts: Counter[IdSequence] = Counter()
        #: packed adjacent pair -> number of events containing it,
        #: maintained on every add/subtract (O(L) per sequence).
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
        recounting the residual stream.
        """
        self.subtract_sequences(((sequence, multiplicity),))

    def subtract_sequences(
        self, removals: Iterable[tuple[Sequence_, int]]
    ) -> None:
        """Batched :meth:`subtract_sequence` over many sequences.

        One component extraction removes every sequence matching the
        component's prefixes; those sequences share most of their
        pairs, so the deltas are summed first and each affected pair is
        touched a single time instead of once per removed sequence.
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

        Decodes :meth:`id_counts` — computed per call, so
        mutate-then-compare sees current counts.
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
        self.add_id_counts(((ids, multiplicity),))

    def add_id_counts(
        self,
        items: Iterable[tuple[IdSequence, int]],
        pairs_of: PairsOf = distinct_pairs,
    ) -> None:
        """Count every (id sequence, multiplicity) of *items*: the one
        add path, a whole unique-sequence table at a time.

        The adjacent-pair table takes one C-level ``Counter.update``
        over a packed-pair stream instead of a Python dict transaction
        per sequence. A caller that keeps each sequence's distinct
        pairs hands them over as *pairs_of*.
        """
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
        if len(removals) > len(self._sequence_counts):
            # The removals outnumber the survivors: recounting those is
            # cheaper than walking the majority's pairs.
            self._pair_counts = count_pairs(
                self._sequence_counts.items(), Counter()
            )
            return
        # One C-counted delta for the whole removal and one short
        # sweep over its distinct pairs.
        pair_counts = self._pair_counts
        pair_delta = count_pairs(removals, Counter(), pairs_of)
        pair_counts.subtract(pair_delta)
        for pair in pair_delta:
            if pair_counts[pair] <= 0:
                pair_counts.pop(pair)  # C-level, unlike Counter's del

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
        """:meth:`counts` keyed by interned id sequences: the defining
        sum over the unique-sequence table, computed per call — the
        oracle, which nothing in production reads."""
        counts: Counter[IdSequence] = Counter()
        for ids, multiplicity in self._sequence_counts.items():
            for subsequence in set(_subsequences(ids, self.max_length)):
                counts[subsequence] += multiplicity
        return counts

    def top_ids(self) -> Optional[tuple[IdSequence, int]]:
        """:meth:`top` without the decode: (id sequence, count).

        Answered from the adjacent-pair table alone: by count
        monotonicity the maximum count is attained by a pair, so the
        pairs at the table's maximum are the winners and
        :meth:`rank_top` — the tie rule :meth:`Stemmer.extract
        <repro.stemming.stemmer.Stemmer.extract>` applies per
        component — picks among them and the longer subsequences they
        chain into. Computed per call: this is the public oracle, not
        the extraction's loop.
        """
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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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
        # The naive counter keeps no pair table; scan directly.
        return _scan_top(self.counts())


def _scan_top(
    counts: Counter[Sequence_],
) -> Optional[tuple[Sequence_, int]]:
    """Full-scan top(): the reference the pair-table top() must match."""
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
