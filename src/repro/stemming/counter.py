"""Contiguous-subsequence counting: the pair-table primitives and the
naive reference.

The statistical heart of Stemming: for every contiguous subsequence *s*
(length ≥ 2 — a problem location is a pair, so shorter carries no signal)
of every event sequence *c*, count how many events contain *s*.

Production keeps one table of sequences and one of pairs, both on
:class:`~repro.stemming.stemmer.StemIndex`. BGP event streams are
massively repetitive (a million-event spike touches a few thousand
distinct (peer, nexthop, path, prefix) combinations), so the index
files events under their *unique* interned sequence and, beside that,
counts every *adjacent pair* — O(L) per sequence — and nothing else.
The pair table is enough because subsequence count is monotone
non-increasing under extension: the maximum count over length ≥ 2 is
always attained by an adjacent pair, and any longer subsequence tying
the maximum consists entirely of maximum-count pairs. The index's tie
walk (:meth:`~repro.stemming.stemmer.StemIndex.rank_top`) settles the
(count, length, tiebreak) ranking from the runs of winning pairs,
without expanding the sequences into their subsequences.

This module holds what that needs and does not own: the packed pair
key (``(a << 32) | b`` over :class:`~repro.interning.SymbolTable` ids,
DESIGN.md §10), :func:`distinct_pairs` and the bulk :func:`count_pairs`.
It also holds :class:`NaiveSubsequenceCounter`, the textbook O(N·L²)
version over tokens: the definition the index is tested against and the
baseline of the ablation benchmark (``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Collection, Iterable, Optional

from repro.collector.events import BGPEvent, Token

Sequence_ = tuple[Token, ...]
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


class NaiveSubsequenceCounter:
    """The O(N·L²) reference: no sequence deduplication, no interning,
    no pair table — every contiguous subsequence of every event, counted
    from scratch.

    The definition :class:`~repro.stemming.stemmer.StemIndex`'s pair
    table and tie walk are checked against, and the baseline the
    ablation times ``Stemmer.load`` against.
    """

    def __init__(self, max_length: Optional[int] = None) -> None:
        """*max_length* bounds counted subsequence length (None = full)."""
        self.max_length = max_length
        self._raw: Counter[Sequence_] = Counter()
        self._events = 0

    def add(self, event: BGPEvent) -> None:
        self.add_sequence(event.sequence)

    def add_all(self, events: Iterable[BGPEvent]) -> None:
        for event in events:
            self.add(event)

    def add_sequence(self, sequence: Sequence_, multiplicity: int = 1) -> None:
        """Count *multiplicity* events sharing one token sequence."""
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

    def counts(self) -> Counter[Sequence_]:
        """Subsequence → number of events containing it (length ≥ 2).

        A subsequence occurring twice inside one event (possible when a
        path revisits a token pattern, e.g. "1 2 1 2") still counts that
        event once: strength means "how many events share this
        structure", not "how many occurrences exist".
        """
        return self._raw

    def top(self) -> Optional[tuple[Sequence_, int]]:
        """The strongest subsequence: highest count, longest on ties,
        then the lexicographically smallest rendering."""
        return _scan_top(self._raw)


def _scan_top(
    counts: Counter[Sequence_],
) -> Optional[tuple[Sequence_, int]]:
    """Full-scan top(): the reference the pair-table tie walk must match."""
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
