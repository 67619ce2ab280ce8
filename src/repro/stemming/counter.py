"""Contiguous-subsequence counting: the pair-table primitives.

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
DESIGN.md §10), :func:`distinct_pairs` and the bulk :func:`count_pairs`,
plus the two token-level helpers the weighted stemmer and the index's
tie walk share: :func:`_subsequences` and :func:`_tiebreak`. The
textbook O(N·L²) counter over tokens — the definition the index is
tested against and the baseline of the ablation benchmark — lives
under ``tests/stemming/reference.py``: no command reaches it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Collection, Iterable, Optional

from repro.collector.events import Token

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
