"""The naive reference for contiguous-subsequence counting.

:class:`NaiveSubsequenceCounter` is the textbook O(N·L²) formulation of
Stemming's statistic over tokens: no sequence deduplication, no
interning, no pair table. It is the definition
:class:`~repro.stemming.stemmer.StemIndex`'s pair table and tie walk are
tested against, and the baseline ``benchmarks/test_ablations.py`` times
``Stemmer.load`` against. No command reaches it, so it lives beside the
tests rather than in the package.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.collector.events import BGPEvent
from repro.stemming.counter import Sequence_, _subsequences, _tiebreak


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
