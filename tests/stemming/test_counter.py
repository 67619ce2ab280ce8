"""Unit and property tests for subsequence counting."""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.stemming.counter import (
    PAIR_SHIFT,
    NaiveSubsequenceCounter,
    SubsequenceCounter,
    _subsequences,
)
from tests.collector.test_stream import event


def seq(*tokens):
    """Shorthand: build a token sequence from (ns, value) pairs."""
    return tuple(tokens)


A, B, C, D = ("as", 1), ("as", 2), ("as", 3), ("as", 4)


class TestSubsequenceEnumeration:
    def test_all_contiguous_length_ge_2(self):
        subs = set(_subsequences((A, B, C), None))
        assert subs == {(A, B), (B, C), (A, B, C)}

    def test_max_length_bound(self):
        subs = set(_subsequences((A, B, C, D), 2))
        assert subs == {(A, B), (B, C), (C, D)}

    def test_short_sequences_yield_nothing(self):
        assert list(_subsequences((A,), None)) == []
        assert list(_subsequences((), None)) == []

    @given(st.integers(2, 8))
    def test_count_formula(self, n):
        tokens = tuple(("as", i) for i in range(n))
        assert len(list(_subsequences(tokens, None))) == n * (n - 1) // 2


class TestCounting:
    def test_counts_across_sequences(self):
        counter = SubsequenceCounter()
        counter.add_sequence((A, B, C))
        counter.add_sequence((A, B, D))
        counts = counter.counts()
        assert counts[(A, B)] == 2
        assert counts[(B, C)] == 1
        assert counts[(A, B, C)] == 1

    def test_duplicate_sequences_multiply(self):
        counter = SubsequenceCounter()
        for _ in range(5):
            counter.add_sequence((A, B))
        assert counter.counts()[(A, B)] == 5
        assert counter.event_count == 5
        assert counter.unique_sequence_count == 1

    def test_top_prefers_count(self):
        counter = SubsequenceCounter()
        counter.add_sequence((A, B, C))
        counter.add_sequence((A, B, D))
        top, count = counter.top()
        assert top == (A, B)
        assert count == 2

    def test_top_prefers_length_on_ties(self):
        counter = SubsequenceCounter()
        counter.add_sequence((A, B, C))
        counter.add_sequence((A, B, C))
        top, count = counter.top()
        assert top == (A, B, C)  # count 2 ties (A,B); longer wins
        assert count == 2

    def test_top_empty(self):
        assert SubsequenceCounter().top() is None

    def test_add_events(self):
        counter = SubsequenceCounter()
        counter.add_all([event(1.0, path="100 200"), event(2.0, path="100 200")])
        assert counter.event_count == 2

    def test_count_monotone_under_extension(self):
        counter = SubsequenceCounter()
        counter.add_sequence((A, B, C))
        counter.add_sequence((A, B, C, D))
        counter.add_sequence((B, C))
        counts = counter.counts()
        assert counts[(B, C)] >= counts[(A, B, C)] >= counts[(A, B, C, D)]


class TestNaiveEquivalence:
    @given(
        st.lists(
            st.lists(st.integers(1, 5), min_size=2, max_size=6),
            min_size=1,
            max_size=20,
        )
    )
    def test_same_counts_as_naive(self, raw_sequences):
        fast = SubsequenceCounter()
        naive = NaiveSubsequenceCounter()
        for raw in raw_sequences:
            tokens = tuple(("as", v) for v in raw)
            fast.add_sequence(tokens)
            naive.add_sequence(tokens)
        assert fast.counts() == naive.counts()
        assert fast.top() == naive.top()

    @given(
        st.lists(
            st.lists(st.integers(1, 4), min_size=2, max_size=7),
            min_size=1,
            max_size=15,
        ),
        st.integers(2, 4),
    )
    def test_same_counts_with_length_bound(self, raw_sequences, bound):
        fast = SubsequenceCounter(max_length=bound)
        naive = NaiveSubsequenceCounter(max_length=bound)
        for raw in raw_sequences:
            tokens = tuple(("as", v) for v in raw)
            fast.add_sequence(tokens)
            naive.add_sequence(tokens)
        assert fast.counts() == naive.counts()


def unfiltered_top(counter: SubsequenceCounter):
    """:meth:`SubsequenceCounter.rank_top` without its holder filter:
    every window made solely of winning pairs, in every sequence,
    counted once per event and ranked (count, length, rendering)."""
    best = max(counter.pair_counts.values())
    winning = {
        pair for pair, count in counter.pair_counts.items() if count == best
    }
    bound = counter.max_length
    candidates: Counter = Counter()
    for ids, multiplicity in counter._sequence_counts.items():
        windows = {
            window
            for window in _subsequences(ids, bound)
            if all(
                (a << PAIR_SHIFT) | b in winning
                for a, b in zip(window, window[1:])
            )
        }
        for window in windows:
            candidates[window] += multiplicity
    finalists = [w for w, count in candidates.items() if count == best]
    longest = max(map(len, finalists))
    winner = min(
        (w for w in finalists if len(w) == longest),
        key=counter._tiebreak_ids,
    )
    token = counter.symbols.token
    return tuple(map(token, winner)), best


class TestTieFilter:
    """The tie walk skips holders that cannot extend a tie past a pair:
    those holding no id that ends one winning pair and starts another.
    A self-pair (a, a) does both, which a filter on distinct tied pairs
    forgets."""

    @given(
        st.lists(
            st.lists(st.integers(1, 4), min_size=2, max_size=7),
            min_size=1,
            max_size=15,
        ),
        st.sampled_from([None, 2, 3, 4]),
    )
    @example([[1, 1], [2, 2, 2]], None)
    @example([[1, 2], [2, 3], [3, 3, 3]], None)
    def test_equals_the_unfiltered_walk_and_the_naive_top(
        self, raw_sequences, bound
    ):
        fast = SubsequenceCounter(max_length=bound)
        naive = NaiveSubsequenceCounter(max_length=bound)
        for raw in raw_sequences:
            tokens = tuple(("as", v) for v in raw)
            fast.add_sequence(tokens)
            naive.add_sequence(tokens)
        assert fast.top() == unfiltered_top(fast) == naive.top()


class TestMultiplicity:
    def test_grouped_add_equals_repeated_adds(self):
        grouped = SubsequenceCounter()
        grouped.add_sequence((A, B, C), multiplicity=5)
        looped = SubsequenceCounter()
        for _ in range(5):
            looped.add_sequence((A, B, C))
        assert grouped.counts() == looped.counts()
        assert grouped.top() == looped.top()
        assert grouped.event_count == 5

    def test_invalid_multiplicity(self):
        counter = SubsequenceCounter()
        with pytest.raises(ValueError):
            counter.add_sequence((A, B), multiplicity=0)

    def test_multiplicity_after_expansion(self):
        counter = SubsequenceCounter()
        counter.add_sequence((A, B), multiplicity=2)
        assert counter.counts()[(A, B)] == 2  # materialize the expansion
        counter.add_sequence((A, B), multiplicity=3)
        assert counter.counts()[(A, B)] == 5
        counter.subtract_sequence((A, B), 4)
        assert counter.counts()[(A, B)] == 1
        assert counter.top() == ((A, B), 1)
