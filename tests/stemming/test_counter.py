"""Unit and property tests for subsequence counting: the naive
reference, and the index's pair table and tie walk checked against it."""

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.stemming.counter import (
    PAIR_MASK,
    PAIR_SHIFT,
    _subsequences,
    count_pairs,
)
from repro.stemming.stemmer import StemIndex, Stemmer
from tests.collector.test_stream import event
from tests.stemming.reference import NaiveSubsequenceCounter
from tests.stemming.test_invariants import random_streams
from tests.stemming.test_stemmer import mk_event


A, B, C, D = ("as", 1), ("as", 2), ("as", 3), ("as", 4)


def decoded_pairs(index):
    """The index's pair table on tokens."""
    token = index.symbols.token
    return {
        (token(pair >> PAIR_SHIFT), token(pair & PAIR_MASK)): count
        for pair, count in index.pair_counts.items()
    }


def naive_pairs(events, bound=None):
    """The length-2 slice of the naive counts over *events*."""
    naive = NaiveSubsequenceCounter(bound)
    naive.add_all(events)
    return {s: count for s, count in naive.counts().items() if len(s) == 2}


def naive_top(events, bound=None):
    naive = NaiveSubsequenceCounter(bound)
    naive.add_all(events)
    return naive.top()


def strongest(events, bound=None):
    """(subsequence, strength) of the first component with no strength
    floor: the index's tie walk over the whole table."""
    top = Stemmer(
        min_strength=1, max_subsequence_length=bound
    ).strongest_component(events)
    return None if top is None else (top.subsequence, top.strength)


def withdrawal(peer, nexthop, path, prefix, t=0.0):
    return mk_event(t, peer, nexthop, path, f"10.0.{prefix}.0/24")


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
        events = [
            withdrawal("1.1.1.1", "2.2.2.2", "1 2 3", 1),
            withdrawal("1.1.1.1", "2.2.2.2", "1 2 4", 2),
        ]
        pairs = decoded_pairs(Stemmer().load(events))
        assert pairs[(A, B)] == 2
        assert pairs[(B, C)] == 1
        assert pairs == naive_pairs(events)
        naive = NaiveSubsequenceCounter()
        naive.add_all(events)
        assert naive.counts()[(A, B, C)] == 1

    def test_duplicate_sequences_multiply(self):
        events = [withdrawal("1.1.1.1", "2.2.2.2", "1 2", 1)] * 5
        index = Stemmer().load(events)
        assert decoded_pairs(index)[(A, B)] == 5
        assert index.event_count == 5
        assert len(index.by_ids) == 1

    def test_top_prefers_count(self):
        events = [
            withdrawal("1.1.1.1", "2.2.2.1", "1 2 3", 1),
            withdrawal("1.1.1.2", "2.2.2.2", "1 2 4", 2),
        ]
        assert strongest(events) == ((A, B), 2) == naive_top(events)

    def test_top_prefers_length_on_ties(self):
        events = [
            withdrawal("1.1.1.1", "2.2.2.1", "1 2 3", 1),
            withdrawal("1.1.1.2", "2.2.2.2", "1 2 3", 1),
        ]
        prefix = events[0].sequence[-1]
        # Count 2 ties (A, B), (B, C) and (C, prefix); longest wins.
        assert strongest(events) == ((A, B, C, prefix), 2)
        assert strongest(events) == naive_top(events)

    def test_top_empty(self):
        assert strongest([]) is None
        assert naive_top([]) is None
        assert not Stemmer().load([]).pair_counts

    def test_add_events(self):
        events = [event(1.0, path="100 200"), event(2.0, path="100 200")]
        assert Stemmer().load(events).event_count == 2
        naive = NaiveSubsequenceCounter()
        naive.add_all(events)
        assert naive.event_count == 2

    def test_count_monotone_under_extension(self):
        naive = NaiveSubsequenceCounter()
        naive.add_sequence((A, B, C))
        naive.add_sequence((A, B, C, D))
        naive.add_sequence((B, C))
        counts = naive.counts()
        assert counts[(B, C)] >= counts[(A, B, C)] >= counts[(A, B, C, D)]


class TestNaiveEquivalence:
    @given(random_streams())
    def test_same_counts_as_naive(self, events):
        assert decoded_pairs(Stemmer().load(events)) == naive_pairs(events)
        assert strongest(events) == naive_top(events)

    @given(random_streams(), st.integers(2, 4))
    def test_same_counts_with_length_bound(self, events, bound):
        index = Stemmer(max_subsequence_length=bound).load(events)
        assert decoded_pairs(index) == naive_pairs(events, bound)
        assert strongest(events, bound) == naive_top(events, bound)


def walks(raw_sequences, bound):
    """:meth:`StemIndex.rank_top` over raw id sequences — its holder
    filter on, and off: every window made solely of winning pairs, in
    every sequence, counted once per event and ranked (count, length,
    rendering) — each decoded, with the top count."""
    index = StemIndex(bound)
    intern = index.symbols.intern_token
    held = Counter(
        tuple(intern(("as", v)) for v in raw) for raw in raw_sequences
    )
    table = count_pairs(held.items(), Counter())
    best = max(table.values())
    winning = {pair for pair, count in table.items() if count == best}
    walked = index.rank_top(winning, best, lambda: held, held.__getitem__)
    candidates: Counter = Counter()
    for ids, multiplicity in held.items():
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
    unfiltered = min(
        (w for w in finalists if len(w) == longest),
        key=index._tiebreak_ids,
    )
    token = index.symbols.token
    return (
        (tuple(map(token, walked)), best),
        (tuple(map(token, unfiltered)), best),
    )


class TestTieFilter:
    """The tie walk skips holders that cannot extend a tie past a pair:
    those holding no id that ends one winning pair and starts another.
    A self-pair (a, a) does both, which a filter on distinct tied pairs
    forgets. Event sequences never hold a self-pair (an AS path is
    collapsed, and the other tokens differ in kind), so the walk is
    driven here on raw id sequences too."""

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
        naive = NaiveSubsequenceCounter(max_length=bound)
        for raw in raw_sequences:
            naive.add_sequence(tuple(("as", v) for v in raw))
        walked, unfiltered = walks(raw_sequences, bound)
        assert walked == unfiltered == naive.top()


class TestMultiplicity:
    def test_grouped_add_equals_repeated_adds(self):
        events = [withdrawal("1.1.1.1", "2.2.2.2", "1 2 3", 1)] * 5
        grouped = Stemmer().load(events)
        looped = Stemmer().load([])
        for one in events:
            looped.add([one])
        assert grouped.pair_counts == looped.pair_counts
        assert grouped.by_ids == looped.by_ids
        assert grouped.event_count == looped.event_count == 5

    def test_invalid_multiplicity(self):
        naive = NaiveSubsequenceCounter()
        with pytest.raises(ValueError):
            naive.add_sequence((A, B), multiplicity=0)

    def test_multiplicity_after_expansion(self):
        one = withdrawal("1.1.1.1", "2.2.2.2", "1 2", 1)
        index = Stemmer().load([one] * 2)
        assert decoded_pairs(index)[(A, B)] == 2
        index.add([one] * 3)
        assert decoded_pairs(index)[(A, B)] == 5
        index.remove(4)
        assert decoded_pairs(index)[(A, B)] == 1
        top = Stemmer(min_strength=1).extract(index).strongest
        assert (top.subsequence, top.strength) == (one.sequence, 1)
