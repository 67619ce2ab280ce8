"""Property suite pinning the interned index to the naive reference.

:class:`~repro.stemming.stemmer.StemIndex` keeps packed pair keys and
streams them in bulk (DESIGN.md §10); what it holds must be
observationally identical to :class:`NaiveSubsequenceCounter`, which
recounts every contiguous subsequence of every event from scratch.
Hypothesis drives the index through scripts of event groups — group
sizes above and below the streaming repeat limit, added in one load or
in batches, with evictions of the oldest events in between — and
asserts that its decoded pair table, its sequence table, its event
total and the strongest component never diverge from the reference over
the events it holds.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stemming.counter import (
    _STREAM_REPEAT_LIMIT,
    NaiveSubsequenceCounter,
    count_pairs,
)
from repro.stemming.stemmer import Stemmer
from tests.stemming.test_counter import decoded_pairs, naive_pairs
from tests.stemming.test_stemmer import mk_event

#: One event group: (peer, nexthop, AS path, prefix) and its size.
groups = st.lists(
    st.tuples(
        st.integers(1, 2),
        st.integers(1, 2),
        st.lists(st.integers(1, 5), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(1, 2 * _STREAM_REPEAT_LIMIT),
    ),
    min_size=1,
    max_size=12,
)


def events_of(script, start=0.0):
    """Each group's events, one after the other: a group is one route
    withdrawn size times, so it is one sequence counted size times."""
    events = []
    for peer, nexthop, path, prefix, size in script:
        route = (
            f"1.1.1.{peer}",
            f"2.2.2.{nexthop}",
            " ".join(map(str, path)),
            f"10.0.{prefix}.0/24",
        )
        for _ in range(size):
            events.append(mk_event(start + len(events), *route))
    return events


def naive_of(events):
    naive = NaiveSubsequenceCounter()
    naive.add_all(events)
    return naive


def assert_matches_naive(index, events):
    """The index holds exactly *events*, as the reference counts them."""
    naive = naive_of(events)
    assert decoded_pairs(index) == naive_pairs(events)
    assert index.event_count == naive.event_count == len(events)
    top = Stemmer(min_strength=1, max_components=1).extract(index).strongest
    assert (None if top is None else (top.subsequence, top.strength)) == (
        naive.top()
    )


class TestCountsAndRanking:
    @given(groups)
    @settings(max_examples=60, deadline=None)
    def test_counts_match_naive(self, script):
        events = events_of(script)
        index = Stemmer().load(events)
        assert decoded_pairs(index) == naive_pairs(events)
        assert index.event_count == naive_of(events).event_count

    @given(groups)
    @settings(max_examples=60, deadline=None)
    def test_top_ranking_matches_naive(self, script):
        events = events_of(script)
        top = Stemmer(min_strength=1).strongest_component(events)
        assert (top.subsequence, top.strength) == naive_of(events).top()

    @given(groups, st.data())
    @settings(max_examples=60, deadline=None)
    def test_bulk_id_adds_match_naive(self, script, data):
        """``StemIndex.add`` in batches (the window stage's entry) = one
        load of everything."""
        events = events_of(script)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(events)), max_size=3)
            )
        )
        index = Stemmer().load(events[: cuts[0]] if cuts else events)
        for start, stop in zip(cuts, cuts[1:] + [len(events)]):
            index.add(events[start:stop])
        assert_matches_naive(index, events)


class TestSubtraction:
    @given(groups, st.data())
    @settings(max_examples=60, deadline=None)
    def test_subtract_matches_naive(self, script, data):
        """One eviction of the oldest events = a load of the rest."""
        events = events_of(script)
        index = Stemmer().load(events)
        if data.draw(st.booleans()):
            # An extraction reads the tables: it must leave nothing for
            # the removal to fall out of step with.
            Stemmer(min_strength=1).extract(index)
        evicted = data.draw(st.integers(0, len(events)))
        index.remove(evicted)
        assert_matches_naive(index, events[evicted:])

    @given(groups, groups, st.data())
    @settings(max_examples=40, deadline=None)
    def test_id_level_subtract_matches_naive(self, early, late, data):
        """Evictions interleaved with admissions, as a window slides —
        the delta subtract and the majority recount alike."""
        events = events_of(early)
        events += events_of(late, start=len(events))
        held = data.draw(st.integers(1, len(events)))
        index = Stemmer().load(events[:held])
        gone = 0
        while held < len(events):
            evict = data.draw(st.integers(0, held - gone))
            index.remove(evict)
            gone += evict
            step = data.draw(st.integers(1, len(events) - held))
            index.add(events[held : held + step])
            held += step
            assert_matches_naive(index, events[gone:held])


class TestDecodeBoundary:
    @given(groups)
    @settings(max_examples=40, deadline=None)
    def test_top_ids_decode_to_top(self, script):
        """The tie walk's id winner decodes to the first component."""
        events = events_of(script)
        index = Stemmer().load(events)
        best = max(index.pair_counts.values())
        winning = {
            pair for pair, count in index.pair_counts.items() if count == best
        }
        by_ids = index.by_ids
        ids = index.rank_top(
            winning, best, lambda: by_ids, lambda ids: len(by_ids[ids])
        )
        top = Stemmer(min_strength=1).strongest_component(events)
        token = index.symbols.token
        assert (tuple(map(token, ids)), best) == (
            top.subsequence,
            top.strength,
        )

    @given(groups)
    @settings(max_examples=40, deadline=None)
    def test_id_counts_decode_to_counts(self, script):
        """The sequence table decodes to the events' own sequences, each
        bucket holding exactly that sequence's events."""
        events = events_of(script)
        index = Stemmer().load(events)
        token = index.symbols.token
        for ids, bucket in index.by_ids.items():
            decoded = tuple(map(token, ids))
            assert all(event.sequence == decoded for event in bucket)
        assert {
            tuple(map(token, ids)): len(bucket)
            for ids, bucket in index.by_ids.items()
        } == Counter(event.sequence for event in events)


#: One step of an event-count script: an admission of some groups, or
#: an eviction that may ask for more than is held.
count_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), groups),
        st.tuples(st.just("remove"), st.integers(0, 40)),
    ),
    max_size=12,
)


class TestEventCount:
    @given(count_steps)
    @settings(max_examples=80, deadline=None)
    def test_running_total_equals_the_sum_of_sequence_counts(self, steps):
        """``event_count`` is the log's length: after every step it is
        the sum of the sequence table, and a refused over-removal moves
        nothing."""
        index = Stemmer().load([])
        clock = 0.0
        for kind, arg in steps:
            if kind == "add":
                batch = events_of(arg, start=clock)
                clock += len(batch)
                index.add(batch)
            elif arg > index.event_count:
                before = (index.event_count, index.pair_counts.copy())
                with pytest.raises(ValueError, match="cannot remove"):
                    index.remove(arg)
                assert (index.event_count, index.pair_counts) == before
            else:
                before = index.event_count
                index.remove(arg)
                assert index.event_count == before - arg
            assert index.event_count == sum(map(len, index.by_ids.values()))


class TestPairTable:
    @given(count_steps)
    @settings(max_examples=80, deadline=None)
    def test_pair_counts_are_the_length_two_slice_of_id_counts(self, steps):
        """The pair table is maintained and the sequence table is filed:
        after every add / remove — delta or majority recount — the one
        is the other's pairs."""
        index = Stemmer().load([])
        clock = 0.0
        for kind, arg in steps:
            if kind == "add":
                batch = events_of(arg, start=clock)
                clock += len(batch)
                index.add(batch)
            else:
                index.remove(min(arg, index.event_count))
            assert index.pair_counts == count_pairs(
                ((ids, len(bucket)) for ids, bucket in index.by_ids.items()),
                Counter(),
            )
