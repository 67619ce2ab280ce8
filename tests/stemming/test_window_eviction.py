"""Window-eviction regressions: counter subtraction.

The stemmer *subtracts* each extracted component's events from its
:class:`SubsequenceCounter` instead of recounting the remainder, as
would any caller sliding a window over a live counter. That is only
sound if remove-then-readd is indistinguishable from never having
removed — these tests pin that equivalence against a freshly built
counter, whether or not its oracles were read in between.
"""

import random

import pytest

from repro.stemming.counter import SubsequenceCounter
from tests.stemming.test_stemmer import spike


def window_events():
    """Three overlapping bursts, the middle one destined for eviction."""
    first = spike("100 200 300", 25)
    second = spike("100 400 500", 20, start_prefix=100, peer="3.3.3.3")
    third = spike("100 200 300", 15, start_prefix=300)
    return first, second, third


def counter_of(*event_groups):
    counter = SubsequenceCounter()
    for events in event_groups:
        for event in events:
            counter.add_sequence(event.sequence)
    return counter


def assert_equivalent(left, right):
    assert left.counts() == right.counts()
    assert left.top() == right.top()
    assert left.event_count == right.event_count
    assert left.unique_sequence_count == right.unique_sequence_count


class TestRemoveThenReaddEquivalence:
    def test_subtract_matches_a_fresh_counter(self):
        first, second, third = window_events()
        live = counter_of(first, second, third)
        live.subtract_sequences(
            [(event.sequence, 1) for event in second]
        )
        assert_equivalent(live, counter_of(first, third))

    def test_readding_restores_full_equality(self):
        first, second, third = window_events()
        live = counter_of(first, second, third)
        live.subtract_sequences(
            [(event.sequence, 1) for event in second]
        )
        for event in second:
            live.add_sequence(event.sequence)
        assert_equivalent(live, counter_of(first, second, third))

    def test_equivalence_survives_materialized_state(self):
        # top()/counts() are computed per call and must leave nothing
        # behind that a later subtraction could fall out of step with.
        first, second, third = window_events()
        live = counter_of(first, second, third)
        assert live.top() is not None
        live.counts()
        live.subtract_sequences(
            [(event.sequence, 1) for event in second]
        )
        for event in second:
            live.add_sequence(event.sequence)
        assert_equivalent(live, counter_of(first, second, third))

    def test_sliding_eviction_order_is_irrelevant(self):
        # Evicting in timestamp order (the window stage) and in any
        # shuffled order converge to the same counter.
        first, second, third = window_events()
        in_order = counter_of(first, second, third)
        shuffled = counter_of(first, second, third)
        removals = [(event.sequence, 1) for event in second]
        in_order.subtract_sequences(removals)
        rng = random.Random(13)
        mixed = list(removals)
        rng.shuffle(mixed)
        shuffled.subtract_sequences(mixed)
        assert_equivalent(in_order, shuffled)

    def test_subtracting_more_than_counted_raises(self):
        (first, _, _) = window_events()
        counter = counter_of(first)
        with pytest.raises(ValueError, match="cannot subtract"):
            counter.subtract_sequences(
                [(first[0].sequence, 2)]
            )

    def test_draining_everything_leaves_an_empty_counter(self):
        first, second, third = window_events()
        live = counter_of(first, second, third)
        live.subtract_sequences(
            [(e.sequence, 1) for e in first + second + third]
        )
        assert live.event_count == 0
        assert live.top() is None
        assert live.counts() == counter_of().counts()
