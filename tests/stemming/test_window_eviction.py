"""Window-eviction regressions: counter subtraction and tracker bounds.

The stemmer *subtracts* each extracted component's events from its
:class:`SubsequenceCounter` instead of recounting the remainder, as
would any caller sliding a window over a live counter. That is only
sound if remove-then-readd is indistinguishable from never having
removed — these tests pin that equivalence against a freshly built
counter, across the counter's lazy materialization paths.
"""

import random

import pytest

from repro.stemming.counter import SubsequenceCounter
from repro.stemming.detector import StreamingDetector
from repro.stemming.tracker import IncidentState, IncidentTracker
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
        # top()/counts() build lazy internal indexes; subtraction after
        # materialization must keep them coherent.
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


def tracker_with_resolved(order, max_resolved=None):
    """A tracker holding RESOLVED incidents, inserted in *order*."""
    tracker = IncidentTracker(resolve_after=50.0,
                              max_resolved=max_resolved)
    paths = {
        "a": "100 200 300",
        "b": "100 400 500",
        "c": "100 600 700",
    }
    at = {"a": 10.0, "b": 20.0, "c": 30.0}
    for key in order:
        detector = StreamingDetector(windows=(40.0,))
        detector.ingest(
            spike(paths[key], 20, start_prefix=ord(key) * 40)
        )
        tracker.observe(detector.report(at=at[key]))
    # Much later: everything resolves in one sweep.
    tracker.observe(StreamingDetector(windows=(40.0,)).report(at=500.0))
    return tracker


class TestTrackerEviction:
    def test_unbounded_tracker_keeps_every_resolved_incident(self):
        tracker = tracker_with_resolved("abc")
        assert len(tracker.all_incidents()) == 3
        assert tracker.evict_resolved() == []

    def test_evicts_oldest_resolved_first(self):
        tracker = tracker_with_resolved("abc")
        evicted = tracker.evict_resolved(max_resolved=1)
        # a (last_seen 10) and b (20) go; c (30) survives.
        assert [i.last_seen for i in evicted] == [10.0, 20.0]
        assert len(tracker.all_incidents()) == 1

    def test_eviction_is_insertion_order_independent(self):
        for order in ("abc", "cba", "bac"):
            tracker = tracker_with_resolved(order, max_resolved=1)
            survivors = [
                i.location for i in tracker.all_incidents()
            ]
            assert survivors == [(600, 700)], order

    def test_observe_applies_the_cap_automatically(self):
        tracker = tracker_with_resolved("abc", max_resolved=2)
        resolved = [
            i for i in tracker.all_incidents()
            if i.state is IncidentState.RESOLVED
        ]
        assert len(resolved) == 2

    def test_evicted_location_relapses_as_new(self):
        from tests.stemming.test_stemmer import mk_event

        tracker = tracker_with_resolved("abc", max_resolved=0)
        assert tracker.all_incidents() == []
        detector = StreamingDetector(windows=(40.0,))
        detector.ingest([
            mk_event(
                580.0 + i, "1.1.1.1", "2.2.2.2",
                f"100 200 300 {60900 + i}", f"10.30.{i}.0/24",
            )
            for i in range(20)
        ])
        changed = tracker.observe(detector.report(at=600.0))
        assert [i.state for i in changed] == [IncidentState.NEW]
