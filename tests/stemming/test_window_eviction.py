"""Window-eviction regressions: removal from the index.

The window stage *removes* each slide's evicted events from its kept
:class:`~repro.stemming.stemmer.StemIndex` instead of reloading the
remainder, and the stemmer subtracts each extracted component from a
copy of the same pair table. That is only sound if remove-then-readd is
indistinguishable from never having held what was removed — these tests
pin that equivalence against a freshly loaded index, whether or not it
was extracted from in between.
"""

import pytest

from repro.stemming.counter import PAIR_MASK, PAIR_SHIFT
from repro.stemming.stemmer import Stemmer
from tests.stemming.test_stemmer import spike


def window_events():
    """Three overlapping bursts, the first one destined for eviction."""
    first = spike("100 200 300", 25)
    second = spike("100 400 500", 20, start_prefix=100, peer="3.3.3.3")
    third = spike("100 200 300", 15, start_prefix=300)
    return first, second, third


def index_of(*event_groups):
    return Stemmer().load([e for events in event_groups for e in events])


def view(index):
    """What an index holds, on tokens: ids are assigned in arrival
    order, which a slid index and a fresh load do not share."""
    token = index.symbols.token
    return (
        {
            tuple(map(token, ids)): list(bucket)
            for ids, bucket in index.by_ids.items()
        },
        {
            (token(pair >> PAIR_SHIFT), token(pair & PAIR_MASK)): count
            for pair, count in index.pair_counts.items()
        },
        index.event_count,
    )


def extracted(index):
    return [
        (c.subsequence, c.strength, c.prefixes, list(c.events))
        for c in Stemmer().extract(index).components
    ]


def assert_equivalent(left, right):
    assert view(left) == view(right)
    assert extracted(left) == extracted(right)


class TestRemoveThenReaddEquivalence:
    def test_subtract_matches_a_fresh_counter(self):
        first, second, third = window_events()
        live = index_of(first, second, third)
        live.remove(len(first))
        assert_equivalent(live, index_of(second, third))

    def test_readding_restores_full_equality(self):
        first, second, third = window_events()
        live = index_of(first, second, third)
        live.remove(len(first))
        live.add(first)
        assert_equivalent(live, index_of(second, third, first))

    def test_equivalence_survives_materialized_state(self):
        # An extraction reads the tables and must leave nothing behind
        # that a later removal could fall out of step with.
        first, second, third = window_events()
        live = index_of(first, second, third)
        assert extracted(live)
        live.remove(len(first))
        live.add(first)
        assert_equivalent(live, index_of(second, third, first))

    def test_sliding_eviction_order_is_irrelevant(self):
        # Evicting in one pop (a long slide) and one event at a time
        # (many short ones) converge to the same index.
        first, second, third = window_events()
        at_once = index_of(first, second, third)
        one_by_one = index_of(first, second, third)
        at_once.remove(len(first) + 5)
        for _ in range(len(first) + 5):
            one_by_one.remove(1)
        assert_equivalent(at_once, one_by_one)

    def test_subtracting_more_than_counted_raises(self):
        (first, _, _) = window_events()
        index = index_of(first)
        before = view(index)
        with pytest.raises(ValueError, match="cannot remove"):
            index.remove(len(first) + 1)
        assert view(index) == before

    def test_draining_everything_leaves_an_empty_counter(self):
        first, second, third = window_events()
        live = index_of(first, second, third)
        live.remove(len(first) + len(second) + len(third))
        assert live.event_count == 0
        assert not live.pair_counts
        assert not live.by_ids
        assert Stemmer(min_strength=1).extract(live).components == ()
        assert view(live) == view(index_of())
