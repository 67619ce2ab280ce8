"""The kept :class:`StemIndex`: posting lists under add/remove, and one
extraction whether the index looks its answers up or scans for them.

A batch load builds no postings and extraction scans; an index that has
been slid keeps postings and extraction looks up. Both must give what a
reference gives that recounts the residual stream from scratch with
:class:`NaiveSubsequenceCounter` before every component.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.stemming.counter import PAIR_MASK, PAIR_SHIFT
from repro.stemming.stemmer import Stemmer, _contains, _Postings
from tests.stemming.reference import NaiveSubsequenceCounter
from tests.stemming.test_stemmer import mk_event


def reference_components(events, stemmer):
    """(subsequence, strength, prefixes, events) per component, by the
    definition: recount what is left, take the top, remove every event
    of a prefix the top touches."""
    remaining = list(events)
    found = []
    while remaining and len(found) < stemmer.max_components:
        naive = NaiveSubsequenceCounter(stemmer.max_subsequence_length)
        naive.add_all(remaining)
        top = naive.top()
        if top is None or top[1] < stemmer.min_strength:
            break
        subsequence, strength = top
        prefixes = frozenset(
            e.prefix for e in remaining if _contains(e.sequence, subsequence)
        )
        found.append(
            (
                subsequence,
                strength,
                prefixes,
                [e for e in remaining if e.prefix in prefixes],
            )
        )
        remaining = [e for e in remaining if e.prefix not in prefixes]
    return found, len(remaining)


def as_reference(result):
    """A :class:`StemmingResult` in :func:`reference_components` form."""
    assert [c.rank for c in result.components] == list(
        range(1, len(result.components) + 1)
    )
    for component in result.components:
        assert component.stem == component.subsequence[-2:]
    return (
        [
            (c.subsequence, c.strength, c.prefixes, list(c.events))
            for c in result.components
        ],
        result.residual_events,
    )


def multiset(components):
    """Components with their events as an order-free multiset."""
    return [
        (sub, strength, prefixes, sorted(e.to_json() for e in events))
        for sub, strength, prefixes, events in components
    ]


def slid(stemmer, events):
    """An index over *events* that got there by sliding: loaded with a
    leading event it later gives up, the rest added in two calls."""
    ballast = mk_event(-1.0, "9.9.9.9", "8.8.8.8", "7 6", "172.16.0.0/16")
    half = len(events) // 2
    index = stemmer.load([ballast] + events[:half])
    index.add(events[half:])
    index.remove(1)
    assert index._postings is not None
    return index


def assert_postings_current(index):
    """The maintained postings equal a rebuild from ``by_ids``."""
    postings = index._postings
    rebuilt = _Postings(index.by_ids)
    assert postings.by_pair == rebuilt.by_pair
    assert postings.by_prefix == rebuilt.by_prefix
    assert postings.pairs == rebuilt.pairs
    assert all(postings.by_pair.values())
    assert all(postings.by_prefix.values())
    assert sorted(postings.order, key=postings.order.get) == list(
        index.by_ids
    )


# -- ties, pinned by example -------------------------------------------

def flap(t, path, prefix, times, peer="1.1.1.1"):
    """One route withdrawn *times* times: every pair of its sequence —
    and the whole sequence — is counted *times*."""
    return [
        mk_event(t + i, peer, "2.2.2.2", path, f"10.0.{prefix}.0/24")
        for i in range(times)
    ]


TIE_STREAMS = {
    # Three flaps of equal size on disjoint paths: a dozen pairs at the
    # top count, and each whole sequence ties its own pairs.
    "many-pairs-at-the-top": (
        flap(0.0, "100 200", 1, 3)
        + flap(10.0, "300 400", 2, 3, peer="1.1.1.2")
        + flap(20.0, "500 600", 3, 3, peer="1.1.1.3")
    ),
    # A shared head under two prefixes: the head's pairs lead, and the
    # longest subsequence made of them (peer … 200) wins over each pair.
    "longer-subsequence-ties-its-pairs": (
        flap(0.0, "100 200 300", 1, 2) + flap(10.0, "100 200 400", 2, 2)
    ),
    # `1 2 1 2`: the pair (1, 2) occurs twice in one event and counts it
    # once; (2, 1) ties it.
    "repeated-pattern": (
        flap(0.0, "1 2 1 2", 1, 2) + flap(10.0, "1 2 1 2", 2, 1)
        + flap(20.0, "3 1 2", 3, 2)
    ),
    # Nothing repeats: every pair is counted once.
    "all-singletons": [
        mk_event(
            float(i), f"1.1.1.{i}", f"2.2.2.{i}", f"{100 + i} {200 + i}",
            f"10.0.{i}.0/24",
        )
        for i in range(1, 5)
    ],
}

STEMMERS = {
    "default": Stemmer(),
    "max-length-2": Stemmer(max_subsequence_length=2),
    "max-length-3": Stemmer(max_subsequence_length=3),
    "min-strength-1": Stemmer(min_strength=1),
    "min-strength-1-max-length-2": Stemmer(
        min_strength=1, max_subsequence_length=2
    ),
}


class TestTieResolution:
    @pytest.mark.parametrize("stemmer", STEMMERS.values(), ids=list(STEMMERS))
    @pytest.mark.parametrize(
        "events", TIE_STREAMS.values(), ids=list(TIE_STREAMS)
    )
    def test_scan_and_lookup_both_equal_the_recounting_reference(
        self, events, stemmer
    ):
        expected = reference_components(events, stemmer)
        loaded = stemmer.load(events)
        assert loaded._postings is None
        assert as_reference(stemmer.extract(loaded)) == expected
        index = slid(stemmer, events)
        assert_postings_current(index)
        found, residual = as_reference(stemmer.extract(index))
        assert residual == expected[1]
        assert multiset(found) == multiset(expected[0])

    def test_the_examples_tie_where_they_claim_to(self):
        top = Stemmer().decompose(TIE_STREAMS["many-pairs-at-the-top"])
        assert [c.strength for c in top.components] == [3, 3, 3]
        assert {len(c.subsequence) for c in top.components} == {5}
        longer = Stemmer().decompose(
            TIE_STREAMS["longer-subsequence-ties-its-pairs"]
        ).strongest
        assert (longer.strength, len(longer.subsequence)) == (4, 4)
        repeated = Stemmer().decompose(TIE_STREAMS["repeated-pattern"])
        assert repeated.strongest.strength == 5  # (1, 2): five events
        assert Stemmer().decompose(
            TIE_STREAMS["all-singletons"]
        ).components == ()

    def test_extract_leaves_the_index_as_it_was(self):
        events = TIE_STREAMS["many-pairs-at-the-top"]
        index = slid(Stemmer(), events)
        by_ids = {ids: list(bucket) for ids, bucket in index.by_ids.items()}
        pair_counts = index.pair_counts.copy()
        first = Stemmer().extract(index)
        assert index.by_ids == by_ids
        assert index.pair_counts == pair_counts
        assert_postings_current(index)
        assert as_reference(Stemmer().extract(index)) == as_reference(first)

    def test_an_inconsistent_index_is_refused_not_miscounted(self):
        events = flap(0.0, "100 200", 1, 3) + flap(10.0, "100 300", 2, 2)
        index = slid(Stemmer(), events)
        # Two of three events of one sequence vanish from the pair
        # table alone: extraction would drive a pair below zero.
        ids = next(iter(index.by_ids))
        for pair in index.pairs_of(ids):
            index.pair_counts[pair] = 1
        with pytest.raises(ValueError, match="cannot subtract"):
            Stemmer(min_strength=1).extract(index)

    def test_a_tracked_pair_is_refused_above_the_floor_too(self):
        events = flap(0.0, "100 200", 1, 3) + flap(10.0, "100 300", 2, 3)
        index = slid(Stemmer(), events)
        # The first sequence's pairs drop to 2 — still at the floor, so
        # tracked — while extracting the second takes 3 off the two
        # pairs they share.
        ids = next(iter(index.by_ids))
        for pair in index.pairs_of(ids):
            index.pair_counts[pair] = 2
        with pytest.raises(ValueError, match="cannot subtract 3 of a pair"):
            Stemmer(min_strength=2).extract(index)


# -- generated add/remove sequences -------------------------------------

event_specs = st.lists(
    st.tuples(
        st.integers(1, 3),  # peer
        st.sampled_from(
            ["100 200 300", "100 200 400", "100 500", "600", "1 2 1 2"]
        ),
        st.integers(0, 5),  # prefix
        # Bundles differing by MED alone collapse to one head.
        st.sampled_from([None, 5]),
    ),
    min_size=1,
    max_size=12,
)

#: One event of :data:`event_specs`, widened: more peers, prefixes and
#: shared path tails, so components share pairs with what survives them.
floor_spec = st.tuples(
    st.integers(1, 6),
    st.sampled_from(
        [
            "100 200 300", "100 200 400", "100 500", "600", "1 2 1 2",
            "700 800", "900 800", "100 800",
        ]
    ),
    st.integers(0, 11),
    st.sampled_from([None, 5]),
)


def events_of(specs):
    return [
        mk_event(
            float(t), f"1.1.1.{peer}", "2.2.2.2", path,
            f"10.0.{prefix}.0/24", med=med,
        )
        for t, (peer, path, prefix, med) in enumerate(specs)
    ]


class TestTheFloor:
    """Extraction tracks only pairs at or above ``max(1, min_strength)``;
    whatever the floor, it must find what a recount finds."""

    @pytest.mark.parametrize("min_strength", [0, 1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(floor_spec, min_size=1, max_size=60))
    def test_slid_and_batch_equal_the_recounting_reference(
        self, min_strength, specs
    ):
        self.assert_equals_the_reference(events_of(specs), min_strength)

    def test_a_pair_that_falls_to_the_floor_can_still_win(self):
        # The first component takes prefix 1, and with it the one event
        # whose (700, 800) it shares with prefix 4's two: that pair falls
        # from 3 to exactly the floor, and prefix 4's whole sequence is
        # the second component. The singletons keep the survivors more
        # numerous than the removals, so the fall is a subtraction.
        events = (
            flap(0.0, "100 200", 1, 5)
            + flap(10.0, "700 800", 1, 1, peer="1.1.1.9")
            + flap(20.0, "700 800", 4, 2, peer="1.1.1.8")
            + [
                mk_event(
                    30.0 + i, f"1.1.2.{i}", f"2.2.3.{i}", f"{10 + i}",
                    f"10.1.{i}.0/24",
                )
                for i in range(3)
            ]
        )
        found = self.assert_equals_the_reference(events, 2)
        assert [(len(sub), strength) for sub, strength, *_ in found] == [
            (5, 5),
            (5, 2),
        ]

    @staticmethod
    def assert_equals_the_reference(events, min_strength):
        stemmer = Stemmer(min_strength=min_strength)
        expected = reference_components(events, stemmer)
        assert as_reference(stemmer.decompose(events)) == expected
        found, residual = as_reference(stemmer.extract(slid(stemmer, events)))
        assert residual == expected[1]
        assert multiset(found) == multiset(expected[0])
        return expected[0]


class SlidingIndex(RuleBasedStateMachine):
    """A :class:`StemIndex` under generated add/remove calls, compared
    after every step with what a fresh load of the same events holds."""

    def __init__(self):
        super().__init__()
        self.stemmer = Stemmer(min_strength=1)
        self.index = self.stemmer.load([])
        self.held = []
        self.clock = 0.0

    @rule(specs=event_specs)
    def add(self, specs):
        batch = []
        for peer, path, prefix, med in specs:
            self.clock += 1.0
            batch.append(
                mk_event(
                    self.clock, f"1.1.1.{peer}", "2.2.2.2", path,
                    f"10.0.{prefix}.0/24", med=med,
                )
            )
        self.index.add(batch)
        self.held.extend(batch)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def remove_oldest(self, data):
        count = data.draw(st.integers(1, len(self.held)))
        self.index.remove(count)
        del self.held[:count]

    @precondition(lambda self: self.held)
    @rule()
    def drain(self):
        self.index.remove(len(self.held))
        self.held.clear()

    @invariant()
    def the_log_names_each_held_event_by_the_index_key(self):
        log = self.index._log
        assert len(log) == len(self.held)
        own = {id(ids) for ids in self.index.by_ids}
        assert all(id(ids) in own for ids in log)
        assert Counter(log) == {
            ids: len(bucket) for ids, bucket in self.index.by_ids.items()
        }
        # Each logged event is where its bucket says, in arrival order.
        seen = Counter()
        for ids, event in zip(log, self.held):
            assert self.index.by_ids[ids][seen[ids]] is event
            seen[ids] += 1

    @invariant()
    def postings_equal_a_rebuild(self):
        if self.index._postings is not None:
            assert_postings_current(self.index)

    @invariant()
    def counts_follow_the_events(self):
        # Ids are assigned in arrival order, which a slid index and a
        # fresh load do not share: compare on decoded tokens.
        fresh = self.stemmer.load(self.held)
        assert self.index.event_count == len(self.held)
        assert _decoded(self.index) == _decoded(fresh)

    @invariant()
    def extraction_equals_a_fresh_loads(self):
        slid_result = self.stemmer.extract(self.index)
        fresh_result = self.stemmer.decompose(self.held)
        found, residual = as_reference(slid_result)
        expected, expected_residual = as_reference(fresh_result)
        assert residual == expected_residual
        assert slid_result.total_events == len(self.held)
        assert multiset(found) == multiset(expected)


def _decoded(index):
    """(sequence -> events, adjacent pair -> events) on tokens."""
    token = index.symbols.token
    return (
        {
            tuple(token(tid) for tid in ids): len(bucket)
            for ids, bucket in index.by_ids.items()
        },
        {
            (token(pair >> PAIR_SHIFT), token(pair & PAIR_MASK)): count
            for pair, count in index.pair_counts.items()
        },
    )


SlidingIndex.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)
TestSlidingIndex = SlidingIndex.TestCase
