"""Property-based invariants of the Stemming decomposition."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.events import BGPEvent, EventKind
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix
from repro.stemming.counter import PAIR_MASK, PAIR_SHIFT
from repro.stemming.stemmer import Stemmer, _contains
from tests.stemming.reference import NaiveSubsequenceCounter


@st.composite
def random_streams(draw):
    """Random small event streams with tunable correlation structure."""
    n = draw(st.integers(min_value=0, max_value=60))
    events = []
    for i in range(n):
        peer = draw(st.integers(1, 3))
        nexthop = draw(st.integers(10, 12))
        path = draw(
            st.lists(st.integers(100, 105), min_size=1, max_size=4)
        )
        prefix_index = draw(st.integers(0, 9))
        events.append(
            BGPEvent(
                timestamp=float(i),
                kind=draw(
                    st.sampled_from([EventKind.ANNOUNCE, EventKind.WITHDRAW])
                ),
                peer=peer,
                prefix=Prefix(0x0A000000 + prefix_index * 256, 24),
                attributes=PathAttributes(
                    nexthop=nexthop, as_path=ASPath(path)
                ),
            )
        )
    return events


class TestDecompositionInvariants:
    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_prefixes(self, events):
        """No prefix belongs to two components."""
        result = Stemmer(min_strength=1).decompose(events)
        seen: set = set()
        for component in result.components:
            assert not (seen & set(component.prefixes))
            seen |= set(component.prefixes)

    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_events_accounted_for(self, events):
        """Component events + residual = total; no event lost or doubled."""
        result = Stemmer(min_strength=1, max_components=64).decompose(events)
        explained = sum(c.event_count for c in result.components)
        assert explained + result.residual_events == result.total_events

    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_strengths_non_increasing(self, events):
        result = Stemmer(min_strength=1).decompose(events)
        strengths = [c.strength for c in result.components]
        assert strengths == sorted(strengths, reverse=True)

    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_stem_is_suffix_of_subsequence(self, events):
        result = Stemmer(min_strength=1).decompose(events)
        for component in result.components:
            assert component.stem == tuple(component.subsequence[-2:])

    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_every_component_event_touches_its_prefixes(self, events):
        result = Stemmer(min_strength=1).decompose(events)
        for component in result.components:
            for event in component.events:
                assert event.prefix in component.prefixes

    @given(random_streams())
    @settings(max_examples=60, deadline=None)
    def test_strength_counts_subsequence_occurrences(self, events):
        """The reported strength equals the number of events (in the
        stream at extraction time) containing the winning subsequence.
        For the FIRST component that stream is the full input."""
        result = Stemmer(min_strength=1).decompose(events)
        if not result.components:
            return
        first = result.components[0]
        actual = sum(
            1 for e in events if _contains(e.sequence, first.subsequence)
        )
        assert first.strength == actual

    @given(random_streams())
    @settings(max_examples=40, deadline=None)
    def test_coverage_bounds(self, events):
        result = Stemmer(min_strength=1).decompose(events)
        assert 0.0 <= result.coverage() <= 1.0
        if events and len(result.components):
            assert result.coverage() > 0.0


class TestCounterInvariants:
    @given(random_streams())
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_under_extension(self, events):
        """count(s) ≥ count(s + t) for every counted extension, so the
        index's pair table bounds every longer subsequence: what lets it
        keep pairs alone."""
        naive = NaiveSubsequenceCounter()
        naive.add_all(events)
        counts = naive.counts()
        index = Stemmer().load(events)
        token = index.symbols.token
        pairs = {
            (token(pair >> PAIR_SHIFT), token(pair & PAIR_MASK)): count
            for pair, count in index.pair_counts.items()
        }
        for subsequence, count in counts.items():
            if len(subsequence) > 2:
                assert counts[subsequence[:-1]] >= count
                assert counts[subsequence[1:]] >= count
            assert all(
                pairs[pair] >= count
                for pair in zip(subsequence, subsequence[1:])
            )

    @given(random_streams())
    @settings(max_examples=40, deadline=None)
    def test_top_is_maximal(self, events):
        top = Stemmer(min_strength=1).strongest_component(events)
        if top is None:
            assert not events
            return
        naive = NaiveSubsequenceCounter()
        naive.add_all(events)
        assert top.strength == max(naive.counts().values())


def ranking(result, with_stems=True):
    """The ranked (stem, strength, prefix set) of a decomposition."""
    return [
        ((c.stem,) if with_stems else ()) + (c.strength, c.prefixes)
        for c in result.components
    ]


class TestMetamorphicRelations:
    """Relations between runs that the paper's definition implies.

    They check Stemming against itself under a transformed input, an
    oracle that does not need a second implementation.
    """

    @given(random_streams(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_r1_arrival_order_and_times_do_not_rank(self, events, rng):
        shuffled = list(events)
        rng.shuffle(shuffled)
        restamped = [
            replace(event, timestamp=float(i))
            for i, event in enumerate(shuffled)
        ]
        stemmer = Stemmer(min_strength=1)
        assert ranking(stemmer.decompose(restamped)) == ranking(
            stemmer.decompose(events)
        )

    @given(random_streams(), st.integers(100, 499), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_r2_an_order_preserving_relabel_keeps_the_ranking(
        self, events, offset, scale
    ):
        # Ties rank on the rendered token, ``AS{value}`` compared as
        # text, so the order to preserve is the text's: every AS stays
        # three digits wide, where text order is number order. A
        # relabel that changes the width (100 -> 988, 103 -> 1000)
        # reverses a tie and moves prefixes between components.
        def relabel(event):
            path = ASPath([
                offset + scale * (asn - 100)
                for asn in event.as_path.sequence
            ])
            return replace(
                event,
                attributes=PathAttributes(
                    nexthop=event.nexthop, as_path=path
                ),
            )

        stemmer = Stemmer(min_strength=1)
        relabelled = stemmer.decompose([relabel(e) for e in events])
        assert ranking(relabelled, with_stems=False) == ranking(
            stemmer.decompose(events), with_stems=False
        )

    @given(random_streams(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_r3_every_event_twice_doubles_every_strength(
        self, events, min_strength
    ):
        twice = [copy for event in events for copy in (event, event)]
        once = Stemmer(min_strength=min_strength).decompose(events)
        doubled = Stemmer(min_strength=2 * min_strength).decompose(twice)
        assert ranking(doubled) == [
            (stem, 2 * strength, prefixes)
            for stem, strength, prefixes in ranking(once)
        ]
