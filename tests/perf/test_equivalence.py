"""The index's pair-table tie walk must be observationally identical to
a full scan of the subsequence counts, before and after eviction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stemming.counter import NaiveSubsequenceCounter, _scan_top
from repro.stemming.stemmer import Stemmer
from tests.stemming.test_stemmer import mk_event

ROUTES = [
    (peer, "2.2.2.2", path, f"10.0.{prefix}.0/24")
    for peer, path, prefix in (
        ("1.1.1.1", "1 2 3", 1),
        ("1.1.1.1", "1 2 4", 2),
        ("1.1.1.2", "5 2 3", 1),
        ("1.1.1.2", "2 3 2 3", 3),
        ("1.1.1.3", "6", 4),
        ("1.1.1.3", "1 2", 5),
    )
]


event_lists = st.lists(
    st.tuples(st.sampled_from(ROUTES), st.integers(1, 4)),
    min_size=1,
    max_size=12,
).map(
    lambda groups: [
        mk_event(float(t), *route)
        for t, route in enumerate(
            route for route, size in groups for _ in range(size)
        )
    ]
)


def scanned_top(events):
    naive = NaiveSubsequenceCounter()
    naive.add_all(events)
    return _scan_top(naive.counts().copy())


def walked_top(index):
    top = Stemmer(min_strength=1, max_components=1).extract(index).strongest
    return None if top is None else (top.subsequence, top.strength)


class TestPairTopAgainstFullScan:
    """The tie walk over the pair table == top() scanned from counts()."""

    @settings(max_examples=150, deadline=None)
    @given(event_lists)
    def test_top_matches_scan(self, events):
        assert walked_top(Stemmer().load(events)) == scanned_top(events)

    @settings(max_examples=150, deadline=None)
    @given(event_lists, st.data())
    def test_top_survives_subtraction(self, events, data):
        index = Stemmer().load(events)
        evicted = data.draw(st.integers(0, len(events)))
        index.remove(evicted)
        assert walked_top(index) == scanned_top(events[evicted:])
