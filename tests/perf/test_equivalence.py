"""The pair-table ``top()`` must be observationally identical to a
full scan of the subsequence counts, before and after subtraction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stemming.counter import SubsequenceCounter, _scan_top

TOKENS = [("as", value) for value in range(1, 7)]


sequence_lists = st.lists(
    st.tuples(
        st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(tuple),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=12,
)


class TestPairTopAgainstFullScan:
    """top() answered from the pair table == top() scanned from counts()."""

    @settings(max_examples=150, deadline=None)
    @given(sequence_lists)
    def test_top_matches_scan(self, additions):
        counter = SubsequenceCounter()
        for sequence, multiplicity in additions:
            counter.add_sequence(sequence, multiplicity)
        assert counter.top() == _scan_top(counter.counts().copy())

    @settings(max_examples=150, deadline=None)
    @given(sequence_lists, st.data())
    def test_top_survives_subtraction(self, additions, data):
        counter = SubsequenceCounter()
        totals = {}
        for sequence, multiplicity in additions:
            counter.add_sequence(sequence, multiplicity)
            totals[sequence] = totals.get(sequence, 0) + multiplicity
        victims = data.draw(
            st.lists(st.sampled_from(sorted(totals, key=str)), max_size=4)
        )
        removals = []
        for sequence in victims:
            if totals[sequence] == 0:
                continue
            taken = data.draw(st.integers(1, totals[sequence]))
            totals[sequence] -= taken
            removals.append((sequence, taken))
        if removals:
            counter.subtract_sequences(removals)
        assert counter.top() == _scan_top(counter.counts().copy())
