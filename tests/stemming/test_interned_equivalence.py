"""Property suite pinning the interned counter to the naive reference.

The columnar :class:`~repro.stemming.counter.SubsequenceCounter` (packed
pair keys, bulk pair streaming — DESIGN.md §10) must
be observationally identical to :class:`NaiveSubsequenceCounter`, which
recounts every contiguous subsequence from scratch. Hypothesis drives
both through the same scripts — bulk adds with multiplicities above and
below the streaming repeat limit, an optional mid-script read of the
oracles, and partial ``subtract_sequences`` — and asserts the
decoded ``counts()`` and ``top()`` ranking never diverge.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stemming.counter import (
    _STREAM_REPEAT_LIMIT,
    PAIR_SHIFT,
    NaiveSubsequenceCounter,
    SubsequenceCounter,
)


def toks(raw):
    return tuple(("as", v) for v in raw)


raw_sequences = st.lists(
    st.integers(1, 5), min_size=2, max_size=6
).map(tuple)


@st.composite
def counter_scripts(draw):
    """(adds, subtractions, materialize_before_subtract).

    Multiplicities straddle ``_STREAM_REPEAT_LIMIT`` so both the
    repeat-extend and the per-pair arithmetic branches of the bulk pair
    streaming run; subtractions never exceed what was added (the
    counter's documented precondition).
    """
    adds = draw(
        st.lists(
            st.tuples(
                raw_sequences,
                st.integers(1, 2 * _STREAM_REPEAT_LIMIT),
            ),
            min_size=1,
            max_size=12,
        )
    )
    totals: dict = {}
    for raw, mult in adds:
        totals[raw] = totals.get(raw, 0) + mult
    subtractions = []
    for raw, total in sorted(totals.items()):
        k = draw(st.integers(0, total))
        if k:
            subtractions.append((raw, k))
    materialize = draw(st.booleans())
    return adds, subtractions, materialize


class TestCountsAndRanking:
    @given(counter_scripts())
    @settings(max_examples=60)
    def test_counts_match_naive(self, script):
        adds, _, _ = script
        fast = SubsequenceCounter()
        naive = NaiveSubsequenceCounter()
        for raw, mult in adds:
            fast.add_sequence(toks(raw), mult)
            naive.add_sequence(toks(raw), mult)
        assert fast.counts() == naive.counts()
        assert fast.event_count == naive.event_count

    @given(counter_scripts())
    @settings(max_examples=60)
    def test_top_ranking_matches_naive(self, script):
        adds, _, _ = script
        fast = SubsequenceCounter()
        naive = NaiveSubsequenceCounter()
        for raw, mult in adds:
            fast.add_sequence(toks(raw), mult)
            naive.add_sequence(toks(raw), mult)
        assert fast.top() == naive.top()

    @given(counter_scripts())
    @settings(max_examples=60)
    def test_bulk_id_adds_match_naive(self, script):
        """``add_id_counts`` (the stemmer's bulk entry) = token adds."""
        adds, _, _ = script
        fast = SubsequenceCounter()
        naive = NaiveSubsequenceCounter()
        fast.add_id_counts(
            (fast.intern_sequence(toks(raw)), mult) for raw, mult in adds
        )
        for raw, mult in adds:
            naive.add_sequence(toks(raw), mult)
        assert fast.counts() == naive.counts()
        assert fast.top() == naive.top()


def naive_residual(adds, subtractions):
    """A naive counter over the post-subtraction multiset.

    The naive reference has no per-sequence bookkeeping to subtract, so
    the model for ``subtract_sequences`` is *recounting with the
    subtracted copies never added* — exactly the semantics the
    incremental subtract must preserve.
    """
    remaining: dict = {}
    for raw, mult in adds:
        remaining[raw] = remaining.get(raw, 0) + mult
    for raw, k in subtractions:
        remaining[raw] -= k
    naive = NaiveSubsequenceCounter()
    for raw, mult in remaining.items():
        if mult:
            naive.add_sequence(toks(raw), mult)
    return naive


class TestSubtraction:
    @given(counter_scripts())
    @settings(max_examples=60)
    def test_subtract_matches_naive(self, script):
        adds, subtractions, materialize = script
        fast = SubsequenceCounter()
        for raw, mult in adds:
            fast.add_sequence(toks(raw), mult)
        if materialize:
            # counts() is computed per call: reading it first must
            # leave nothing for the subtraction to fall out of step with.
            fast.counts()
        fast.subtract_sequences(
            [(toks(raw), k) for raw, k in subtractions]
        )
        naive = naive_residual(adds, subtractions)
        assert fast.counts() == naive.counts()
        assert fast.top() == naive.top()
        assert fast.event_count == naive.event_count

    @given(counter_scripts())
    @settings(max_examples=40)
    def test_id_level_subtract_matches_naive(self, script):
        """``subtract_id_sequences`` (the stemmer's path) = token path."""
        adds, subtractions, materialize = script
        fast = SubsequenceCounter()
        for raw, mult in adds:
            fast.add_sequence(toks(raw), mult)
        if materialize:
            fast.top()  # likewise the pair-table oracle
        fast.subtract_id_sequences(
            [(fast.intern_sequence(toks(raw)), k) for raw, k in subtractions]
        )
        naive = naive_residual(adds, subtractions)
        assert fast.counts() == naive.counts()
        assert fast.top() == naive.top()


class TestDecodeBoundary:
    @given(st.lists(raw_sequences, min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_top_ids_decode_to_top(self, raws):
        counter = SubsequenceCounter()
        for raw in raws:
            counter.add_sequence(toks(raw))
        top = counter.top()
        top_ids = counter.top_ids()
        assert (top is None) == (top_ids is None)
        if top is not None:
            ids, count = top_ids
            token = counter.symbols.token
            assert (tuple(token(tid) for tid in ids), count) == top

    @given(st.lists(raw_sequences, min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_id_counts_decode_to_counts(self, raws):
        counter = SubsequenceCounter()
        for raw in raws:
            counter.add_sequence(toks(raw))
        token = counter.symbols.token
        decoded = {
            tuple(token(tid) for tid in ids): count
            for ids, count in counter.id_counts().items()
        }
        assert decoded == counter.counts()


#: One step of an event-count script: a single add, a bulk add, or a
#: subtraction that may ask for more than was counted.
count_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), raw_sequences, st.integers(1, 12)),
        st.tuples(
            st.just("bulk"),
            st.lists(
                st.tuples(raw_sequences, st.integers(1, 12)), max_size=5
            ),
        ),
        st.tuples(st.just("subtract"), raw_sequences, st.integers(1, 20)),
    ),
    max_size=25,
)


class TestEventCount:
    @given(count_steps, st.booleans())
    @settings(max_examples=80)
    def test_running_total_equals_the_sum_of_sequence_counts(
        self, steps, materialize
    ):
        """``event_count`` is kept, not summed per call: after every
        step it is what summing the table would give, and a refused
        over-subtraction moves neither."""
        counter = SubsequenceCounter()
        if materialize:
            counter.counts()
        for step in steps:
            if step[0] == "add":
                counter.add_ids(
                    counter.intern_sequence(toks(step[1])), step[2]
                )
            elif step[0] == "bulk":
                counter.add_id_counts(
                    [
                        (counter.intern_sequence(toks(raw)), mult)
                        for raw, mult in step[1]
                    ]
                )
            else:
                ids = counter.intern_sequence(toks(step[1]))
                before = counter.event_count
                if step[2] > counter._sequence_counts.get(ids, 0):
                    with pytest.raises(ValueError):
                        counter.subtract_id_sequences([(ids, step[2])])
                    assert counter.event_count == before
                else:
                    counter.subtract_id_sequences([(ids, step[2])])
                    assert counter.event_count == before - step[2]
            assert counter.event_count == sum(
                counter._sequence_counts.values()
            )


#: Interleaved bulk steps: True adds its items, False subtracts them
#: (clamped to what is held, so whole sequences leave too).
bulk_steps = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(
            st.tuples(
                raw_sequences, st.integers(1, 2 * _STREAM_REPEAT_LIMIT)
            ),
            min_size=1,
            max_size=6,
        ),
    ),
    max_size=12,
)


class TestPairTable:
    @given(bulk_steps)
    @settings(max_examples=80)
    def test_pair_counts_are_the_length_two_slice_of_id_counts(self, steps):
        """The pair table is maintained and ``id_counts()`` is computed
        from the sequence table: after every ``add_id_counts`` /
        ``subtract_id_sequences`` — delta or majority recount — the one
        is the other's pairs."""
        counter = SubsequenceCounter()
        held: Counter = Counter()
        for adding, items in steps:
            batch: Counter = Counter()
            for raw, mult in items:
                batch[counter.intern_sequence(toks(raw))] += mult
            if adding:
                counter.add_id_counts(batch.items())
                held += batch
            else:
                batch &= held
                counter.subtract_id_sequences(batch.items())
                held -= batch
            assert counter.pair_counts == {
                (ids[0] << PAIR_SHIFT) | ids[1]: count
                for ids, count in counter.id_counts().items()
                if len(ids) == 2
            }
