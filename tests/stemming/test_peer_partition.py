"""Peer-partition additivity of the first level.

Every event sequence begins with its peer, so splitting a stream by
peer splits its sequence table without cutting any sequence, and the
adjacent-pair counts of the parts add up to the whole stream's. This is
the lemma that lets shards which own disjoint peer sets be merged by
summing their pair tables. Each part's index interns its own ids, so
the tables are compared decoded.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stemming.stemmer import Stemmer
from tests.stemming.test_invariants import random_streams
from tests.stemming.test_stem_index import _decoded


def decoded(index):
    """The index's sequence and pair tables on tokens, as counters."""
    return tuple(map(Counter, _decoded(index)))


@st.composite
def partitioned_streams(draw):
    """A stream and an assignment of each of its peers to one of up to
    five parts (some parts may be left empty)."""
    events = draw(random_streams())
    parts = draw(st.integers(1, 5))
    peers = sorted({event.peer for event in events})
    owner = {peer: draw(st.integers(0, parts - 1)) for peer in peers}
    return events, parts, owner


class TestPeerPartition:
    @given(partitioned_streams())
    @settings(max_examples=80, deadline=None)
    def test_part_tables_sum_to_the_whole(self, stream):
        events, parts, owner = stream
        whole_sequences, whole_pairs = decoded(Stemmer().load(events))
        sequences: Counter = Counter()
        pairs: Counter = Counter()
        for part in range(parts):
            part_sequences, part_pairs = decoded(
                Stemmer().load(e for e in events if owner[e.peer] == part)
            )
            # No sequence is split between parts.
            assert not sequences.keys() & part_sequences.keys()
            sequences += part_sequences
            pairs += part_pairs
        assert sequences == whole_sequences
        assert pairs == whole_pairs
