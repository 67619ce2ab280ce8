"""Property-based guarantees for the interning layer.

**SymbolTable round trip**: encode → decode is the identity for any mix
of tokens and prefixes; token ids are dense in first-appearance order;
prefix ids are value-derived (every table computes the same id,
injectively); and a shard-join token remap preserves what every id
decodes to.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.interning import (
    SymbolTable,
    pack_prefix,
    unpack_edge,
    unpack_prefix,
)
from repro.net.prefix import Prefix


def prefixes() -> st.SearchStrategy[Prefix]:
    def build(raw: int, length: int) -> Prefix:
        mask = 0 if length == 0 else (
            (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        )
        return Prefix(raw & mask, length)

    return st.builds(
        build, st.integers(0, 0xFFFFFFFF), st.integers(0, 32)
    )


def tokens() -> st.SearchStrategy[tuple]:
    return st.one_of(
        st.tuples(st.just("router"), st.text(max_size=8)),
        st.tuples(st.just("nh"), st.integers(0, 0xFFFFFFFF)),
        st.tuples(st.just("as"), st.integers(1, 0xFFFFFFFF)),
        st.tuples(st.just("root"), st.text(max_size=8)),
    )


@given(st.lists(tokens(), max_size=30), st.lists(prefixes(), max_size=30))
def test_symbol_table_round_trip(token_list, prefix_list):
    table = SymbolTable()
    tids = [table.intern_token(token) for token in token_list]
    pids = [table.intern_prefix(prefix) for prefix in prefix_list]
    # Identity: decode inverts encode, and re-interning is stable.
    for token, tid in zip(token_list, tids):
        assert table.token(tid) == token
        assert table.intern_token(token) == tid
        assert table.token_id(token) == tid
    for prefix, pid in zip(prefix_list, pids):
        assert table.prefix(pid) == prefix
        assert table.intern_prefix(prefix) == pid
        assert table.prefix_id(prefix) == pid
        # Value-derived: the module-level codec agrees with the table
        # and inverts exactly.
        assert pack_prefix(prefix) == pid
        assert unpack_prefix(pid) == prefix
    # Token-id density: ids cover 0..n-1 in first-appearance order.
    assert sorted(set(tids)) == list(range(table.token_count))
    # Prefix-id injectivity: distinct prefixes, distinct ids.
    assert len(set(pids)) == len(set(prefix_list))
    first_seen: list = []
    for token in token_list:
        if token not in first_seen:
            first_seen.append(token)
    assert [table.token(i) for i in range(table.token_count)] == first_seen


@given(st.lists(tokens(), min_size=1, max_size=20))
def test_symbol_table_edges_round_trip(token_list):
    table = SymbolTable()
    tids = [table.intern_token(token) for token in token_list]
    for parent, child in zip(tids, tids[1:]):
        from repro.interning import pack_edge

        eid = pack_edge(parent, child)
        assert unpack_edge(eid) == (parent, child)
        assert table.decode_edge(eid) == (
            table.token(parent),
            table.token(child),
        )


@given(
    st.lists(tokens(), max_size=20),
    st.lists(tokens(), max_size=20),
)
def test_remap_preserves_decoding(tokens_a, tokens_b):
    """A shard join must not change what any shard token id decodes to."""
    parent = SymbolTable()
    for token in tokens_a:
        parent.intern_token(token)
    shard = SymbolTable()
    for token in tokens_b:
        shard.intern_token(token)
    token_map = parent.remap_tokens(shard)
    assert len(token_map) == shard.token_count
    for old in range(shard.token_count):
        assert parent.token(token_map[old]) == shard.token(old)


@given(st.lists(prefixes(), max_size=20))
def test_prefix_ids_agree_across_tables(prefix_list):
    """Every table computes identical ids — the shard-join guarantee
    that lets refcount stores merge key-for-key with no prefix remap."""
    table_a = SymbolTable()
    table_b = SymbolTable()
    for prefix in prefix_list:
        pid = table_a.intern_prefix(prefix)
        assert table_b.intern_prefix(prefix) == pid
        assert table_b.prefix(pid) == table_a.prefix(pid) == prefix
