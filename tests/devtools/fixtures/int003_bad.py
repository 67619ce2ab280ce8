"""INT003 violations: token-level values reaching hot functions."""

from repro.tamp.graph import merge_view

from repro.stemming.counter import add_ids


def direct_leak(table, store):
    tok = table.token(7)
    merge_view(store, tok)  # INT003: tok is token-level


def chained_leak(table, store):
    pair = _decode(table)
    merge_view(store, pair)  # INT003: taint through a return


def _decode(table):
    return table.decode_pair(3)


def indirect_leak(table, counts):
    tok = table.prefix(9)
    _push(counts, tok)  # INT003: _push's parameter reaches add_ids


def _push(counts, value):
    add_ids(counts, value)
