"""INT003 violations silenced by justified suppressions."""

from repro.tamp.graph import merge_view


def migration_shim(table, store):
    tok = table.token(7)
    # repro: allow[INT003] legacy store still keyed by tokens; removed
    # with the v1 archive format.
    merge_view(store, tok)


def inline_style(table, store):
    pair = table.decode_pair(3)
    merge_view(store, pair)  # repro: allow[INT003] golden-file shim
