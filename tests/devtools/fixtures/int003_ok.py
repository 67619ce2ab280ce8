"""INT003-clean: ids stay ids on the hot path; tokens stay cold."""

from repro.tamp.graph import merge_view

from repro.stemming.counter import add_ids


def hot_on_ids(store, ids):
    # Parameters are id-level unless something decodes them.
    merge_view(store, ids)


def decode_after_the_hot_call(table, store, ids):
    add_ids(store, ids)
    # Decoding for presentation, after the hot path, is the design.
    return [table.token(i) for i in ids]


def tokens_for_rendering_only(table, ids):
    labels = [table.prefix(i) for i in ids]
    return ", ".join(labels)
