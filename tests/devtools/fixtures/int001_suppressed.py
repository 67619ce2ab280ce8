"""INT001 violations carrying justified suppressions."""

Prefix = object


class TampTree:
    def __init__(self):
        self._edges = {}

    def merge_id_view(self, prefixes, chain):
        # repro: allow[INT001] fixture: reference builder keeps the
        # object-set column on purpose.
        column: set[Prefix] = set(prefixes)
        for parent, child in zip(chain, chain[1:]):
            # repro: allow[INT001] fixture: token-tuple key preserved
            # for equivalence testing.
            edge = (parent, child)
            existing = self._edges.get(edge)
            if existing is None:
                self._edges[edge] = set(column)
            else:
                existing.update(column)


class TampGraph:
    def __init__(self):
        self._edges = {}
        self._total = None

    def _invalidate_cache(self):
        self._total = None

    def merge_id_view(self, tree):
        self._invalidate_cache()
        for parent, child, prefixes in tree:
            # repro: allow[INT001] fixture: reference merge stays on
            # token tuples.
            self._edges[(parent, child)] = set(prefixes)
