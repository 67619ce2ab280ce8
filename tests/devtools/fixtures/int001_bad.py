"""INT001 violations: object-level state in TAMP hot paths."""

Prefix = object


class TampTree:
    def __init__(self):
        self._edges = {}

    def merge_id_view(self, prefixes, chain):
        column: set[Prefix] = set(prefixes)
        for parent, child in zip(chain, chain[1:]):
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
            self._edges[(parent, child)] = set(prefixes)
