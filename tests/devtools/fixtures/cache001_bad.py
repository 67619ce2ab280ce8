"""CACHE001 violation: a TampGraph mutator that skips the hook."""


class TampGraph:
    def __init__(self):
        self._edges = {}
        self._children = {}
        self._parents = {}
        self._fringe = {}
        self._total = None

    def _invalidate_cache(self):
        self._total = None

    def add_edge(self, edge, prefixes):
        self._edges[edge] = prefixes

    def drop_edge(self, edge):
        self._edges.pop(edge, None)

    def drop_leaf(self, tail):
        del self._fringe[tail]

    def weight(self, edge):
        return len(self._edges.get(edge, ()))
