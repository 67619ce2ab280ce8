"""INT001 known-good: hot paths stay on packed ids; tuple keys and
object prefix sets are fine outside the hot functions."""

EDGE_SHIFT = 32

Prefix = object


class TampTree:
    def __init__(self):
        self._edges = {}

    def merge_id_view(self, pids, chain_ids):
        for parent, child in zip(chain_ids, chain_ids[1:]):
            eid = (parent << EDGE_SHIFT) | child
            column = self._edges.get(eid)
            if column is None:
                self._edges[eid] = set(pids)
            else:
                column.update(pids)

    def decode_prefixes(self, symbols, eid):
        # Decode-boundary query: object sets are expected here.
        decoded: set[Prefix] = {
            symbols.prefix(pid) for pid in self._edges[eid]
        }
        return decoded


class TampGraph:
    def __init__(self):
        self._edges = {}
        self._total = None

    def _invalidate_cache(self):
        self._total = None

    def merge_id_view(self, tree):
        self._invalidate_cache()
        for eid, column in tree.raw_columns():
            store = self._edges.get(eid)
            if store is None:
                self._edges[eid] = dict.fromkeys(column, 1)
            else:
                for pid in column:
                    store[pid] = store.get(pid, 0) + 1

    def weight(self, parent, child):
        # Token-tuple lookups outside the hot list stay legal.
        return len(self._edges.get((parent, child), ()))
