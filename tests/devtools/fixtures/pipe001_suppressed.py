"""PIPE001 violations carrying justified suppressions."""

from repro.pipeline.runtime import Stage

_SEEN = set()
_CACHE: dict = {}


class DedupStage(Stage):
    def process(self, item):
        # repro: allow[PIPE001] fixture: process-wide dedup is the point.
        if item in _SEEN:
            return None
        # repro: allow[PIPE001] fixture: process-wide dedup is the point.
        _SEEN.add(item)
        return (item,)


class CountStage(Stage):
    def process(self, item):
        # repro: allow[PIPE001] fixture: warm-cache only, never read back.
        _CACHE[item] = _CACHE.get(item, 0) + 1
        return (item,)
