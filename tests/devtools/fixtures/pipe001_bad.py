"""PIPE001 violations: stages leaning on module-global mutable state."""

from collections import deque

from repro.pipeline.runtime import Stage

_SEEN = set()
_CACHE: dict = {}
_RECENT = deque(maxlen=100)


class DedupStage(Stage):
    def process(self, item):
        global _CACHE
        if item in _SEEN:
            return None
        _SEEN.add(item)
        return (item,)


class CountStage(Stage):
    def process(self, item):
        _RECENT.append(item)
        return (item,)
