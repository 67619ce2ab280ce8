"""PIPE001-clean stages: state on the instance, constants read-only."""

from repro.pipeline.runtime import Stage

_WINDOW = 300.0
_KINDS = ("announce", "withdraw")


class CountingStage(Stage):
    def __init__(self):
        super().__init__()
        self.seen = set()

    def process(self, item):
        if item in self.seen:
            return None
        self.seen.add(item)
        return (item,)


class TagStage(Stage):
    def process(self, item):
        return ((item, _WINDOW, _KINDS[0]),)


def plain_helper(items):
    # Not a stage: free functions may keep whatever state they like.
    cache = {}
    cache.update(enumerate(items))
    return cache
