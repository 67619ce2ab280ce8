"""Pause the cyclic GC across large batch builds.

A batch picture or Stemming-index build allocates hundreds of thousands of
long-lived container objects while a multi-gigabyte input (the REX
tables) is already live. Every generational collection the allocation
spikes trigger walks that entire heap; at the 1.5M-route Table I(b)
scale the collector alone adds seconds to a build that creates no
reference cycles at all (interned int keys, tuples, flat dicts).

:func:`gc_paused` disables collection for the duration and restores
the caller's setting on the way out — including on error — so cycles
created elsewhere are still reclaimed by the next normal collection.
Nesting is safe: inner guards see collection already disabled and
leave it that way.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable cyclic GC for the duration, restoring the prior state."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
