"""Batch-build plumbing for the hot paths.

One thing lives here: :func:`gc_paused`, the guard that keeps the
cyclic collector from repeatedly scanning a multi-gigabyte live heap
while a picture or Stemming-index build allocates millions of acyclic
containers.
"""

from repro.perf.gcguard import gc_paused

__all__ = ["gc_paused"]
