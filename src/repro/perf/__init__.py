"""Shared parallel-execution plumbing for the hot paths.

The TAMP paths that have to survive million-route tables — the picture
build and the animation's SVG keyframe tracks — shard their work
across a ``multiprocessing`` pool through this package. It centralizes
the three decisions every parallel hot path otherwise reinvents badly:

* **How many workers?** :func:`resolve_workers` merges the explicit
  request (``--workers`` / constructor argument), the ``REPRO_WORKERS``
  environment variable, and the machine's usable CPU count.
* **Is parallelism worth it here?** :func:`effective_workers` adds the
  serial-fallback policy: small inputs, single-CPU hosts and platforms
  without ``fork`` all run serially — the sharded algorithms are written
  so that the serial path is the exact same code as one shard.
* **Pool lifecycle.** :func:`map_shards` owns pool creation and teardown
  so callers never leak worker processes.

It also hosts :func:`gc_paused`, the batch-build guard that keeps the
cyclic collector from repeatedly scanning a multi-gigabyte live heap
while a build allocates millions of acyclic containers.
"""

from repro.perf.chunking import partition
from repro.perf.config import (
    DEFAULT_MIN_PARALLEL_UNITS,
    ENV_FORCE_WORKERS,
    ENV_WORKERS,
    effective_workers,
    fork_available,
    resolve_workers,
    usable_cpus,
)
from repro.perf.gcguard import gc_paused
from repro.perf.pool import map_shards

__all__ = [
    "DEFAULT_MIN_PARALLEL_UNITS",
    "ENV_FORCE_WORKERS",
    "ENV_WORKERS",
    "effective_workers",
    "fork_available",
    "gc_paused",
    "map_shards",
    "partition",
    "resolve_workers",
    "usable_cpus",
]
