"""The rule catalog. Importing this package registers every checker.

Rule families map to the invariants the repo actually depends on:

* :mod:`repro.devtools.rules.determinism` — DET001 (unseeded entropy
  and wall-clock reads in algorithm modules), DET002 (unordered
  iteration feeding ordered output), DET003 (``id()``-based keys or
  ordering);
* :mod:`repro.devtools.rules.mutation` — MUT001 (mutable default
  arguments);
* :mod:`repro.devtools.rules.cache` — CACHE001 (``TampGraph`` mutators
  must invalidate the prefix-count cache);
* :mod:`repro.devtools.rules.pipeline` — PIPE001 (pipeline stages
  must not reference module-global mutable state);
* :mod:`repro.devtools.rules.incidents` — INC001 (incident status
  changes must go through the lifecycle state-machine API, never
  direct field/column writes);
* :mod:`repro.devtools.rules.serve` — SRV001 (serve-layer HTTP
  handlers must read through the snapshot surface, never the
  ``live_``-prefixed pipeline state the sharding layer owns);
* :mod:`repro.devtools.rules.interning` — INT001 (TAMP hot paths must
  keep edge stores on packed int ids, not object sets/token tuples),
  INT002 (no decode calls inside id-space hot functions).
"""

from __future__ import annotations

from repro.devtools.rules import (
    cache,
    determinism,
    incidents,
    interning,
    mutation,
    pipeline,
    serve,
)

__all__ = [
    "cache",
    "determinism",
    "incidents",
    "interning",
    "mutation",
    "pipeline",
    "serve",
]
