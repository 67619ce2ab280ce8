"""Fault-injection testkit: break the data so the pipeline can't lie.

The analyses consume event streams from a passive monitor that, in
production, faces truncated MRT archives, malformed UPDATEs, session
resets and out-of-order feeds. This package manufactures those
conditions deterministically:

* :mod:`repro.testkit.faults` — composable, seeded fault injectors
  over byte streams (truncate, bit-flip), MRT record lists (corrupt /
  duplicate / drop / reorder / flip attribute bytes) and event streams
  (drop / duplicate / timestamp jitter / stall-then-burst), plus the
  fault registry behind the ``repro faults`` CLI.
* :mod:`repro.testkit.corpus` — the golden malformed-MRT fixture
  corpus: one clean archive plus one deterministic variant per fault
  class, regenerable bit-for-bit from a pinned seed.

Everything here takes an explicit ``seed`` and derives all entropy
from it, so the chaos suite's failures always replay; the replay tests
in ``tests/testkit`` pin that per registered fault.
"""

from repro.testkit.faults import (
    FAULTS,
    Fault,
    apply_plan_to_bytes,
    apply_plan_to_stream,
    corrupt_file,
    fault_names,
    parse_fault_spec,
)
from repro.testkit.corpus import (
    GOLDEN_SEED,
    build_clean_records,
    corpus_manifest,
    generate_corpus,
)
from repro.testkit.crash import CrashPlan, InjectedCrash

__all__ = [
    "FAULTS",
    "CrashPlan",
    "Fault",
    "InjectedCrash",
    "apply_plan_to_bytes",
    "apply_plan_to_stream",
    "corrupt_file",
    "fault_names",
    "parse_fault_spec",
    "GOLDEN_SEED",
    "build_clean_records",
    "corpus_manifest",
    "generate_corpus",
]
