"""Streaming monitor runtime: the paper's system as a live service.

The batch CLI answers "what happened in this archive?"; this package
answers the question the paper's deployment actually faced — "what is
happening *right now*?" — by composing the existing pieces into a
long-running pipeline:

* :mod:`repro.pipeline.sources` — where events come from: archive
  replay (MRT or JSONL, optionally paced against the wall clock),
  simulator-driven synthetic feeds, quarantine replay, in-memory
  streams.
* :mod:`repro.pipeline.runtime` — the stage chain: each item runs
  depth-first through every stage, with per-stage accounting.
* :mod:`repro.pipeline.windows` — sliding-window Stemming and
  incremental TAMP annotation with bounded memory.
* :mod:`repro.pipeline.checkpoint` — periodic JSON snapshots plus the
  JSONL incident log; resume is bit-identical, verified by window
  fingerprints.
* :mod:`repro.pipeline.metrics` — counters/gauges/histograms with a
  JSON snapshot and a plain-text exposition.
* :mod:`repro.pipeline.monitor` — :class:`MonitorCore`, the one
  pump/drain/checkpoint body tying it together, and ``run_monitor``,
  the loop over it behind ``repro monitor``.
"""

from repro.pipeline.checkpoint import (
    CheckpointError,
    CheckpointState,
    CheckpointStore,
)
from repro.pipeline.metrics import MetricsRegistry
from repro.pipeline.monitor import (
    MonitorConfig,
    MonitorCore,
    MonitorResult,
    run_monitor,
)
from repro.pipeline.runtime import (
    Batch,
    Pipeline,
    Stage,
    iter_batches,
)
from repro.pipeline.sources import (
    FileSource,
    Pacer,
    QuarantineSource,
    ShardView,
    Source,
    StreamSource,
    SyntheticSource,
    shard_for_peer,
)
from repro.pipeline.windows import (
    TampAnnotator,
    WindowedStemmer,
    WindowReport,
)

__all__ = [
    "Batch",
    "CheckpointError",
    "CheckpointState",
    "CheckpointStore",
    "FileSource",
    "MetricsRegistry",
    "MonitorConfig",
    "MonitorCore",
    "MonitorResult",
    "Pacer",
    "Pipeline",
    "QuarantineSource",
    "ShardView",
    "Source",
    "Stage",
    "StreamSource",
    "SyntheticSource",
    "TampAnnotator",
    "WindowReport",
    "WindowedStemmer",
    "iter_batches",
    "run_monitor",
    "shard_for_peer",
]
