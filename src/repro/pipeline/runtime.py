"""Staged pipeline runtime: bounded queues, explicit drop accounting.

The monitor is a chain of stages (ingest → window → annotate → sink)
connected by bounded queues. The runtime is deliberately cooperative
and single-threaded: :meth:`Pipeline.feed` enqueues into the first
stage and :meth:`Pipeline.pump` drains stages *downstream-first* until
quiescent. That ordering means an item admitted into the pipeline is
fully processed before the next one is admitted, so a run's output is
a pure function of its input order — the property the checkpoint layer
leans on for bit-identical resume. There is no concurrency inside or
between stages; the serve layer scales out by running one such pipeline
per monitor shard.

Backpressure is explicit rather than implicit: every queue has a
capacity, and when a stage's input queue is full the pipeline either
refuses new work (``policy="block"``, the default — the source must
retry, which in a paced replay simply means the replay falls behind)
or drops the newest item and charges it to that stage's drop counter
(``policy="drop"``). Nothing is ever silently lost: every admitted,
emitted, and dropped item is visible in :meth:`Pipeline.stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.collector.events import BGPEvent

#: Backpressure policies for a full input queue.
POLICIES = ("block", "drop")


@dataclass(frozen=True)
class Batch:
    """A contiguous run of events plus its position in the source.

    ``start_offset``/``end_offset`` are event indices into the source
    stream (end exclusive). The offsets ride along with the events so
    any stage — and most importantly the checkpoint layer — knows
    exactly how far into the source the pipeline has progressed
    without counting events itself.
    """

    events: tuple[BGPEvent, ...]
    start_offset: int
    end_offset: int

    def __post_init__(self) -> None:
        if self.end_offset - self.start_offset != len(self.events):
            raise ValueError(
                "batch offsets span "
                f"{self.end_offset - self.start_offset} events, "
                f"got {len(self.events)}"
            )

    def __len__(self) -> int:
        return len(self.events)


class Stage:
    """One processing step in the pipeline.

    Subclasses override :meth:`process`, returning an iterable of
    items for the next stage (or ``None`` to emit nothing — stages
    are free to buffer across calls). :meth:`flush` runs once at
    end-of-stream to surrender any buffered state downstream.

    Stages must keep all mutable state on ``self`` — never in module
    globals. A stage is checkpointed and rebuilt on resume; state that
    lives outside the instance silently survives the rebuild and
    breaks bit-identical replay. The PIPE001 lint rule enforces this.
    """

    #: Display name; defaults to the class name.
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def process(self, item: object) -> Optional[Iterable[object]]:
        raise NotImplementedError

    def flush(self) -> Optional[Iterable[object]]:
        return None


class FunctionStage(Stage):
    """Adapts a plain callable (item → iterable | None) to a Stage."""

    def __init__(
        self,
        func: Callable[[object], Optional[Iterable[object]]],
        name: str = "",
    ) -> None:
        self.name = name or getattr(func, "__name__", "function")
        super().__init__()
        self._func = func

    def process(self, item: object) -> Optional[Iterable[object]]:
        return self._func(item)


@dataclass
class StageStats:
    """Per-stage accounting, all monotonic within one run."""

    admitted: int = 0
    emitted: int = 0
    dropped: int = 0
    peak_depth: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "peak_depth": self.peak_depth,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "StageStats":
        return cls(
            admitted=int(data.get("admitted", 0)),
            emitted=int(data.get("emitted", 0)),
            dropped=int(data.get("dropped", 0)),
            peak_depth=int(data.get("peak_depth", 0)),
        )


@dataclass
class _Slot:
    stage: Stage
    queue: deque = field(default_factory=deque)
    stats: StageStats = field(default_factory=StageStats)


class Pipeline:
    """A chain of stages with bounded inter-stage queues.

    ``max_queue`` bounds each stage's input queue. The bound applies
    to *admission*: a stage emitting several items downstream may
    transiently overshoot the next queue's bound (dropping
    mid-pipeline items would violate the no-silent-loss contract);
    the overshoot is visible as ``peak_depth`` in the stats.

    Outputs of the final stage are collected into :attr:`outputs`;
    the caller (the monitor loop) drains them with :meth:`take`.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        max_queue: int = 64,
        policy: str = "block",
    ) -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self.max_queue = max_queue
        self.policy = policy
        self._slots = [_Slot(stage) for stage in stages]
        self.outputs: deque = deque()

    @property
    def stages(self) -> tuple[Stage, ...]:
        return tuple(slot.stage for slot in self._slots)

    def offer(self, item: object) -> bool:
        """Try to admit *item* into the first stage's queue.

        Returns ``False`` when the queue is full under the ``block``
        policy (caller should pump and retry). Under ``drop``, a full
        queue discards the *new* item, charges the first stage's drop
        counter, and returns ``True`` — the item is accounted for,
        just not processed.
        """
        slot = self._slots[0]
        if len(slot.queue) >= self.max_queue:
            if self.policy == "drop":
                slot.stats.dropped += 1
                return True
            return False
        self._enqueue(slot, item)
        return True

    def feed(self, item: object) -> None:
        """Admit *item*, pumping as needed under backpressure."""
        while not self.offer(item):
            if not self.pump_once():
                raise RuntimeError(
                    "pipeline stalled: queue full but no stage can run"
                )
        self.pump()

    def pump_once(self) -> bool:
        """Process one item from the most-downstream non-empty queue.

        Draining downstream-first keeps total queued work bounded and
        makes progress deterministic. Returns ``False`` when every
        queue is empty.
        """
        for index in range(len(self._slots) - 1, -1, -1):
            slot = self._slots[index]
            if slot.queue:
                item = slot.queue.popleft()
                produced = slot.stage.process(item)
                self._route(index, produced)
                return True
        return False

    def pump(self) -> int:
        """Drain every queue; returns the number of items processed."""
        processed = 0
        while self.pump_once():
            processed += 1
        return processed

    def flush(self) -> None:
        """Signal end-of-stream: drain, then flush each stage in order.

        Each stage's flush output flows through the stages below it
        before the next stage is flushed, so ordering matches what a
        continued stream would have produced.
        """
        self.pump()
        for index, slot in enumerate(self._slots):
            self._route(index, slot.stage.flush())
            self.pump()

    def take(self) -> list[object]:
        """Remove and return all collected final-stage outputs."""
        items = list(self.outputs)
        self.outputs.clear()
        return items

    def depth(self, stage_name: str) -> int:
        for slot in self._slots:
            if slot.stage.name == stage_name:
                return len(slot.queue)
        raise KeyError(stage_name)

    def depths(self) -> dict[str, int]:
        return {
            slot.stage.name: len(slot.queue) for slot in self._slots
        }

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            slot.stage.name: slot.stats.to_dict()
            for slot in self._slots
        }

    def restore_stats(self, stats: dict[str, dict[str, int]]) -> None:
        """Reload per-stage accounting from a checkpoint."""
        for slot in self._slots:
            if slot.stage.name in stats:
                slot.stats = StageStats.from_dict(
                    stats[slot.stage.name]
                )

    def _route(
        self, index: int, produced: Optional[Iterable[object]]
    ) -> None:
        if produced is None:
            return
        slot = self._slots[index]
        if index + 1 < len(self._slots):
            target = self._slots[index + 1]
            for item in produced:
                slot.stats.emitted += 1
                self._enqueue(target, item)
        else:
            for item in produced:
                slot.stats.emitted += 1
                self.outputs.append(item)

    def _enqueue(self, slot: _Slot, item: object) -> None:
        slot.queue.append(item)
        slot.stats.admitted += 1
        if len(slot.queue) > slot.stats.peak_depth:
            slot.stats.peak_depth = len(slot.queue)


def iter_batches(
    events: Iterable[BGPEvent],
    *,
    batch_size: int,
    start_offset: int = 0,
) -> Iterator[Batch]:
    """Chunk an event iterable into :class:`Batch` objects.

    Offsets continue from *start_offset* so a resumed source produces
    batches whose offsets line up with the original stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    buffer: list[BGPEvent] = []
    offset = start_offset
    for event in events:
        buffer.append(event)
        if len(buffer) >= batch_size:
            yield Batch(tuple(buffer), offset, offset + len(buffer))
            offset += len(buffer)
            buffer = []
    if buffer:
        yield Batch(tuple(buffer), offset, offset + len(buffer))
