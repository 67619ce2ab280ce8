"""Pipeline runtime: a chain of stages, run depth-first.

The monitor is a chain of stages (window → annotate). The runtime is
single-threaded: :meth:`Pipeline.feed` hands an item to the first
stage, and every item a stage returns goes straight on to the next.
An item is fully processed before the next one is admitted, so a
run's output is a pure function of its input order — the property
the checkpoint layer leans on for bit-identical resume. There is no
concurrency inside or between stages; the serve layer scales out by
running one such pipeline per monitor shard.

Nothing waits in a queue and nothing is dropped. A paced replay that
cannot keep up simply runs late, which shows as window lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.collector.events import BGPEvent


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


@dataclass
class StageStats:
    """Per-stage accounting, all monotonic within one run.

    Counted in events and reports, not calls or items: a
    :class:`Batch` counts its events, any other item counts one.
    """

    admitted: int = 0
    emitted: int = 0
    dropped: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "emitted": self.emitted,
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "StageStats":
        # A checkpoint written before the counts were in events carries
        # a ``peak_depth`` too; its counters continue in the new units.
        return cls(
            admitted=int(data.get("admitted", 0)),
            emitted=int(data.get("emitted", 0)),
            dropped=int(data.get("dropped", 0)),
        )


def _weight(items: tuple[object, ...]) -> int:
    """The events and reports *items* carry; see :class:`StageStats`."""
    return sum(
        len(item) if isinstance(item, Batch) else 1 for item in items
    )


class Pipeline:
    """A chain of stages, run depth-first.

    Each item a stage returns goes straight into the next stage's
    :meth:`Stage.process`; the final stage's items collect in
    :attr:`outputs`, which the caller (the monitor loop) drains with
    :meth:`take`. A stage's items are gathered before the first is
    passed on, so each reaches the stages below in the order emitted.

    The per-stage :class:`StageStats` are persisted in checkpoints.
    They count events and reports, so a stream fed in whole batches
    and the same stream cut into parts count the same; ``dropped`` is
    always 0 (the chain never drops).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        # Accepted and unused: bench/monitor.py, frozen outside
        # benchmark PRs, passes both. The chain holds no queue.
        max_queue: int = 64,
        policy: str = "block",
    ) -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self.stages = tuple(stages)
        self._stats = [StageStats() for _ in stages]
        self.outputs: list[object] = []

    def feed(self, item: object) -> None:
        """Run *item* through every stage."""
        self._deliver(0, (item,))

    def flush(self) -> None:
        """Signal end-of-stream: flush each stage in order.

        Each stage's flush output flows through the stages below it
        before the next stage is flushed, so ordering matches what a
        continued stream would have produced.
        """
        for index, stage in enumerate(self.stages):
            self._emit(index, stage.flush())

    def take(self) -> list[object]:
        """Remove and return all collected final-stage outputs."""
        items, self.outputs = self.outputs, []
        return items

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            stage.name: stats.to_dict()
            for stage, stats in zip(self.stages, self._stats)
        }

    def restore_stats(self, stats: dict[str, dict[str, int]]) -> None:
        """Reload per-stage accounting from a checkpoint."""
        for index, stage in enumerate(self.stages):
            if stage.name in stats:
                self._stats[index] = StageStats.from_dict(stats[stage.name])

    def _deliver(self, index: int, items: tuple[object, ...]) -> None:
        self._stats[index].admitted += _weight(items)
        stage = self.stages[index]
        for item in items:
            self._emit(index, stage.process(item))

    def _emit(
        self, index: int, produced: Optional[Iterable[object]]
    ) -> None:
        if produced is None:
            return
        items = tuple(produced)
        self._stats[index].emitted += _weight(items)
        if index + 1 < len(self.stages):
            self._deliver(index + 1, items)
        else:
            self.outputs.extend(items)


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
