"""Tests for the pipeline runtime: depth-first order, flush, stats."""

import pytest

from repro.pipeline.runtime import (
    Batch,
    Pipeline,
    Stage,
    StageStats,
    iter_batches,
)
from tests.stemming.test_stemmer import spike


class Doubler(Stage):
    """Emits every item twice — exercises fan-out accounting."""

    def process(self, item):
        return (item, item)


class Splitter(Stage):
    """Emits two tagged copies of every item, logging each call."""

    def __init__(self, name, log):
        self.name = name
        super().__init__()
        self.log = log

    def process(self, item):
        self.log.append((self.name, item))
        return (item + "1", item + "2")


class Holdback(Stage):
    """Passes items on one call late; the last waits for flush."""

    def __init__(self):
        super().__init__()
        self.held = []

    def process(self, item):
        out, self.held = self.held, [item]
        return out

    def flush(self):
        out, self.held = self.held, []
        return out


class Collector(Stage):
    """Buffers everything; surrenders the buffer at flush."""

    def __init__(self):
        super().__init__()
        self.items = []

    def process(self, item):
        self.items.append(item)
        return None

    def flush(self):
        out = list(self.items)
        self.items.clear()
        return out


class TestBatch:
    def test_offsets_must_span_the_events(self):
        events = tuple(spike("100 200", 3))
        with pytest.raises(ValueError, match="offsets span"):
            Batch(events, 0, 5)

    def test_len(self):
        events = tuple(spike("100 200", 3))
        assert len(Batch(events, 10, 13)) == 3


class TestIterBatches:
    def test_chunks_with_continuing_offsets(self):
        events = spike("100 200", 10)
        batches = list(iter_batches(events, batch_size=4, start_offset=6))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [(b.start_offset, b.end_offset) for b in batches] == [
            (6, 10), (10, 14), (14, 16),
        ]
        assert [e for b in batches for e in b.events] == events

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(iter_batches([], batch_size=0))


class TestConstruction:
    def test_needs_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_rejects_duplicate_stage_names(self):
        with pytest.raises(ValueError, match="unique"):
            Pipeline([Doubler(), Doubler()])

    def test_queue_keywords_are_accepted_and_unused(self):
        pipe = Pipeline([Doubler()], max_queue=1, policy="drop")
        for i in range(3):
            pipe.feed(i)
        assert pipe.take() == [0, 0, 1, 1, 2, 2]


class TestPumping:
    def test_downstream_first_drains_before_admitting_more(self):
        pipe = Pipeline([Doubler(), Collector()])
        pipe.feed("a")
        assert pipe.stages[1].items == ["a", "a"]
        pipe.feed("b")
        assert pipe.stages[1].items == ["a", "a", "b", "b"]

    def test_outputs_run_depth_first(self):
        log = []

        class Recorder(Stage):
            def process(self, item):
                log.append(("end", item))
                return (item,)

        pipe = Pipeline([Splitter("s1", log), Splitter("s2", log),
                         Recorder()])
        pipe.feed("a")
        assert log == [
            ("s1", "a"),
            ("s2", "a1"), ("end", "a11"), ("end", "a12"),
            ("s2", "a2"), ("end", "a21"), ("end", "a22"),
        ]
        assert pipe.take() == ["a11", "a12", "a21", "a22"]

    def test_flush_routes_buffered_state_downstream(self):
        pipe = Pipeline([Collector(), Doubler()])
        pipe.feed(1)
        pipe.feed(2)
        assert pipe.take() == []  # Collector is hoarding
        pipe.flush()
        assert pipe.take() == [1, 1, 2, 2]

    def test_flush_runs_each_stage_through_the_rest_in_order(self):
        pipe = Pipeline([Collector(), Holdback(), Doubler()])
        for i in range(3):
            pipe.feed(i)
        assert pipe.take() == []
        pipe.flush()
        # The collector's items pass the holdback before it flushes 2.
        assert pipe.take() == [0, 0, 1, 1, 2, 2]

    def test_take_drains_outputs(self):
        pipe = Pipeline([Doubler()])
        pipe.feed(9)
        assert pipe.take() == [9, 9]
        assert pipe.take() == []


class TestStats:
    def test_admitted_emitted_and_peak_depth(self):
        pipe = Pipeline([Doubler(), Collector()])
        for i in range(3):
            pipe.feed(i)
        assert pipe.stats() == {
            "Doubler": {
                "admitted": 3, "emitted": 6, "dropped": 0, "peak_depth": 1,
            },
            "Collector": {
                "admitted": 6, "emitted": 0, "dropped": 0, "peak_depth": 2,
            },
        }

    def test_fan_out_chain_with_a_flushing_stage(self):
        log = []
        pipe = Pipeline([
            Doubler(), Collector(), Splitter("split", log), Holdback(),
        ])
        for item in ("a", "b", "c"):
            pipe.feed(item)
        pipe.flush()
        assert len(pipe.take()) == 12
        assert pipe.stats() == {
            "Doubler": {
                "admitted": 3, "emitted": 6, "dropped": 0, "peak_depth": 1,
            },
            "Collector": {
                "admitted": 6, "emitted": 6, "dropped": 0, "peak_depth": 2,
            },
            "split": {
                "admitted": 6, "emitted": 12, "dropped": 0, "peak_depth": 6,
            },
            "Holdback": {
                "admitted": 12, "emitted": 12, "dropped": 0,
                "peak_depth": 2,
            },
        }

    def test_stats_round_trip_through_restore(self):
        pipe = Pipeline([Doubler()])
        pipe.feed(1)
        saved = pipe.stats()
        fresh = Pipeline([Doubler()])
        fresh.restore_stats(saved)
        assert fresh.stats() == saved

    def test_stage_stats_dict_round_trip(self):
        stats = StageStats(admitted=4, emitted=8, dropped=1, peak_depth=3)
        assert StageStats.from_dict(stats.to_dict()) == stats
