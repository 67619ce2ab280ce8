"""Cut delivery equals whole-batch delivery, and resumes like it.

``monitor_loop`` cuts each batch after every event that closes a
window, pumping and draining each part in turn, so a report leaves
before the rest of its batch is admitted. ``MonitorCore.feed`` — what
the serve layer's shards run — pumps whole batches. Over the same
events both must leave the same report dicts, ``incidents.jsonl``,
sqlite rows and checkpoint bytes (every checkpoint, ``stats``
included), and a run killed between two parts of one batch must
resume to the uninterrupted run's directory.
"""

import bisect
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.stream import EventStream
from repro.incidents.feed import load_incident_rows
from repro.pipeline import (
    CheckpointStore,
    MetricsRegistry,
    MonitorConfig,
    StreamSource,
    run_monitor,
)
from repro.pipeline.monitor import MonitorCore
from repro.pipeline.runtime import iter_batches
from repro.testkit import CrashPlan, InjectedCrash
from tests.pipeline.conftest import small_source
from tests.stemming.test_invariants import random_streams

#: Gaps between events, in seconds. 100 s is longer than any generated
#: window, so it drains the buffer and re-anchors the window ladder.
GAPS = st.sampled_from([0, 0, 1, 1, 1, 2, 3, 5, 100])


@st.composite
def gapped_streams(draw):
    """``random_streams`` events re-stamped with quiet gaps."""
    time = 0.0
    stamped = []
    for event in draw(random_streams().filter(bool)):
        time += draw(GAPS)
        stamped.append(replace(event, timestamp=time))
    return stamped


@st.composite
def runs(draw):
    """A stream and a config: a small slide makes a batch close two
    or more windows, a batch size of 1 cuts nothing."""
    window = draw(st.integers(2, 30))
    config = MonitorConfig(
        window=float(window),
        slide=float(draw(st.integers(1, window))),
        batch_size=draw(st.sampled_from([1, 2, 5, 16, 64])),
        min_strength=draw(st.integers(1, 2)),
        # Keep every checkpoint, so each one is compared.
        keep_checkpoints=10**6,
    )
    return draw(gapped_streams()), config


def source(events):
    return StreamSource(EventStream(events), label="cut")


def whole_batches(events, config, directory):
    """Feed whole batches, as a serve shard does; returns the reports."""
    core = MonitorCore(source(events), config, checkpoint_dir=directory)
    try:
        for batch in iter_batches(events, batch_size=config.batch_size):
            core.feed(batch)
        core.finish()
    finally:
        core.close()
    return CheckpointStore(directory).read_reports()


def left_behind(directory):
    """Every checkpoint's bytes, the incident log and the sqlite rows."""
    store = CheckpointStore(directory)
    return (
        {path.name: path.read_bytes() for path in store.checkpoints()},
        store.incident_log.read_bytes(),
        [record.to_dict() for record in load_incident_rows(directory)],
    )


class TestCutDelivery:
    @given(runs())
    @settings(max_examples=60, deadline=None)
    def test_cut_delivery_equals_whole_batches(self, run):
        events, config = run
        registry = MetricsRegistry()
        admitted = registry.counter("repro_pipeline_events_total")
        seen = []
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            cut = run_monitor(
                source(events),
                config,
                checkpoint_dir=root / "cut",
                registry=registry,
                on_report=lambda report: seen.append(admitted.value),
            )
            whole = whole_batches(events, config, root / "whole")
            assert cut.report_dicts == whole
            assert left_behind(root / "cut") == left_behind(root / "whole")
        # Each report saw its stream up to its closing event admitted.
        stamps = [event.timestamp for event in events]
        for report, count in zip(cut.reports, seen):
            closing = bisect.bisect_left(stamps, report.end)
            assert count == min(closing + 1, len(events))

    @given(runs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_killed_run_resumes_to_the_uninterrupted_one(
        self, run, data
    ):
        events, config = run
        after = data.draw(st.integers(1, len(events)), label="after")
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            run_monitor(source(events), config, checkpoint_dir=root / "a")
            with pytest.raises(InjectedCrash):
                run_monitor(
                    source(events),
                    config,
                    checkpoint_dir=root / "b",
                    crash_plan=CrashPlan(after_events=after),
                )
            run_monitor(
                source(events), config, checkpoint_dir=root / "b",
                resume=True,
            )
            assert left_behind(root / "b") == left_behind(root / "a")


class TestKillBetweenParts:
    def test_a_report_drained_before_its_checkpoint_is_replayed_once(
        self, tmp_path
    ):
        # Kill after the part that follows a closing event inside the
        # second batch: that report is in incidents.jsonl, the batch's
        # checkpoint is not written, and the resume must drop the line
        # and write it again exactly once.
        config = MonitorConfig(window=60.0, slide=15.0, batch_size=256)
        stamps = [event.timestamp for event in small_source().events()]
        uninterrupted = run_monitor(
            small_source(), config, checkpoint_dir=tmp_path / "a"
        )
        closing = min(
            index
            for index in (
                bisect.bisect_left(stamps, report.end)
                for report in uninterrupted.reports
            )
            if index >= config.batch_size
        )
        batch_start = closing - closing % config.batch_size
        assert closing + 1 < batch_start + config.batch_size
        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(),
                config,
                checkpoint_dir=tmp_path / "b",
                crash_plan=CrashPlan(after_events=closing + 2),
            )
        store = CheckpointStore(tmp_path / "b")
        latest = store.latest()
        assert latest.offset == batch_start
        logged = store.read_reports()
        assert len(logged) > latest.reports_emitted
        assert logged[-1]["end"] <= stamps[closing]
        resumed = run_monitor(
            small_source(), config, checkpoint_dir=tmp_path / "b",
            resume=True,
        )
        assert resumed.report_dicts == uninterrupted.report_dicts[
            latest.reports_emitted:
        ]
        assert left_behind(tmp_path / "b") == left_behind(tmp_path / "a")
        assert json.loads(
            store.checkpoints()[-1].read_text()
        )["stats"] == uninterrupted.stats
