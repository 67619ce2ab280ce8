"""End-to-end monitor tests, including the resume acceptance criterion.

The headline contract: ``repro monitor --resume`` from a mid-stream
checkpoint produces an incident list *bit-identical* — same window
fingerprints, same ranked stems, same TAMP annotations — to an
uninterrupted run over the same archive.
"""

import dataclasses
from collections import Counter

import pytest

from repro.pipeline import (
    CheckpointError,
    CheckpointStore,
    MetricsRegistry,
    MonitorConfig,
    SyntheticSource,
    run_monitor,
)
from repro.pipeline.monitor import MonitorCore
from repro.pipeline.runtime import iter_batches
from repro.stemming.stemmer import StemIndex
from repro.testkit import CrashPlan, InjectedCrash
from tests.pipeline.conftest import count_encodes, small_source


def crash_and_resume(config, checkpoint_dir, after_events):
    """Kill a monitor mid-run, then resume it; returns the final log."""
    with pytest.raises(InjectedCrash):
        run_monitor(
            small_source(),
            config,
            checkpoint_dir=checkpoint_dir,
            crash_plan=CrashPlan(after_events=after_events),
        )
    result = run_monitor(
        small_source(), config, checkpoint_dir=checkpoint_dir,
        resume=True,
    )
    return result, CheckpointStore(checkpoint_dir).read_reports()


class TestUninterrupted:
    def test_monitor_processes_the_whole_source(self, sliding_config):
        result = run_monitor(small_source(), sliding_config)
        assert result.stopped == "end"
        assert result.events == 1600
        assert result.offset == 1600
        assert len(result.reports) == 10
        assert result.stats["window"]["admitted"] > 0

    def test_reports_land_in_the_incident_log(
        self, sliding_config, tmp_path
    ):
        result = run_monitor(
            small_source(), sliding_config, checkpoint_dir=tmp_path
        )
        store = CheckpointStore(tmp_path)
        assert store.read_reports() == result.report_dicts
        assert result.checkpoints_written >= 1
        assert store.latest().offset == 1600


class TestEncodeOnce:
    """An event is serialised when it is admitted and never again."""

    def test_overlapping_windows_encode_each_event_once(
        self, monkeypatch
    ):
        source = small_source()
        events = list(source.events())
        encoded = count_encodes(monkeypatch)
        result = run_monitor(
            source,
            MonitorConfig(window=300.0, slide=30.0, batch_size=64),
        )
        assert len(result.reports) > 10
        assert sum(r.event_count for r in result.reports) > 5 * len(events)
        assert len(encoded) == len(events)
        assert all(a is b for a, b in zip(encoded, events))

    def test_a_checkpoint_encodes_only_the_routes_that_changed(
        self, monkeypatch, sliding_config, tmp_path
    ):
        source = small_source()
        events = list(source.events())
        encoded = count_encodes(monkeypatch)
        core = MonitorCore(source, sliding_config, checkpoint_dir=tmp_path)
        table: dict = {}
        changed: set = set()
        expected = 0
        for batch in iter_batches(events, batch_size=64):
            for event in batch.events:
                key = (event.peer, event.prefix)
                if event.is_withdrawal:
                    table.pop(key, None)
                    changed.discard(key)
                elif table.get(key) != event.attributes:
                    table[key] = event.attributes
                    changed.add(key)
            written = core.checkpoints_written
            core.feed(batch)
            if core.checkpoints_written > written:
                expected += len(changed)
                changed.clear()
        core.finish()
        core.close()
        expected += len(changed)
        assert core.checkpoints_written > 5
        admitted = {id(event) for event in events}
        routes = [e for e in encoded if id(e) not in admitted]
        assert len(encoded) - len(routes) == len(events)
        assert len(routes) == expected
        # Far fewer than re-encoding the table at each checkpoint.
        assert expected < core.checkpoints_written * len(table) / 2


class TestCountOnce:
    """An event is grouped and interned when it is admitted and when it
    is evicted — never once per window it sits in."""

    def test_overlapping_windows_group_each_event_at_most_twice(
        self, monkeypatch
    ):
        source = small_source()
        events = list(source.events())
        grouped: Counter = Counter()
        group = StemIndex._group_by_ids

        def counting(index, batch):
            batch = list(batch)
            grouped.update(map(id, batch))
            return group(index, batch)

        monkeypatch.setattr(StemIndex, "_group_by_ids", counting)
        result = run_monitor(
            source,
            MonitorConfig(window=300.0, slide=30.0, batch_size=64),
        )
        assert sum(r.event_count for r in result.reports) > 5 * len(events)
        assert set(grouped) == {id(event) for event in events}
        # (This stream never doubles the index's table, so no rebuild
        # regroups the buffer.)
        assert max(grouped.values()) == 2
        # Events still buffered at the end were never evicted.
        assert sum(grouped.values()) < 2 * len(events)


class TestResumeAcceptance:
    def test_resume_is_bit_identical_sliding(
        self, sliding_config, tmp_path
    ):
        baseline = run_monitor(small_source(), sliding_config)
        base = baseline.report_dicts

        _, resumed = crash_and_resume(
            sliding_config, tmp_path, after_events=800
        )

        assert resumed == base  # full bit-identity, tamp included
        assert [r["fingerprint"] for r in resumed] == [
            r["fingerprint"] for r in base
        ]
        assert [r["components"] for r in resumed] == [
            r["components"] for r in base
        ]

    def test_resume_before_first_checkpoint_replays_fresh(
        self, tumbling_config, tmp_path
    ):
        # checkpoint_every=3 with an early crash: no checkpoint exists
        # yet, so resume must fall back to a clean fresh start.
        baseline = run_monitor(small_source(), tumbling_config)
        _, resumed = crash_and_resume(
            tumbling_config, tmp_path, after_events=192
        )
        assert resumed == baseline.report_dicts

    def test_max_events_stop_is_resumable(self, sliding_config, tmp_path):
        baseline = run_monitor(small_source(), sliding_config)
        partial = run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, max_events=640),
            checkpoint_dir=tmp_path,
        )
        assert partial.stopped == "max_events"
        assert partial.offset == 640
        result = run_monitor(
            small_source(), sliding_config, checkpoint_dir=tmp_path,
            resume=True,
        )
        assert result.stopped == "end"
        log = CheckpointStore(tmp_path).read_reports()
        assert log == baseline.report_dicts

    def test_torn_log_tail_is_cut_not_parsed(
        self, sliding_config, tmp_path
    ):
        # A kill inside append_report leaves half a line behind; it is
        # past the checkpoint's reports_emitted, so the resume drops it
        # like any other report the replay will re-emit.
        whole = tmp_path / "whole"
        torn = tmp_path / "torn"
        baseline = run_monitor(
            small_source(), sliding_config, checkpoint_dir=whole
        )
        run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, max_events=640),
            checkpoint_dir=torn,
        )
        log = CheckpointStore(torn).incident_log
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"end": 12, "compon')
        resumed = run_monitor(
            small_source(), sliding_config, checkpoint_dir=torn,
            resume=True,
        )
        assert log.read_bytes() == (
            CheckpointStore(whole).incident_log.read_bytes()
        )
        kept = len(baseline.reports) - len(resumed.reports)
        assert kept > 0
        assert resumed.report_dicts == baseline.report_dicts[kept:]

    def test_operational_knobs_do_not_affect_bit_identity(
        self, sliding_config, tmp_path
    ):
        # Resuming with a different checkpoint cadence is legal — only
        # output-shaping config is pinned by the checkpoint.
        baseline = run_monitor(small_source(), sliding_config)
        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=tmp_path,
                crash_plan=CrashPlan(after_events=800),
            )
        retuned = dataclasses.replace(
            sliding_config, checkpoint_every=5, pace=0.0
        )
        run_monitor(
            small_source(), retuned, checkpoint_dir=tmp_path, resume=True
        )
        log = CheckpointStore(tmp_path).read_reports()
        assert log == baseline.report_dicts


class TestIncidentResumeAcceptance:
    """The incident-store extension of the bit-identity contract.

    With the store enabled, crash/resume must rebuild the exact same
    managed incidents — ids, lifecycle states, every timestamp — as an
    uninterrupted run, and the sqlite mirror must reconcile to the
    same rows however many times the monitor dies.
    """

    def store_rows(self, checkpoint_dir):
        from repro.incidents import INCIDENT_DB, IncidentStore

        with IncidentStore(checkpoint_dir / INCIDENT_DB) as store:
            return (
                [r.to_dict() for r in store.rows()],
                store.reports_applied(),
            )

    def test_crash_resume_is_bit_identical_for_incidents(
        self, sliding_config, tmp_path
    ):
        clean_dir = tmp_path / "clean"
        crash_dir = tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()

        baseline = run_monitor(
            small_source(), sliding_config, checkpoint_dir=clean_dir
        )
        resumed, _ = crash_and_resume(
            sliding_config, crash_dir, after_events=800
        )

        base_state = baseline.incidents.export_state()
        resumed_state = resumed.incidents.export_state()
        assert resumed_state == base_state  # ids, states, timestamps
        assert base_state["incidents"]  # the feed must produce some

        base_rows, base_applied = self.store_rows(clean_dir)
        crash_rows, crash_applied = self.store_rows(crash_dir)
        assert crash_rows == base_rows
        assert crash_applied == base_applied

    def test_incidents_resolve_at_end_of_stream(self, sliding_config):
        result = run_monitor(small_source(), sliding_config)
        records = result.incidents.all_incidents()
        assert records
        assert all(r.resolved for r in records)
        assert any(
            r.transitions[-1].reason == "end of stream" for r in records
        )

    def test_max_events_stop_leaves_incidents_live(
        self, sliding_config, tmp_path
    ):
        # A hard stop is not end-of-stream: finalize() must not run,
        # or the resumed run would diverge from the uninterrupted one.
        partial = run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, max_events=800),
            checkpoint_dir=tmp_path,
        )
        assert partial.stopped == "max_events"
        assert any(
            not r.resolved for r in partial.incidents.all_incidents()
        )

    def test_fresh_start_over_a_used_directory_starts_clean(
        self, sliding_config, tmp_path
    ):
        # Regression: a second non-resume run into the same directory
        # used to append its reports after the first run's, leaving a
        # log twice as long as its own checkpoint said.
        run_monitor(
            small_source(), sliding_config, checkpoint_dir=tmp_path
        )
        second = run_monitor(
            small_source(), sliding_config, checkpoint_dir=tmp_path
        )
        store = CheckpointStore(tmp_path)
        assert store.read_reports() == second.report_dicts
        assert (
            len(store.read_reports()) == store.latest().reports_emitted
        )
        rows, applied = self.store_rows(tmp_path)
        assert rows == [
            r.to_dict() for r in second.incidents.all_incidents()
        ]
        assert applied == store.latest().reports_emitted

    def test_stopped_run_over_a_used_directory_resumes_itself(
        self, tmp_path
    ):
        # Regression: the earlier run's checkpoints sit at higher
        # offsets, so pruning unlinked every checkpoint the second run
        # wrote and --resume restored the earlier run's end state.
        def source():
            return SyntheticSource(3000, 1800.0, seed=5)

        config = MonitorConfig(window=120.0, slide=60.0)
        clean, used = tmp_path / "clean", tmp_path / "used"
        run_monitor(source(), config, checkpoint_dir=clean)
        run_monitor(source(), config, checkpoint_dir=used)
        stopped = run_monitor(
            source(),
            dataclasses.replace(config, max_events=1024),
            checkpoint_dir=used,
        )
        store = CheckpointStore(used)
        assert stopped.checkpoints_written > 0
        assert store.latest().offset == stopped.offset == 1024
        resumed = run_monitor(
            source(), config, checkpoint_dir=used, resume=True
        )
        assert resumed.events == 3000 - 1024
        assert (
            store.incident_log.read_bytes()
            == CheckpointStore(clean).incident_log.read_bytes()
        )

    def test_double_crash_reconciles_the_store(
        self, sliding_config, tmp_path
    ):
        # Regression: rows written between the last checkpoint and a
        # crash must be reconciled away on *every* resume, including a
        # resume that itself crashes before the next checkpoint.
        clean_dir = tmp_path / "clean"
        crash_dir = tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()

        baseline = run_monitor(
            small_source(), sliding_config, checkpoint_dir=clean_dir
        )

        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=crash_dir,
                crash_plan=CrashPlan(after_events=500),
            )
        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=crash_dir,
                resume=True, crash_plan=CrashPlan(after_events=400),
            )
        result = run_monitor(
            small_source(), sliding_config, checkpoint_dir=crash_dir,
            resume=True,
        )

        base_rows, base_applied = self.store_rows(clean_dir)
        crash_rows, crash_applied = self.store_rows(crash_dir)
        assert len(crash_rows) == len(base_rows)  # no ghost rows
        assert crash_rows == base_rows
        assert crash_applied == base_applied
        assert (
            result.incidents.export_state()
            == baseline.incidents.export_state()
        )


class TestResumeRefusals:
    def test_resume_needs_a_checkpoint_dir(self, sliding_config):
        with pytest.raises(CheckpointError, match="checkpoint directory"):
            run_monitor(small_source(), sliding_config, resume=True)

    def test_log_shorter_than_the_checkpoint_refused(
        self, sliding_config, tmp_path
    ):
        run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, max_events=640),
            checkpoint_dir=tmp_path,
        )
        store = CheckpointStore(tmp_path)
        assert store.latest().reports_emitted > 0
        store.incident_log.write_text('{"end": 12, "compon')
        with pytest.raises(CheckpointError, match="incident log holds 0"):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_config_mismatch_refused(self, sliding_config, tmp_path):
        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=tmp_path,
                crash_plan=CrashPlan(after_events=800),
            )
        other = dataclasses.replace(sliding_config, window=200.0)
        with pytest.raises(CheckpointError, match="config mismatch"):
            run_monitor(
                small_source(), other, checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_source_mismatch_refused(self, sliding_config, tmp_path):
        with pytest.raises(InjectedCrash):
            run_monitor(
                small_source(), sliding_config, checkpoint_dir=tmp_path,
                crash_plan=CrashPlan(after_events=800),
            )
        from repro.pipeline import SyntheticSource

        other = SyntheticSource(1600, 600.0, seed=8, n_routes=400)
        with pytest.raises(CheckpointError, match="source mismatch"):
            run_monitor(
                other, sliding_config, checkpoint_dir=tmp_path,
                resume=True,
            )


class TestInstrumentation:
    def test_metrics_reflect_the_run(self, sliding_config):
        registry = MetricsRegistry()
        result = run_monitor(
            small_source(), sliding_config, registry=registry
        )
        snapshot = registry.snapshot()
        assert snapshot["repro_pipeline_events_total"] == result.events
        assert snapshot["repro_pipeline_windows_total"] == len(
            result.reports
        )
        assert snapshot["repro_pipeline_incidents_total"] == sum(
            len(r.result.components) for r in result.reports
        )
        lag = snapshot["repro_pipeline_window_lag_seconds"]
        assert lag["count"] == len(result.reports)
        assert lag["p99"] >= 0.0
        assert snapshot["repro_pipeline_events_per_second"] > 0

    @pytest.mark.parametrize("min_strength", [2, 10**6])
    def test_top_strength_is_the_last_windows_strongest_component(
        self, sliding_config, min_strength
    ):
        # At a strength no window reaches, the last window has no
        # component and the gauge reads 0.
        registry = MetricsRegistry()
        result = run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, min_strength=min_strength),
            registry=registry,
        )
        components = result.reports[-1].result.components
        assert bool(components) == (min_strength == 2)
        assert registry.snapshot()["repro_pipeline_top_strength"] == max(
            (c.strength for c in components), default=0
        )

    def test_index_sequences_follows_the_sliding_index(self, sliding_config):
        # Stopped mid-stream the stage still holds its index; a run
        # that ends flushes the last window and drops it.
        registry = MetricsRegistry()
        run_monitor(
            small_source(),
            dataclasses.replace(sliding_config, max_events=800),
            registry=registry,
        )
        snapshot = registry.snapshot()
        held = snapshot["repro_pipeline_index_sequences"]
        assert 0 < held <= snapshot["repro_pipeline_buffer_events"]
        registry = MetricsRegistry()
        run_monitor(small_source(), sliding_config, registry=registry)
        assert registry.snapshot()["repro_pipeline_index_sequences"] == 0

    def test_on_report_callback_sees_every_window(self, sliding_config):
        seen = []
        result = run_monitor(
            small_source(), sliding_config, on_report=seen.append
        )
        assert seen == result.reports


class TestStageStats:
    def test_checkpoint_stats_of_a_fixed_run(self, tmp_path):
        # Pinned to the values the queued runtime wrote for this run:
        # checkpoints keep the same bytes.
        config = MonitorConfig(window=120.0, slide=60.0, batch_size=64)
        result = run_monitor(
            SyntheticSource(8000, 3600.0, seed=31),
            config,
            checkpoint_dir=tmp_path,
        )
        expected = {
            "window": {
                "admitted": 125, "emitted": 244,
                "dropped": 0, "peak_depth": 1,
            },
            "tamp": {
                "admitted": 244, "emitted": 60,
                "dropped": 0, "peak_depth": 3,
            },
        }
        assert result.stats == expected
        assert CheckpointStore(tmp_path).latest().stats == expected
