"""Tests for the windowed Stemming stage and the TAMP annotator."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.events import EventKind
from repro.collector.stream import fingerprint_events
from repro.pipeline.runtime import Batch, Pipeline, iter_batches
from repro.pipeline.windows import (
    TampAnnotator,
    WindowedStemmer,
    WindowReport,
    WindowState,
)
from repro.stemming.stemmer import Stemmer
from tests.stemming.test_stemmer import mk_event, spike


def run_stage(stage, events, batch_size=16):
    """Feed *events* through *stage* alone; returns the WindowReports."""
    out = []
    for batch in iter_batches(events, batch_size=batch_size):
        out.extend(stage.process(batch) or [])
    out.extend(stage.flush() or [])
    return [item for item in out if isinstance(item, WindowReport)]


def ramp(count, spacing=10.0, start=0.0):
    """Events evenly spaced in time, one prefix each."""
    return [
        mk_event(
            start + i * spacing, "1.1.1.1", "2.2.2.2",
            f"100 200 {300 + i}", f"10.{i >> 8}.{i & 0xFF}.0/24",
        )
        for i in range(count)
    ]


def evictions_then_a_gap():
    """Sliding-window input that evicts at each close, then goes quiet
    long enough to empty the buffer and re-anchor the ladder on event
    70. Returns (events, number of events before the gap)."""
    early = ramp(40) + spike("100 200 300", 30, start_prefix=100)
    early.sort(key=lambda e: e.timestamp)
    return early + ramp(30, start=5000.0), len(early)


def batch_report(events, report):
    """What *report* must equal: batch Stemming over its window."""
    inside = [e for e in events if report.start <= e.timestamp < report.end]
    return WindowReport(
        index=report.index,
        start=report.start,
        end=report.end,
        event_count=len(inside),
        fingerprint=fingerprint_events(inside),
        result=Stemmer().decompose(inside),
    )


def announces(count):
    """Announcements (not withdrawals) — these mutate the TAMP graph."""
    return [
        mk_event(
            float(i), "1.1.1.1", "2.2.2.2",
            f"100 200 {300 + i}", f"10.0.{i}.0/24",
            EventKind.ANNOUNCE,
        )
        for i in range(count)
    ]


class TestValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            WindowedStemmer(0)

    def test_slide_bounded_by_window(self):
        with pytest.raises(ValueError, match="slide"):
            WindowedStemmer(100.0, 200.0)
        with pytest.raises(ValueError, match="slide"):
            WindowedStemmer(100.0, 0.0)

    def test_non_batch_input_rejected(self):
        with pytest.raises(TypeError, match="expects Batch"):
            WindowedStemmer(100.0).process("nope")


class TestTumbling:
    def test_windows_anchor_on_the_first_timestamp(self):
        events = ramp(30, spacing=10.0, start=55.0)
        stage = WindowedStemmer(100.0)
        reports = run_stage(stage, events)
        assert [r.start for r in reports] == [55.0, 155.0, 255.0]
        assert [r.end for r in reports] == [155.0, 255.0, 355.0]
        assert [r.index for r in reports] == [0, 1, 2]

    def test_fingerprints_match_the_window_slices(self):
        events = ramp(30, spacing=10.0)
        reports = run_stage(WindowedStemmer(100.0), events)
        assert len(reports) == 3
        for i, report in enumerate(reports):
            expected = [
                e for e in events
                if report.start <= e.timestamp < report.end
            ]
            assert report.event_count == len(expected)
            assert report.fingerprint == fingerprint_events(expected)

    def test_event_counts_cover_the_stream_exactly_once(self):
        events = ramp(30, spacing=10.0)
        reports = run_stage(WindowedStemmer(100.0), events)
        assert sum(r.event_count for r in reports) == len(events)


class TestSliding:
    def test_overlapping_windows_advance_by_slide(self):
        events = ramp(30, spacing=10.0)
        reports = run_stage(WindowedStemmer(100.0, 50.0), events)
        starts = [r.start for r in reports]
        assert starts == sorted(starts)
        assert all(
            b - a == pytest.approx(50.0)
            for a, b in zip(starts, starts[1:])
        )
        # Each full window holds window/spacing = 10 events.
        assert reports[1].event_count == 10

    def test_eviction_bounds_the_buffer(self):
        stage = WindowedStemmer(100.0, 50.0)
        run_stage(stage, ramp(200, spacing=10.0))
        # After the final flush the buffer is surrendered entirely;
        # mid-run it never exceeds one window of events.
        stage2 = WindowedStemmer(100.0, 50.0)
        for batch in iter_batches(ramp(200, spacing=10.0), batch_size=16):
            stage2.process(batch)
            assert stage2.buffered <= 100.0 / 10.0 + 16

    def test_detects_the_planted_spike(self):
        quiet = [
            mk_event(
                i * 5.0, "9.9.9.9", "8.8.8.8",
                f"900 800 {700 + i}", f"172.16.{i}.0/24",
            )
            for i in range(10)
        ]
        burst = spike("100 200 300", 30, start_prefix=0)
        events = sorted(quiet + burst, key=lambda e: e.timestamp)
        reports = run_stage(WindowedStemmer(60.0), events)
        top = [
            s for r in reports for s in r.ranked_stems()
            if s["stem"] == "AS200--AS300"
        ]
        assert top and max(s["strength"] for s in top) >= 30


class TestGaps:
    def test_quiet_gap_emits_no_empty_windows(self):
        early = ramp(10, spacing=10.0, start=0.0)
        late = ramp(10, spacing=10.0, start=100000.0)
        reports = run_stage(WindowedStemmer(100.0), early + late)
        assert all(r.event_count > 0 for r in reports)
        # The ladder re-anchors on the event ending the gap.
        assert reports[-1].start == 100000.0


class TestOrderingContract:
    def test_events_reach_downstream_before_their_window_report(self):
        events = ramp(30, spacing=10.0)
        stage = WindowedStemmer(100.0)
        seen_events = 0
        for batch in iter_batches(events, batch_size=16):
            for item in stage.process(batch) or []:
                if isinstance(item, Batch):
                    seen_events += len(item)
                else:
                    # Every event at or before this boundary has
                    # already been passed through.
                    expected = sum(
                        1 for e in events if e.timestamp < item.end
                    )
                    assert seen_events >= expected

    def test_pass_through_batches_preserve_offsets(self):
        events = ramp(20, spacing=10.0)
        stage = WindowedStemmer(1000.0)
        batches = []
        for batch in iter_batches(events, batch_size=8):
            batches.extend(
                item for item in stage.process(batch) or []
                if isinstance(item, Batch)
            )
        assert [b.start_offset for b in batches] == [0, 8, 16]
        assert [e for b in batches for e in b.events] == events


class TestParts:
    def test_a_batch_is_cut_after_each_closing_event(self):
        # Event 70 (t=5000) closes the windows ending at 400 and 450
        # and drains the buffer; the ladder re-anchors on it, so the
        # next cut is at t=5100, not at a boundary of the old ladder.
        events, gap = evictions_then_a_gap()
        stage = WindowedStemmer(100.0, 50.0)
        ends, closed = [], []
        for part in stage.parts(Batch(tuple(events), 0, len(events))):
            out = stage.process(part)
            ends.append(part.end_offset)
            closed.append([
                item.end for item in out if isinstance(item, WindowReport)
            ])
            if closed[-1]:
                # The closing event is the part's last, passed on alone
                # after the report.
                assert out[-1] == Batch(part.events[-1:], ends[-1] - 1,
                                        ends[-1])
        assert ends == [41, 46, 51, 56, 61, 66, gap + 1, 81, 86, 91, 96,
                        100]
        at_gap = ends.index(gap + 1)
        assert closed[at_gap] == [400.0, 450.0]
        assert closed[at_gap + 1] == [5100.0]
        assert closed[-1] == []

    @pytest.mark.parametrize("batch_size", [1, 5, 16, 100])
    def test_parts_in_turn_report_as_the_whole_batch_does(
        self, batch_size
    ):
        events, _ = evictions_then_a_gap()
        whole = run_stage(
            WindowedStemmer(100.0, 30.0), events, batch_size=batch_size
        )
        stage = WindowedStemmer(100.0, 30.0)
        cut = []
        for batch in iter_batches(events, batch_size=batch_size):
            offset = batch.start_offset
            for part in stage.parts(batch):
                assert part.start_offset == offset
                offset = part.end_offset
                cut.extend(stage.process(part) or [])
            assert offset == batch.end_offset
        cut.extend(stage.flush() or [])
        reports = [item for item in cut if isinstance(item, WindowReport)]
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in whole
        ]

    def test_a_batch_that_closes_nothing_is_one_part(self):
        events = ramp(10)
        stage = WindowedStemmer(1000.0)
        batch = Batch(tuple(events), 0, 10)
        assert list(stage.parts(batch)) == [batch]


class TestCheckpointing:
    def test_state_round_trip_resumes_bit_identically(self):
        events = ramp(60, spacing=10.0) + spike(
            "100 200 300", 40, start_prefix=100
        )
        events.sort(key=lambda e: e.timestamp)
        baseline = run_stage(WindowedStemmer(100.0, 50.0), events)

        stage = WindowedStemmer(100.0, 50.0)
        reports = []
        split = 40
        for batch in iter_batches(events[:split], batch_size=16):
            reports.extend(
                item for item in stage.process(batch) or []
                if isinstance(item, WindowReport)
            )
        state = stage.export_state()

        resumed = WindowedStemmer(100.0, 50.0)
        resumed.restore_state(WindowState.from_dict(state.to_dict()))
        assert resumed.buffered == stage.buffered
        for batch in iter_batches(
            events[split:], batch_size=16, start_offset=split
        ):
            reports.extend(
                item for item in resumed.process(batch) or []
                if isinstance(item, WindowReport)
            )
        reports.extend(
            item for item in resumed.flush() or []
            if isinstance(item, WindowReport)
        )
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in baseline
        ]

    @pytest.mark.parametrize("split", [0, 7, 64, 70, 71, 95])
    def test_reports_equal_batch_decompose_across_a_restore(self, split):
        # Sliding windows (every event sits in two) that evict at each
        # close, then a quiet gap that empties the buffer and re-anchors
        # the ladder on event 70. The buffer is all the stage keeps, so
        # wherever it is stopped, exported and restored into a fresh
        # stage, each report is batch Stemming over that window's events.
        events, before_gap = evictions_then_a_gap()
        stage = WindowedStemmer(100.0, 50.0)
        out = []
        for batch in iter_batches(events[:split], batch_size=16):
            out.extend(stage.process(batch))
        state = stage.export_state().to_dict()
        stage = WindowedStemmer(100.0, 50.0)
        stage.restore_state(WindowState.from_dict(state))
        for batch in iter_batches(
            events[split:], batch_size=16, start_offset=split
        ):
            out.extend(stage.process(batch))
        out.extend(stage.flush())
        reports = [item for item in out if isinstance(item, WindowReport)]
        assert 5000.0 in [r.start for r in reports]
        assert max(r.event_count for r in reports) < before_gap
        assert all(r.result.components for r in reports)
        assert [r.index for r in reports] == list(range(len(reports)))
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    def test_exported_buffer_is_the_current_windows_lines(self):
        # Whatever the stage went through — evictions, the gap, a
        # restore — the lines it holds are exactly the encodings of the
        # events still inside the window.
        events, before_gap = evictions_then_a_gap()

        def check(stage, fed):
            state = stage.export_state()
            horizon = state.boundary - stage.window
            inside = [e for e in fed if e.timestamp >= horizon]
            assert state.buffer == [e.to_json() for e in inside]
            assert stage.buffered == len(state.buffer)
            return state

        stage = WindowedStemmer(100.0, 50.0)
        sizes = set()
        for batch in iter_batches(events, batch_size=7):
            stage.process(batch)
            state = check(stage, events[:batch.end_offset])
            sizes.add(len(state.buffer))
            restored = WindowedStemmer(100.0, 50.0)
            restored.restore_state(
                WindowState.from_dict(state.to_dict())
            )
            check(restored, events[:batch.end_offset])
        assert min(sizes) < 7 < max(sizes) < before_gap
        stage.flush()
        assert stage.export_state().buffer == []
        assert stage.buffered == 0

    def test_restore_refuses_a_used_stage(self):
        stage = WindowedStemmer(100.0)
        stage.process(Batch(tuple(ramp(5)), 0, 5))
        with pytest.raises(ValueError, match="used window stage"):
            stage.restore_state(WindowState(None, 0, []))


def bundle_event(t, path, prefix, med=None, peer=1):
    """A withdrawal whose bundle differs by *med* alone: one id
    sequence, distinct attribute objects."""
    return mk_event(
        t, f"1.1.1.{peer}", "2.2.2.2", path, f"10.0.{prefix}.0/24", med=med
    )


#: (window, slide): tumbling, 2x, 10x, 100/30 — a ratio where the
#: admission and eviction ladders never coincide — and 60/15, short
#: enough that one batch closes several windows.
GEOMETRIES = [
    (100.0, 100.0), (100.0, 50.0), (100.0, 10.0), (100.0, 30.0),
    (60.0, 15.0),
]

#: Mostly small steps, simultaneous arrivals, and now and then a quiet
#: gap longer than any window (the buffer drains and re-anchors).
arrivals = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 3.0, 7.0, 20.0, 45.0, 400.0]),
        st.sampled_from(["100 200 300", "100 200 400", "100 500", "600"]),
        st.integers(0, 5),  # prefix
        st.sampled_from([None, 5]),  # med
        st.integers(1, 2),  # peer
    ),
    min_size=1,
    max_size=80,
)


class TestSlidingFirstLevel:
    """The index the stage slides across closes is derived state: every
    report is batch Stemming over its window's events, whatever the
    geometry, batching, gaps and restore point."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(GEOMETRIES),
        arrivals,
        st.integers(1, 40),
        st.data(),
    )
    def test_reports_equal_batch_decompose(
        self, geometry, steps, batch_size, data
    ):
        events, now = [], 0.0
        for step, path, prefix, med, peer in steps:
            now += step
            events.append(bundle_event(now, path, prefix, med, peer))
        restore_at = data.draw(st.integers(0, len(events)))
        stage = WindowedStemmer(*geometry)
        out = []
        for batch in iter_batches(events, batch_size=batch_size):
            if batch.start_offset <= restore_at < batch.end_offset:
                # Stop mid-batch, as a kill would: what the checkpoint
                # holds is all the resumed stage starts from.
                cut = restore_at - batch.start_offset
                out.extend(stage.process(Batch(
                    batch.events[:cut], batch.start_offset, restore_at
                )))
                state = stage.export_state().to_dict()
                stage = WindowedStemmer(*geometry)
                stage.restore_state(WindowState.from_dict(state))
                batch = Batch(batch.events[cut:], restore_at, batch.end_offset)
            before = stage.window_index
            out.extend(stage.process(batch))
            if stage.window_index == before and stage.buffered:
                # Nothing closed: the batch is already in the index,
                # and nothing it should have given up is.
                assert stage._parked == 0
                assert stage._index.event_count == stage.buffered
            # The checkpointable state is a function of the stream
            # alone, not of what the sliding index went through.
            state = stage.export_state()
            fed = events[:batch.end_offset]
            horizon = state.boundary - stage.window
            assert state.buffer == [
                e.to_json() for e in fed if e.timestamp >= horizon
            ]
            assert state.window_index == sum(
                isinstance(item, WindowReport) for item in out
            )
        out.extend(stage.flush())
        reports = [item for item in out if isinstance(item, WindowReport)]
        assert [r.index for r in reports] == list(range(len(reports)))
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    def test_one_batch_closes_two_and_three_windows(self):
        # 60/15 at batch 256, the geometry the paced monitor runs: a
        # batch spans 35-40 s, so every call closes two or three
        # windows and each of them parks evictions the next one's sync
        # has to remove before it extracts.
        paths = ["100 200 300", "100 200 400", "100 500", "600 700"]
        events = [
            bundle_event(i * 0.15, paths[i % 4], i % 37, peer=1 + i % 3)
            for i in range(6 * 256)
        ]
        stage = WindowedStemmer(60.0, 15.0)
        reports, closes = [], []
        for batch in iter_batches(events, batch_size=256):
            out = stage.process(batch)
            closed = [item for item in out if isinstance(item, WindowReport)]
            closes.append(len(closed))
            reports.extend(closed)
        assert closes[0] == 0 and set(closes[1:]) == {2, 3}
        reports.extend(stage.flush())
        assert len(reports) == sum(closes) + 1
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    def test_a_close_on_a_batchs_first_and_on_its_last_event(self):
        # Batches of four. Event 4 (first of its batch) is the first at
        # or past the boundary at t=100; event 11 (last of its batch)
        # is the first past the one at t=150.
        times = [0, 20, 40, 60, 100, 105, 110, 115, 120, 125, 130, 150, 160]
        events = [
            bundle_event(float(t), "100 200 300", i % 3)
            for i, t in enumerate(times)
        ]
        stage = WindowedStemmer(100.0, 50.0)
        closed_by = {}
        reports = []
        for batch in iter_batches(events, batch_size=4):
            for item in stage.process(batch):
                if isinstance(item, WindowReport):
                    closed_by[item.index] = batch.start_offset
                    reports.append(item)
            # A closing call leaves its evictions and the events past
            # the boundary for the next call; any other is level.
            held = stage._index.event_count
            assert held - stage._parked <= stage.buffered
            if batch.start_offset not in closed_by.values():
                assert (held, stage._parked) == (stage.buffered, 0)
        assert closed_by == {0: 4, 1: 8}
        reports.extend(stage.flush())
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    @pytest.mark.parametrize("gap_in_the_parking_batch", [True, False])
    def test_a_quiet_gap_drains_the_buffer_behind_parked_evictions(
        self, gap_in_the_parking_batch
    ):
        # The close at t=100 evicts t<50 and parks them; the next event
        # is so late that the closes it forces evict everything else.
        early = [
            bundle_event(float(t), "100 200", t % 4) for t in range(0, 110, 5)
        ]
        late = [
            bundle_event(5000.0 + t, "100 200", t % 4)
            for t in range(0, 30, 5)
        ]
        events = early + late
        stage = WindowedStemmer(100.0, 50.0)
        first = len(early) + 1 if gap_in_the_parking_batch else len(early)
        out = list(stage.process(Batch(tuple(events[:first]), 0, first)))
        if not gap_in_the_parking_batch:
            # Still holding what the close evicted, not yet holding
            # the two events past its boundary.
            assert stage._parked == 10
            assert stage._index.event_count == len(early) - 2
        out.extend(
            stage.process(Batch(tuple(events[first:]), first, len(events)))
        )
        # Drained and re-anchored on the late event; the index is gone
        # until a call that closes nothing loads the new buffer.
        assert stage.export_state().boundary == 5100.0
        assert stage.buffered == len(late)
        assert stage._parked == 0
        if gap_in_the_parking_batch:
            assert stage._index.event_count == len(late)
        else:
            assert stage._index is None
        out.extend(stage.flush())
        reports = [item for item in out if isinstance(item, WindowReport)]
        assert [r.start for r in reports] == [0.0, 50.0, 100.0, 5000.0]
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    def test_a_restore_between_a_close_and_the_next_batch(self):
        # The exported state is the same bytes whether or not the
        # evictions are still parked, and a stage restored from it —
        # which has no index and nothing parked — reports as the
        # uninterrupted one does.
        events = ramp(60, spacing=5.0) + spike(
            "100 200 300", 40, start_prefix=100
        )
        events.sort(key=lambda e: e.timestamp)
        stage = WindowedStemmer(100.0, 50.0)
        batches = list(iter_batches(events, batch_size=16))
        out = []
        cut = None
        for i, batch in enumerate(batches):
            out.extend(stage.process(batch))
            if stage._parked:
                cut = i + 1
                break
        assert cut is not None and cut < len(batches)
        parked = json.dumps(stage.export_state().to_dict())
        stage._sync_index()
        assert stage._parked == 0
        assert json.dumps(stage.export_state().to_dict()) == parked
        resumed = WindowedStemmer(100.0, 50.0)
        resumed.restore_state(WindowState.from_dict(json.loads(parked)))
        assert resumed._index is None
        resumed_out = list(out)
        for batch in batches[cut:]:
            out.extend(stage.process(batch))
            resumed_out.extend(resumed.process(batch))
            assert resumed.export_state() == stage.export_state()
        out.extend(stage.flush())
        resumed_out.extend(resumed.flush())
        reports = [item for item in out if isinstance(item, WindowReport)]
        assert len(reports) > 3
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in resumed_out if isinstance(r, WindowReport)
        ]
        for report in reports:
            assert report.to_dict() == batch_report(events, report).to_dict()

    def test_simultaneous_events_keep_arrival_order_across_an_eviction(self):
        # Two bundles, one id sequence. The bucket they share must stay
        # in arrival order: an eviction removes its oldest events, and
        # EventStream's stable sort keeps simultaneous events as given.
        a10, b60, a60, a115, a165 = events = [
            bundle_event(10.0, "100 200", 0),
            bundle_event(60.0, "100 200", 0, med=5),
            bundle_event(60.0, "100 200", 0),
            bundle_event(115.0, "100 200", 0),
            bundle_event(165.0, "100 200", 0),
        ]
        assert a10.sequence == b60.sequence
        assert a10.attributes != b60.attributes
        first, second, last = run_stage(WindowedStemmer(100.0, 50.0), events)
        assert list(first.result.strongest.events) == [a10, b60, a60]
        assert (second.start, second.event_count) == (60.0, 3)
        assert list(second.result.strongest.events) == [b60, a60, a115]
        assert list(last.result.strongest.events) == [a115, a165]

    def test_ever_new_prefixes_keep_the_symbol_table_bounded(self):
        # 10x overlap over a stream that never repeats a prefix: the
        # index is rebuilt from the buffer whenever its table doubles,
        # so it stays within a constant factor of the live window.
        stage = WindowedStemmer(100.0, 10.0)
        events = [
            mk_event(
                float(i), "1.1.1.1", "2.2.2.2", "100 200 300",
                f"10.{i >> 16}.{(i >> 8) & 0xFF}.{i & 0xFF}/32",
            )
            for i in range(3000)
        ]
        worst = 0
        for batch in iter_batches(events, batch_size=25):
            stage.process(batch)
            if stage._index is not None:
                worst = max(worst, stage._index.symbols.token_count)
        live = Stemmer().load(events[-100:]).symbols.token_count
        assert live > 100  # one prefix token per buffered event
        assert worst <= 3 * live


class TestTampAnnotator:
    def test_batches_are_consumed_and_reports_annotated(self):
        events = announces(20)
        stage = TampAnnotator()
        assert stage.process(Batch(tuple(events), 0, 20)) is None
        report = WindowReport(
            index=0, start=0.0, end=60.0, event_count=20,
            fingerprint="x", result=Stemmer().decompose(events),
        )
        (annotated,) = stage.process(report)
        assert annotated is report
        assert report.tamp is not None
        assert report.tamp["routes"] == 20
        assert report.tamp["pulse_adds"] > 0
        assert set(report.tamp) == {
            "routes", "nodes", "edges", "prefixes",
            "pulse_adds", "pulse_removes", "pulse_version",
        }
        assert report.tamp["pulse_version"] == stage.boundary_pulse
        assert report.tamp["pulse_version"] >= report.tamp["pulse_adds"]

    def test_other_items_rejected(self):
        with pytest.raises(TypeError, match="Batch or WindowReport"):
            TampAnnotator().process(42)

    def test_state_round_trip_preserves_routes_and_pulses(self):
        events = announces(20)
        stage = TampAnnotator()
        stage.process(Batch(tuple(events), 0, 20))
        state = stage.export_state()

        fresh = TampAnnotator()
        fresh.restore_state(state)
        assert fresh.tamp.route_count() == stage.tamp.route_count()
        from copy import deepcopy

        report = WindowReport(
            index=0, start=0.0, end=60.0, event_count=0,
            fingerprint="x", result=Stemmer().decompose([]),
        )
        original, resumed = deepcopy(report), deepcopy(report)
        stage.process(original)
        fresh.process(resumed)
        assert original.tamp == resumed.tamp


class TestInPipeline:
    def test_full_two_stage_pipeline_annotates_every_report(self):
        events = ramp(30, spacing=10.0)
        pipe = Pipeline([WindowedStemmer(100.0), TampAnnotator()])
        for batch in iter_batches(events, batch_size=16):
            pipe.feed(batch)
        pipe.flush()
        reports = pipe.take()
        assert len(reports) == 3
        assert all(r.tamp is not None for r in reports)
