"""IngestReport / IngestPolicy / quarantine behavior of the loaders."""

import io
import json
import warnings

import pytest

from repro.collector.rex import RouteExplorer
from repro.mrt.ingest import (
    IngestError,
    IngestPolicy,
    IngestReport,
    IngestWarning,
    read_quarantine,
)
from repro.mrt.loader import dump_rib, load_rib, load_updates
from repro.mrt.records import (
    SUBTYPE_BGP4MP_MESSAGE_AS4,
    TYPE_BGP4MP,
    MRTError,
    MRTRecord,
    write_records,
)
from repro.simulator.synthetic import BERKELEY_PROFILE, populate_view
from repro.testkit.corpus import build_clean_records


def archive_bytes(records) -> bytes:
    buffer = io.BytesIO()
    write_records(records, buffer)
    return buffer.getvalue()


def garbage_record(timestamp: float = 1.0) -> MRTRecord:
    return MRTRecord(
        timestamp, TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, b"\xde\xad"
    )


def mixed_archive(n_clean: int = 40, n_bad: int = 2) -> bytes:
    records = build_clean_records(n_updates=n_clean)
    for index in range(n_bad):
        records.insert(
            2 * index + 1, garbage_record(records[2 * index].timestamp)
        )
    return archive_bytes(records)


class TestReportAccounting:
    def test_clean_load_is_ok(self):
        stream = load_updates(
            io.BytesIO(archive_bytes(build_clean_records(n_updates=20)))
        )
        report = stream.ingest_report
        assert report.ok and not report.is_lossy
        assert report.kind == "updates"
        assert report.records_decoded == 20
        assert report.records_skipped == 0
        assert report.skip_rate == 0.0
        assert report.events_produced == len(stream)
        assert report.first_timestamp == 1000.0
        assert report.error_counts == {}

    def test_default_mode_counts_every_skip(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            stream = load_updates(io.BytesIO(mixed_archive(n_bad=3)))
        report = stream.ingest_report
        assert report.records_skipped == 3
        assert report.records_decoded == 40
        assert report.attempted == 43
        assert report.skip_rate == pytest.approx(3 / 43)
        assert not report.ok
        assert sum(report.error_counts.values()) == 3

    def test_non_update_records_are_ignored_not_skipped(self):
        records = build_clean_records(n_updates=10)
        records.append(MRTRecord(2000.0, 99, 0, b"state-change"))
        stream = load_updates(io.BytesIO(archive_bytes(records)))
        report = stream.ingest_report
        assert report.records_ignored == 1
        assert report.records_skipped == 0
        assert report.ok

    def test_framing_error_recorded_and_load_stops(self):
        data = archive_bytes(build_clean_records(n_updates=20))
        stream = load_updates(io.BytesIO(data[:-7]))
        report = stream.ingest_report
        assert report.framing_error is not None
        assert not report.ok
        assert report.records_read < 20

    def test_out_of_order_and_gap_detection(self):
        records = build_clean_records(n_updates=6)
        shifted = MRTRecord(
            records[0].timestamp - 50.0, records[3].type,
            records[3].subtype, records[3].payload,
        )
        records[3] = shifted
        late = MRTRecord(
            records[-1].timestamp + 7200.0, records[-1].type,
            records[-1].subtype, records[-1].payload,
        )
        records.append(late)
        stream = load_updates(io.BytesIO(archive_bytes(records)))
        report = stream.ingest_report
        assert report.out_of_order_records >= 1
        assert report.gap_count == 1
        assert len(report.gaps) == 1
        _, gap_seconds = report.gaps[0]
        assert gap_seconds > 3600.0
        assert report.suspicious

    def test_report_rides_the_collector_too(self):
        rex = RouteExplorer()
        load_updates(
            io.BytesIO(archive_bytes(build_clean_records(n_updates=5))),
            rex=rex,
        )
        assert len(rex.ingest_reports) == 1
        assert rex.last_ingest is rex.ingest_reports[0]
        assert rex.ingest_ok()
        assert "ingest" in rex.ingest_summary()

    def test_to_dict_is_json_serializable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            stream = load_updates(io.BytesIO(mixed_archive()))
        payload = json.dumps(stream.ingest_report.to_dict())
        decoded = json.loads(payload)
        assert decoded["records_skipped"] == 2
        assert decoded["ok"] is False

    def test_summary_names_the_damage(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            stream = load_updates(io.BytesIO(mixed_archive()))
        text = stream.ingest_report.summary()
        assert "skipped" in text
        assert "errors:" in text


class TestWarnPath:
    def test_warns_past_the_threshold(self):
        with pytest.warns(IngestWarning, match="inspect the IngestReport"):
            load_updates(io.BytesIO(mixed_archive(n_clean=40, n_bad=2)))

    def test_no_warning_on_clean_load(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IngestWarning)
            load_updates(
                io.BytesIO(archive_bytes(build_clean_records(n_updates=20)))
            )

    def test_no_warning_below_the_threshold(self):
        policy = IngestPolicy(warn_threshold=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IngestWarning)
            stream = load_updates(
                io.BytesIO(mixed_archive(n_clean=40, n_bad=2)),
                policy=policy,
            )
        # Still counted — quiet never means unaccounted.
        assert stream.ingest_report.records_skipped == 2


class TestStrictAndBudget:
    def test_strict_raises_immediately(self):
        with pytest.raises((MRTError, ValueError)):
            load_updates(
                io.BytesIO(mixed_archive()),
                policy=IngestPolicy(strict=True),
            )

    def test_strict_via_policy(self):
        # Strict wins over an error budget that would tolerate it all.
        with pytest.raises((MRTError, ValueError)):
            load_updates(
                io.BytesIO(mixed_archive()),
                policy=IngestPolicy(strict=True, max_error_rate=1.0),
            )

    def test_budget_aborts_past_the_rate(self):
        records = build_clean_records(n_updates=30)
        for index in range(10):
            records.insert(3 * index, garbage_record(900.0 + index))
        policy = IngestPolicy(max_error_rate=0.1, min_records=10)
        with pytest.raises(IngestError) as exc_info:
            load_updates(io.BytesIO(archive_bytes(records)), policy=policy)
        report = exc_info.value.report
        assert report.aborted
        assert report.skip_rate > 0.1
        assert not report.ok

    def test_budget_tolerates_early_noise(self):
        # One bad record at the head of a long file: under min_records
        # the rate check holds off, and by the end the rate is tiny.
        records = build_clean_records(n_updates=60)
        records.insert(0, garbage_record(999.0))
        policy = IngestPolicy(
            max_error_rate=0.05, min_records=25, warn_threshold=0.5
        )
        stream = load_updates(
            io.BytesIO(archive_bytes(records)), policy=policy
        )
        assert stream.ingest_report.records_skipped == 1
        assert not stream.ingest_report.aborted


class TestQuarantine:
    def test_undecodable_records_are_replayable(self, tmp_path):
        qpath = tmp_path / "quarantine.jsonl"
        policy = IngestPolicy(quarantine=qpath, warn_threshold=1.0)
        stream = load_updates(
            io.BytesIO(mixed_archive(n_bad=3)), policy=policy
        )
        assert stream.ingest_report.records_quarantined == 3
        replayed = list(read_quarantine(qpath))
        assert len(replayed) == 3
        assert all(r.payload == b"\xde\xad" for r in replayed)
        assert all(r.type == TYPE_BGP4MP for r in replayed)

    def test_quarantine_lines_carry_the_error(self, tmp_path):
        qpath = tmp_path / "quarantine.jsonl"
        policy = IngestPolicy(quarantine=qpath, warn_threshold=1.0)
        load_updates(io.BytesIO(mixed_archive(n_bad=1)), policy=policy)
        entry = json.loads(qpath.read_text().splitlines()[0])
        assert entry["error"]
        assert entry["message"]
        assert bytes.fromhex(entry["payload"]) == b"\xde\xad"

    def test_clean_load_leaves_no_quarantine_file(self, tmp_path):
        qpath = tmp_path / "quarantine.jsonl"
        policy = IngestPolicy(quarantine=qpath)
        load_updates(
            io.BytesIO(archive_bytes(build_clean_records(n_updates=5))),
            policy=policy,
        )
        assert not qpath.exists()


class TestRibIngest:
    def _rib_bytes(self, n_prefixes: int = 60) -> bytes:
        rex = RouteExplorer()
        populate_view(rex, n_prefixes, BERKELEY_PROFILE,
                      routes_per_prefix=1.5)
        buffer = io.BytesIO()
        dump_rib(rex, buffer)
        return buffer.getvalue()

    def test_clean_rib_reports_entries(self):
        restored = load_rib(io.BytesIO(self._rib_bytes()))
        report = restored.last_ingest
        assert report.kind == "rib"
        assert report.ok
        assert report.entries_read == restored.route_count()
        assert report.entries_skipped == 0

    def test_truncated_rib_sets_framing_error(self):
        data = self._rib_bytes()
        restored = load_rib(io.BytesIO(data[: len(data) // 2]))
        report = restored.last_ingest
        assert report.framing_error is not None
        assert not report.ok
        assert not restored.ingest_ok()

    def test_corrupt_rib_counts_skips(self):
        from repro.testkit.faults import corrupt_payloads
        from repro.mrt.records import read_records

        records = list(read_records(io.BytesIO(self._rib_bytes())))
        # Leave the peer-index record intact so entries stay mappable.
        damaged = records[:1] + corrupt_payloads(
            records[1:], rate=0.5, byte_rate=0.1, seed=5
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            restored = load_rib(io.BytesIO(archive_bytes(damaged)))
        report = restored.last_ingest
        assert not report.ok
        assert (report.records_skipped + report.entries_skipped) > 0

    def test_strict_rib_raises(self):
        data = self._rib_bytes()
        with pytest.raises(MRTError):
            load_rib(
                io.BytesIO(data[: len(data) // 2]),
                policy=IngestPolicy(strict=True),
            )


class TestReportUnit:
    def test_observe_timestamp_tracks_shape(self):
        report = IngestReport(source="x")
        for t in (10.0, 20.0, 15.0, 8000.0):
            report.observe_timestamp(t, gap_threshold=3600.0)
        assert report.first_timestamp == 10.0
        assert report.last_timestamp == 8000.0
        assert report.out_of_order_records == 1
        assert report.gap_count == 1

    def test_gap_list_is_bounded(self):
        from repro.mrt.ingest import MAX_RECORDED_GAPS

        report = IngestReport(source="x")
        t = 0.0
        for _ in range(MAX_RECORDED_GAPS + 10):
            report.observe_timestamp(t, gap_threshold=1.0)
            t += 10.0
        assert report.gap_count == MAX_RECORDED_GAPS + 9
        assert len(report.gaps) == MAX_RECORDED_GAPS

    def test_empty_report_is_ok_but_not_suspicious(self):
        report = IngestReport(source="x")
        assert report.ok
        assert not report.suspicious
        assert report.skip_rate == 0.0
