"""Tests for monitor event sources and replay pacing."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collector import stream as stream_module
from repro.collector.rex import RouteExplorer
from repro.collector.stream import (
    EventStream,
    fingerprint_events,
    fingerprint_lines,
)
from repro.mrt.bgp_codec import decode_update
from repro.mrt.ingest import IngestPolicy, QuarantineWriter, read_quarantine
from repro.mrt.loader import load_updates
from repro.pipeline.sources import (
    FileSource,
    Pacer,
    QuarantineSource,
    StreamSource,
    SyntheticSource,
)
from repro.mrt.records import (
    SUBTYPE_BGP4MP_MESSAGE_AS4,
    TYPE_BGP4MP,
    MRTError,
    decode_bgp4mp,
    read_records,
)
from repro.testkit.corpus import build_clean_records, generate_corpus
from tests.pipeline.conftest import count_encodes
from tests.stemming.test_stemmer import spike


class TestStreamSource:
    def test_replays_from_an_offset(self):
        events = spike("100 200", 6)
        source = StreamSource(EventStream(events))
        assert list(source.events()) == events
        assert list(source.events(4)) == events[4:]

    def test_describe_pins_the_stream_identity(self):
        stream = EventStream(spike("100 200", 6))
        description = StreamSource(stream, label="t").describe()
        assert description["type"] == "stream"
        assert description["label"] == "t"
        assert description["fingerprint"] == stream.fingerprint()

    def test_describe_hashes_the_stream_once(self, monkeypatch):
        events = spike("100 200", 6)
        source = StreamSource(EventStream(events))
        encodes = count_encodes(monkeypatch)
        descriptions = [source.describe() for _ in range(5)]
        assert len(encodes) == len(events)
        assert all(d == descriptions[0] for d in descriptions)

    def test_describe_follows_an_appended_stream(self):
        stream = EventStream(spike("100 200", 6))
        source = StreamSource(stream)
        before = source.describe()
        stream.append(spike("100 200", 1, start_prefix=50)[0])
        after = source.describe()
        assert after["events"] == 7
        assert after["fingerprint"] == stream.fingerprint()
        assert after["fingerprint"] != before["fingerprint"]


class TestFingerprintLines:
    @pytest.mark.parametrize("count", [0, 1, 6])
    def test_equals_fingerprint_events(self, count):
        events = spike("100 200", count)
        assert fingerprint_lines(
            [event.to_json() for event in events]
        ) == fingerprint_events(events)

    def test_empty_input_is_the_empty_digest(self):
        assert fingerprint_lines([]) == hashlib.sha256().hexdigest()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edges_equal_the_per_line_digest(self, offset):
        count = stream_module._FINGERPRINT_CHUNK + offset
        lines = [f"line {index}" for index in range(count)]
        assert fingerprint_lines(iter(lines)) == per_line_digest(lines)

    @given(st.lists(st.text(), max_size=12))
    def test_any_text_equals_the_per_line_digest(self, lines):
        # Across a chunk edge too: a chunk of three splits most lists.
        original = stream_module._FINGERPRINT_CHUNK
        stream_module._FINGERPRINT_CHUNK = 3
        try:
            assert fingerprint_lines(lines) == per_line_digest(lines)
        finally:
            stream_module._FINGERPRINT_CHUNK = original


def per_line_digest(lines) -> str:
    """``fingerprint_lines`` as first written: two updates per line."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TestFileSource:
    def test_jsonl_round_trip(self, tmp_path):
        events = spike("100 200 300", 8)
        path = tmp_path / "events.jsonl"
        EventStream(events).save(path)
        source = FileSource(path)
        assert list(source.events(2)) == events[2:]
        assert source.describe() == {"type": "file", "path": str(path)}


class TestSyntheticSource:
    def test_same_parameters_same_events(self):
        first = list(SyntheticSource(300, 120.0, seed=5, n_routes=200)
                     .events())
        second = list(SyntheticSource(300, 120.0, seed=5, n_routes=200)
                      .events())
        assert fingerprint_events(first) == fingerprint_events(second)

    def test_seed_changes_the_feed(self):
        first = list(SyntheticSource(300, 120.0, seed=5, n_routes=200)
                     .events())
        second = list(SyntheticSource(300, 120.0, seed=6, n_routes=200)
                      .events())
        assert fingerprint_events(first) != fingerprint_events(second)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            SyntheticSource(10, 10.0, profile="nonesuch")

    def test_describe_covers_every_generation_parameter(self):
        description = SyntheticSource(300, 120.0, seed=5).describe()
        assert description["type"] == "synthetic"
        assert description["count"] == 300
        assert description["seed"] == 5


class TestQuarantineSource:
    def test_replays_decodable_records_and_skips_the_rest(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        records = build_clean_records(n_updates=6)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps({
                    "t": record.timestamp,
                    "type": record.type,
                    "subtype": record.subtype,
                    "payload": record.payload.hex(),
                }) + "\n")
            handle.write(json.dumps({
                "t": 1.0,
                "type": TYPE_BGP4MP,
                "subtype": SUBTYPE_BGP4MP_MESSAGE_AS4,
                "payload": b"\xde\xad".hex(),
            }) + "\n")
        source = QuarantineSource(path)
        events = list(source.events())
        assert events  # the clean records replay into events
        assert source.replayed_records == 6
        assert source.failed_records == 1
        assert source.describe()["type"] == "quarantine"

    @pytest.mark.filterwarnings("ignore::repro.mrt.ingest.IngestWarning")
    def test_corpus_member_replays_as_the_per_record_path_did(
        self, tmp_path
    ):
        """``corrupt-payloads``, quarantined and replayed: the events and
        counts of one untabled ``decode_bgp4mp`` / ``decode_update`` /
        ``rex.observe`` per record — what ``_load`` was before it shared
        the ingest's decoder."""
        member = generate_corpus(tmp_path / "corpus")["corrupt-payloads"]
        rejected = tmp_path / "rejected.jsonl"
        report = load_updates(
            member, policy=IngestPolicy(quarantine=rejected)
        ).ingest_report
        assert report.records_quarantined > 0
        # The ingest's own rejects (all of which fail again), and the
        # whole member — good records, repeats and bad ones interleaved.
        whole = tmp_path / "whole.jsonl"
        with QuarantineWriter(whole) as writer:
            for record in read_records(member):
                writer.write(record, MRTError("suspect"))
        for path in (rejected, whole):
            rex = RouteExplorer("quarantine")
            replayed = failed = 0
            for record in read_quarantine(path):
                try:
                    envelope = decode_bgp4mp(record.payload)
                    decoded = decode_update(envelope.bgp_message)
                except (MRTError, ValueError):
                    failed += 1
                    continue
                rex.observe(
                    envelope.peer_address, decoded.update, record.timestamp
                )
                replayed += 1
            source = QuarantineSource(path)
            assert list(source.events()) == list(rex.events)
            assert source.replayed_records == replayed
            assert source.failed_records == failed
        assert failed == report.records_quarantined
        assert replayed > 0


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now


class TestPacer:
    def test_disabled_pace_never_sleeps(self):
        fake = FakeClock()
        pacer = Pacer(0, clock=fake.clock)
        assert pacer.delay(0.0) == 0.0
        assert pacer.delay(50.0) == 0.0

    def test_first_timestamp_anchors_the_schedule(self):
        fake = FakeClock()
        pacer = Pacer(1.0, clock=fake.clock)
        assert pacer.delay(1000.0) == 0.0  # anchor, no wait
        assert pacer.delay(1003.0) == pytest.approx(3.0)

    def test_pace_compresses_archive_time(self):
        fake = FakeClock()
        pacer = Pacer(60.0, clock=fake.clock)
        pacer.delay(0.0)
        delay = pacer.delay(120.0)  # two archive minutes
        assert delay == pytest.approx(2.0)

    def test_running_behind_means_no_sleep_and_positive_lag(self):
        fake = FakeClock()
        pacer = Pacer(1.0, clock=fake.clock)
        pacer.delay(0.0)
        fake.now += 30.0  # processing took 30s of wall clock
        assert pacer.delay(10.0) == 0.0
        assert pacer.lag(10.0) == pytest.approx(20.0)

    def test_lag_is_zero_when_unpaced(self):
        assert Pacer(0).lag(10.0) == 0.0

    def test_delay_reports_the_wait_without_sleeping(self):
        # The delay counts down as the clock moves and never goes
        # negative; the caller does the waiting.
        fake = FakeClock()
        pacer = Pacer(60.0, clock=fake.clock)
        assert pacer.delay(0.0) == 0.0  # anchor
        assert pacer.delay(120.0) == pytest.approx(2.0)
        fake.now += 1.5
        assert pacer.delay(120.0) == pytest.approx(0.5)
        fake.now += 3.5
        assert pacer.delay(120.0) == 0.0  # late: due 3 s ago
