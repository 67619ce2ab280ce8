"""The per-load decoder: interned decode equals the untabled reference.

``load_updates`` runs every record through one
:class:`~repro.mrt.bgp_codec.UpdateDecoder`; the reference below is
the loop it replaced — one public, untabled ``decode_bgp4mp`` /
``decode_update`` / ``rex.observe`` per record — with the same
accounting. Everything the tables could get wrong shows as a
difference between the two: a stored failure, a hit that forgets to
charge ``unknown_attributes``, state leaking from one load to the next.
"""

import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.rex import RouteExplorer
from repro.mrt import bgp_codec
from repro.mrt.bgp_codec import (
    BGPCodecError,
    UpdateDecoder,
    decode_attributes,
    decode_update,
    encode_attributes,
    encode_prefix,
    encode_update,
)
from repro.mrt.ingest import (
    IngestPolicy,
    IngestReport,
    QuarantineWriter,
)
from repro.mrt.loader import load_updates
from repro.mrt.records import (
    SUBTYPE_BGP4MP_MESSAGE_AS4,
    TYPE_BGP4MP,
    Bgp4mpMessage,
    MRTError,
    MRTRecord,
    decode_bgp4mp,
    encode_bgp4mp,
    read_records,
    write_records,
)
from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.message import BGPUpdate
from repro.net.prefix import Prefix
from repro.testkit.corpus import build_clean_records, generate_corpus

NEW_KEYS = ("attribute_blocks", "attribute_blocks_distinct")

#: Lossy corpus members warn by design; these tests read the report.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.mrt.ingest.IngestWarning"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return generate_corpus(tmp_path_factory.mktemp("corpus"))


def reference_load(path, quarantine=None):
    """The pre-decoder ``load_updates`` loop, non-strict."""
    rex = RouteExplorer("mrt")
    policy = IngestPolicy(quarantine=quarantine)
    report = IngestReport(source=str(path), kind="updates")
    records = read_records(path)
    with QuarantineWriter(policy.quarantine) as writer:
        while True:
            try:
                record = next(records)
            except StopIteration:
                break
            except MRTError as exc:
                report.framing_error = str(exc)
                report.note_error(exc)
                break
            report.records_read += 1
            report.observe_timestamp(
                record.timestamp, policy.gap_threshold
            )
            if not record.is_bgp4mp_update:
                report.records_ignored += 1
                continue
            try:
                envelope = decode_bgp4mp(record.payload)
                decoded = decode_update(envelope.bgp_message)
            except (MRTError, ValueError) as exc:
                report.records_skipped += 1
                report.note_error(exc)
                writer.write(record, exc)
                report.records_quarantined = writer.count
                continue
            report.records_decoded += 1
            report.unknown_attributes += len(decoded.skipped_attributes)
            produced = rex.observe(
                envelope.peer_address, decoded.update, record.timestamp
            )
            report.events_produced += len(produced)
    report.dropped_withdrawals = rex.dropped_withdrawals
    return list(rex.events), report


def without_new_keys(report: IngestReport) -> dict:
    data = report.to_dict()
    for key in NEW_KEYS:
        del data[key]
    return data


class TestAgainstTheUntabledReference:
    def test_every_corpus_member(self, corpus):
        for name, path in corpus.items():
            events, reference = reference_load(path)
            stream = load_updates(path)
            assert list(stream) == events, name
            assert without_new_keys(
                stream.ingest_report
            ) == without_new_keys(reference), name

    @pytest.mark.parametrize("name", ["flipped-attrs", "duplicated"])
    def test_failures_are_decoded_and_counted_every_time(
        self, corpus, tmp_path, name
    ):
        """A block that failed is never stored: its next occurrence is
        decoded, raised, counted and quarantined again."""
        # Twice over, so every bad block of the member repeats.
        doubled = tmp_path / f"{name}-twice.mrt"
        records = list(read_records(corpus[name]))
        write_records(records + records, doubled)
        _, reference = reference_load(
            doubled, quarantine=tmp_path / "reference.jsonl"
        )
        report = load_updates(
            doubled,
            policy=IngestPolicy(quarantine=tmp_path / "tabled.jsonl"),
        ).ingest_report
        assert report.error_counts == reference.error_counts
        assert report.records_skipped == reference.records_skipped
        assert report.records_quarantined == reference.records_quarantined
        if reference.records_quarantined:
            assert (tmp_path / "tabled.jsonl").read_bytes() == (
                tmp_path / "reference.jsonl"
            ).read_bytes()
        # Every block of the first pass comes round again.
        assert (
            report.attribute_blocks >= 2 * report.attribute_blocks_distinct
        )

    def test_flipped_attrs_does_fail_on_attribute_blocks(self, corpus):
        """The member the test above leans on has what it needs."""
        _, reference = reference_load(corpus["flipped-attrs"])
        assert reference.error_counts.get("BGPCodecError", 0) > 0

    def test_two_loads_in_one_process_report_alike(self, corpus):
        first = load_updates(corpus["flipped-attrs"])
        second = load_updates(corpus["flipped-attrs"])
        assert list(first) == list(second)
        assert (
            first.ingest_report.to_dict() == second.ingest_report.to_dict()
        )

    def test_a_load_shares_one_object_per_wire_string(self, corpus):
        stream = load_updates(corpus["duplicated"])
        by_value: dict = {}
        for event in stream:
            if event.is_withdrawal:
                continue  # augmented from the RIB: the same objects
            seen = by_value.setdefault(event.attributes, event.attributes)
            assert seen is event.attributes
        report = stream.ingest_report
        assert 0 < report.attribute_blocks_distinct < report.attribute_blocks


def update_record_bytes(updates, peer=0x0A000001):
    """An updates archive of *updates* (wire UPDATE messages)."""
    buffer = io.BytesIO()
    write_records(
        (
            MRTRecord(
                timestamp=float(index),
                type=TYPE_BGP4MP,
                subtype=SUBTYPE_BGP4MP_MESSAGE_AS4,
                payload=encode_bgp4mp(
                    Bgp4mpMessage(25, 64512, 0, peer, 0x0A0000FE, message)
                ),
            )
            for index, message in enumerate(updates)
        ),
        buffer,
    )
    return buffer.getvalue()


def with_attribute_block(block: bytes, prefix: Prefix) -> bytes:
    """A wire UPDATE announcing *prefix* under a raw attribute *block*."""
    body = (
        struct.pack("!H", 0)
        + struct.pack("!H", len(block))
        + block
        + encode_prefix(prefix)
    )
    return (
        bgp_codec.MARKER
        + struct.pack("!HB", 19 + len(body), bgp_codec.MSG_TYPE_UPDATE)
        + body
    )


ATTRS = PathAttributes(
    nexthop=0x0B000001, as_path=ASPath([25, 100, 500])
)
#: An unmodeled optional transitive attribute (type 32, LARGE_COMMUNITY).
UNKNOWN = bytes([0xC0, 32, 2, 0xAB, 0xCD])
#: A MED one byte short: malformed wherever it appears.
BAD_MED = bytes([0x80, bgp_codec.ATTR_MED, 3, 0, 0, 1])


class TestTableSemantics:
    def test_unknown_attributes_are_charged_per_record_on_hits(self):
        block = encode_attributes(ATTRS) + UNKNOWN
        updates = [
            with_attribute_block(block, Prefix(0x0A000000 + i * 256, 24))
            for i in range(4)
        ]
        stream = load_updates(io.BytesIO(update_record_bytes(updates)))
        report = stream.ingest_report
        assert report.records_decoded == 4
        assert report.unknown_attributes == 4
        assert report.attribute_blocks == 4
        assert report.attribute_blocks_distinct == 1

    def test_strict_raises_alike_at_the_first_and_a_repeated_bad_block(self):
        good = with_attribute_block(
            encode_attributes(ATTRS), Prefix(0x0A000000, 24)
        )
        bad = with_attribute_block(
            encode_attributes(ATTRS) + BAD_MED, Prefix(0x0A000100, 24)
        )
        with pytest.raises(BGPCodecError) as first:
            load_updates(
                io.BytesIO(update_record_bytes([good, bad])),
                policy=IngestPolicy(strict=True),
            )
        # Non-strict over a repeat: both occurrences fail the same way.
        report = load_updates(
            io.BytesIO(update_record_bytes([bad, good, bad]))
        ).ingest_report
        assert report.error_counts == {"BGPCodecError": 2}
        assert report.attribute_blocks == 3
        assert report.attribute_blocks_distinct == 1
        # ... and a decoder that has already seen the block fail raises
        # what a fresh one (and the untabled function) raises.
        decoder = UpdateDecoder()
        block = encode_attributes(ATTRS) + BAD_MED
        messages = []
        for _ in range(2):
            with pytest.raises(BGPCodecError) as raised:
                decoder.attributes(block)
            messages.append((type(raised.value), str(raised.value)))
        with pytest.raises(BGPCodecError) as untabled:
            decode_attributes(block)
        assert messages == [
            (type(untabled.value), str(untabled.value))
        ] * 2
        assert str(first.value) == str(untabled.value)
        assert decoder.attribute_blocks == 2
        assert decoder.attribute_blocks_distinct == 0

    def test_malformed_prefix_entries_raise_the_codec_errors(self):
        decoder = UpdateDecoder()
        assert decoder.prefixes(b"\x18\x0a\x00\x01") == [
            Prefix(0x0A000100, 24)
        ]
        for block in (b"\x18\x0a\x00", b"\x21\x0a\x00\x01\x00\x00"):
            with pytest.raises(BGPCodecError) as tabled:
                decoder.prefixes(block)
            with pytest.raises(BGPCodecError) as untabled:
                bgp_codec._decode_prefix_block(block)
            assert str(tabled.value) == str(untabled.value)

    def test_past_the_cap_decoding_still_succeeds(self, monkeypatch):
        monkeypatch.setattr(bgp_codec, "INTERN_CAP", 2)
        decoder = UpdateDecoder()
        bundles = [
            PathAttributes(nexthop=0x0B000001, as_path=ASPath([25, asn]))
            for asn in range(100, 106)
        ]
        for _ in range(2):
            for bundle in bundles:
                attrs, skipped = decoder.attributes(
                    encode_attributes(bundle)
                )
                assert attrs == bundle and skipped == ()
        assert decoder.attribute_blocks == 12
        assert decoder.attribute_blocks_distinct == 2
        # The two that fit are shared; the rest are decoded afresh.
        first = decoder.attributes(encode_attributes(bundles[0]))[0]
        assert first is decoder.attributes(encode_attributes(bundles[0]))[0]
        last = decoder.attributes(encode_attributes(bundles[-1]))[0]
        assert last is not decoder.attributes(
            encode_attributes(bundles[-1])
        )[0]
        prefixes = [Prefix(0x0A000000 + i * 256, 24) for i in range(5)]
        block = b"".join(encode_prefix(p) for p in prefixes)
        assert decoder.prefixes(block) == prefixes
        assert decoder.prefixes(block) == prefixes
        assert len(decoder._prefixes) == 2


path_attributes = st.builds(
    PathAttributes,
    nexthop=st.integers(0, 0xFFFFFFFF),
    as_path=st.builds(
        ASPath,
        st.lists(st.integers(1, 0xFFFFFFFF), min_size=1, max_size=6),
        st.lists(st.integers(1, 0xFFFFFFFF), max_size=3),
    ),
    origin=st.sampled_from(list(Origin)),
    local_pref=st.integers(0, 0xFFFFFFFF),
    med=st.none() | st.integers(0, 0xFFFFFFFF),
    communities=st.lists(
        st.builds(
            Community, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)
        ),
        max_size=3,
    ),
    originator_id=st.none() | st.integers(0, 0xFFFFFFFF),
    cluster_list=st.lists(st.integers(0, 0xFFFFFFFF), max_size=3),
)


class TestInterning:
    @given(st.lists(path_attributes, min_size=1, max_size=6))
    @settings(deadline=None)
    def test_second_decode_returns_the_same_object(self, bundles):
        decoder = UpdateDecoder()
        for bundle in bundles:
            block = encode_attributes(bundle)
            first, skipped = decoder.attributes(block)
            again, _ = decoder.attributes(block)
            assert again is first
            assert first == bundle and skipped == ()
            assert first == decode_attributes(block)[0]

    @given(
        path_attributes,
        st.lists(
            st.builds(
                lambda network, length: Prefix(
                    network >> (32 - length) << (32 - length)
                    if length
                    else 0,
                    length,
                ),
                st.integers(0, 0xFFFFFFFF),
                st.integers(0, 32),
            ),
            min_size=1,
            max_size=5,
            unique=True,
        ),
    )
    @settings(deadline=None)
    def test_decode_equals_decode_update(self, bundle, prefixes):
        announce = encode_update(BGPUpdate.announce(prefixes, bundle))
        withdraw = encode_update(BGPUpdate.withdraw(prefixes))
        decoder = UpdateDecoder()
        for _ in range(2):  # cold tables, then warm
            for message in (announce, withdraw):
                withdrawn, attrs, nlri, skipped = decoder.decode(message)
                update = decode_update(message)
                assert [
                    w.prefix for w in update.update.withdrawals
                ] == withdrawn
                assert [
                    a.prefix for a in update.update.announcements
                ] == nlri
                assert tuple(skipped) == update.skipped_attributes
                if nlri:
                    assert attrs == bundle
                    assert all(
                        a.attributes == attrs
                        for a in update.update.announcements
                    )


class TestReportFields:
    def test_round_trip_and_older_checkpoints(self):
        report = load_updates(
            io.BytesIO(
                update_record_bytes(
                    [
                        with_attribute_block(
                            encode_attributes(ATTRS),
                            Prefix(0x0A000000 + i * 256, 24),
                        )
                        for i in range(3)
                    ]
                )
            )
        ).ingest_report
        data = report.to_dict()
        assert data["attribute_blocks"] == 3
        assert data["attribute_blocks_distinct"] == 1
        assert IngestReport.from_dict(data).to_dict() == data
        assert "attribute blocks: 3 decoded, 1 distinct" in report.summary()
        for key in NEW_KEYS:
            del data[key]
        older = IngestReport.from_dict(json.loads(json.dumps(data)))
        assert older.attribute_blocks == 0
        assert older.attribute_blocks_distinct == 0

    def test_clean_archive_counts_every_announcement(self):
        records = build_clean_records()
        buffer = io.BytesIO()
        write_records(records, buffer)
        buffer.seek(0)
        report = load_updates(buffer).ingest_report
        announcements = sum(
            bool(
                decode_update(
                    decode_bgp4mp(record.payload).bgp_message
                ).update.announcements
            )
            for record in records
        )
        assert report.attribute_blocks == announcements
        assert 0 < report.attribute_blocks_distinct <= announcements
