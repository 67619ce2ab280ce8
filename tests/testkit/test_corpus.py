"""Golden malformed-MRT corpus: determinism and per-member behavior."""

import io

import pytest

from repro.mrt.ingest import IngestPolicy
from repro.mrt.loader import load_updates
from repro.mrt.records import MRTError, write_records
from repro.testkit.corpus import (
    GOLDEN_SEED,
    build_clean_records,
    corpus_manifest,
    generate_corpus,
)

#: Members whose damage breaks individual record decodes (not framing).
DECODE_BREAKING = ("flipped-attrs", "corrupt-payloads", "bad-marker",
                   "bad-afi")

#: Members that cut the archive itself short.
FRAMING_BREAKING = ("truncated-tail", "truncated-header")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return generate_corpus(directory)


class TestDeterminism:
    def test_regeneration_is_bit_identical(self, corpus, tmp_path):
        again = generate_corpus(tmp_path / "again")
        first = corpus_manifest(next(iter(corpus.values())).parent)
        second = corpus_manifest(tmp_path / "again")
        assert first == second
        assert set(first) == set(corpus)

    def test_different_seed_different_corpus(self, corpus, tmp_path):
        other = generate_corpus(tmp_path / "other", seed=GOLDEN_SEED + 1)
        assert corpus_manifest(
            next(iter(corpus.values())).parent
        ) != corpus_manifest(tmp_path / "other")

    def test_clean_records_are_deterministic(self):
        a = build_clean_records()
        b = build_clean_records()
        assert [(r.timestamp, r.payload) for r in a] == [
            (r.timestamp, r.payload) for r in b
        ]

    def test_clean_records_decode_fully(self):
        buffer = io.BytesIO()
        write_records(build_clean_records(), buffer)
        buffer.seek(0)
        stream = load_updates(buffer)
        report = stream.ingest_report
        assert report.ok
        assert report.records_skipped == 0
        assert report.records_decoded == 60
        assert stream.withdraw_count() > 0  # lifecycles present


class TestMemberBehavior:
    def test_every_expected_member_exists(self, corpus):
        assert set(corpus) == {
            "clean", "truncated-tail", "truncated-header", "flipped-attrs",
            "corrupt-payloads", "duplicated", "dropped", "reordered",
            "bad-marker", "bad-afi",
        }

    def test_clean_member_is_clean(self, corpus):
        report = load_updates(corpus["clean"]).ingest_report
        assert report.ok and not report.suspicious

    @pytest.mark.parametrize("name", DECODE_BREAKING)
    def test_decode_breaking_members_are_counted(self, corpus, name):
        with pytest.warns(UserWarning):
            stream = load_updates(corpus[name])
        report = stream.ingest_report
        assert report.records_skipped > 0
        assert not report.ok
        assert report.error_counts
        # Nothing vanishes without accounting: every record read is
        # either ignored, decoded, or skipped — and every decoded
        # update's events are in the stream.
        assert report.records_read == (
            report.records_ignored
            + report.records_decoded
            + report.records_skipped
        )
        assert report.events_produced == len(stream)

    @pytest.mark.parametrize("name", FRAMING_BREAKING)
    def test_truncated_members_set_framing_error(self, corpus, name):
        report = load_updates(corpus[name]).ingest_report
        assert report.framing_error is not None
        assert not report.ok

    @pytest.mark.parametrize("name", DECODE_BREAKING)
    def test_strict_raises_on_decode_breaking_members(self, corpus, name):
        with pytest.raises((MRTError, ValueError)):
            load_updates(corpus[name], policy=IngestPolicy(strict=True))

    @pytest.mark.parametrize("name", FRAMING_BREAKING)
    def test_strict_raises_on_truncated_members(self, corpus, name):
        with pytest.raises(MRTError):
            load_updates(corpus[name], policy=IngestPolicy(strict=True))

    def test_dropped_member_reads_fewer_records(self, corpus):
        clean = load_updates(corpus["clean"]).ingest_report
        dropped = load_updates(corpus["dropped"]).ingest_report
        # A lossy feed decodes fine — the report still shows the
        # difference through its read count.
        assert dropped.records_skipped == 0
        assert dropped.records_read < clean.records_read

    def test_duplicated_member_reads_more_records(self, corpus):
        clean = load_updates(corpus["clean"]).ingest_report
        duplicated = load_updates(corpus["duplicated"]).ingest_report
        assert duplicated.records_read > clean.records_read

    def test_reordered_member_is_flagged(self, corpus):
        report = load_updates(corpus["reordered"]).ingest_report
        assert report.out_of_order_records > 0
        assert report.suspicious

    def test_error_budget_aborts_on_worst_member(self, corpus):
        from repro.mrt.ingest import IngestError

        policy = IngestPolicy(max_error_rate=0.05, min_records=10)
        with pytest.raises(IngestError) as exc_info:
            load_updates(corpus["corrupt-payloads"], policy=policy)
        assert exc_info.value.report.aborted
