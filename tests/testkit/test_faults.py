"""Unit tests for the seeded fault injectors and plan machinery."""

import inspect
import io

import pytest

from repro.collector.stream import EventStream
from repro.mrt.records import read_records, write_records
from repro.testkit import faults
from repro.testkit.corpus import build_clean_records
from repro.testkit.faults import (
    FAULTS,
    apply_plan_to_bytes,
    apply_plan_to_stream,
    corrupt_file,
    corrupt_payloads,
    drop_events,
    drop_records,
    duplicate_events,
    duplicate_records,
    fault_names,
    flip_attribute_bytes,
    flip_bytes,
    parse_fault_spec,
    reorder_events,
    reorder_records,
    stall_then_burst,
    truncate_bytes,
    truncate_records,
)
from tests.collector.test_stream import event

RECORDS = build_clean_records(n_updates=30)


def records_bytes(records) -> bytes:
    buffer = io.BytesIO()
    write_records(records, buffer)
    return buffer.getvalue()


def stream_fixture() -> EventStream:
    return EventStream([event(float(t)) for t in range(20)])


#: Representative sample input per level, for registry-wide checks.
SAMPLE_BY_LEVEL = {
    "bytes": records_bytes(RECORDS),
    "records": RECORDS,
    "events": stream_fixture(),
}

#: Non-default parameters that make every fault's effect observable.
ACTIVE_PARAMS = {
    "flip-bytes": {"rate": 0.2},
    "corrupt-payloads": {"rate": 0.8, "byte_rate": 0.2},
    "flip-attrs": {"rate": 0.8},
    "duplicate-records": {"rate": 0.5},
    "drop-records": {"rate": 0.5},
    "drop-events": {"rate": 0.5},
    "duplicate-events": {"rate": 0.5},
    "reorder-events": {"rate": 0.9},
    "stall-burst": {"stall_start": 2.0, "stall_seconds": 10.0},
}


def materialize(value):
    """A comparable snapshot of bytes, record lists, or streams."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, EventStream):
        return value.fingerprint()
    return [
        (r.timestamp, r.type, r.subtype, r.payload) for r in value
    ]


class TestRegistryDeterminism:
    def test_every_seeded_function_is_registered(self):
        # The replay tests below only see registered faults: a seeded
        # injector left out of FAULTS would never be replayed. The plan
        # helpers are pinned by their own determinism tests.
        plan_helpers = {apply_plan_to_bytes, apply_plan_to_stream,
                        corrupt_file}
        registered = {fault.func for fault in FAULTS.values()}
        seeded = {
            fn
            for name, fn in inspect.getmembers(faults, inspect.isfunction)
            if not name.startswith("_")
            and fn.__module__ == faults.__name__
            and "seed" in inspect.signature(fn).parameters
        }
        assert registered | plan_helpers <= seeded
        stray = seeded - registered - plan_helpers
        assert not stray, sorted(fn.__name__ for fn in stray)

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_same_seed_same_corruption(self, name):
        fault = FAULTS[name]
        sample = SAMPLE_BY_LEVEL[fault.level]
        params = ACTIVE_PARAMS.get(name, {})
        first = fault.func(sample, seed=1234, **params)
        second = fault.func(sample, seed=1234, **params)
        assert materialize(first) == materialize(second)

    @pytest.mark.parametrize(
        "name",
        # stall-burst is seed-independent by design (pure time skew).
        sorted(set(FAULTS) - {"stall-burst"}),
    )
    def test_different_seed_different_corruption(self, name):
        fault = FAULTS[name]
        sample = SAMPLE_BY_LEVEL[fault.level]
        params = ACTIVE_PARAMS.get(name, {})
        outputs = {
            bytes(str(materialize(fault.func(sample, seed=s, **params))),
                  "utf-8")
            for s in range(8)
        }
        assert len(outputs) > 1

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_inputs_never_mutated(self, name):
        fault = FAULTS[name]
        sample = SAMPLE_BY_LEVEL[fault.level]
        before = materialize(sample)
        fault.func(sample, seed=99, **ACTIVE_PARAMS.get(name, {}))
        assert materialize(sample) == before


class TestByteLevel:
    def test_truncate_bounds(self):
        data = records_bytes(RECORDS)
        out = truncate_bytes(data, keep_min=0.4, keep_max=0.6, seed=3)
        assert int(len(data) * 0.4) <= len(out) <= int(len(data) * 0.6)

    def test_truncate_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            truncate_bytes(b"xx", keep_min=0.9, keep_max=0.2, seed=1)

    def test_flip_rate_zero_is_identity(self):
        data = records_bytes(RECORDS)
        assert flip_bytes(data, rate=0.0, seed=5) == data

    def test_flip_respects_start(self):
        data = bytes(64)
        out = flip_bytes(data, rate=1.0, start=32, seed=5)
        assert out[:32] == data[:32]
        assert out[32:] != data[32:]

    def test_flipped_bytes_always_change(self):
        # rate=1 with a nonzero mask: every byte must differ.
        data = bytes(range(64))
        out = flip_bytes(data, rate=1.0, seed=5)
        assert all(a != b for a, b in zip(data, out))


class TestRecordLevel:
    def test_truncate_records_is_a_prefix(self):
        out = truncate_records(RECORDS, seed=7)
        assert out == RECORDS[: len(out)]

    def test_corrupt_payloads_keeps_framing(self):
        out = corrupt_payloads(RECORDS, rate=0.9, byte_rate=0.2, seed=7)
        # Re-framing must survive: the damage is inside payloads only.
        assert len(list(read_records(io.BytesIO(records_bytes(out))))) == \
            len(RECORDS)

    def test_flip_attrs_spares_envelope_and_header(self):
        out = flip_attribute_bytes(RECORDS, rate=1.0, flips=3, seed=7)
        changed = 0
        for before, after in zip(RECORDS, out):
            assert after.payload[:41] == before.payload[:41]
            if after.payload != before.payload:
                changed += 1
        assert changed > 0

    def test_duplicates_are_in_place(self):
        out = duplicate_records(RECORDS, rate=0.5, seed=7)
        assert len(out) > len(RECORDS)
        # Clean records are all distinct, so collapsing consecutive
        # repeats must recover the original sequence exactly.
        deduped = [
            r for i, r in enumerate(out) if i == 0 or out[i - 1] != r
        ]
        assert deduped == list(RECORDS)

    def test_drop_keeps_relative_order(self):
        out = drop_records(RECORDS, rate=0.5, seed=7)
        assert 0 < len(out) < len(RECORDS)
        it = iter(RECORDS)
        for record in out:  # subsequence check
            for candidate in it:
                if candidate == record:
                    break
            else:
                pytest.fail("dropped output is not a subsequence")

    def test_reorder_is_bounded(self):
        window = 5
        out = reorder_records(RECORDS, window=window, seed=7)
        assert sorted(r.timestamp for r in out) == [
            r.timestamp for r in RECORDS
        ]
        home = {id(r): i for i, r in enumerate(RECORDS)}
        for position, record in enumerate(out):
            assert abs(home[id(record)] - position) < window

    def test_reorder_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            reorder_records(RECORDS, window=1, seed=7)


class TestEventLevel:
    def test_drop_and_duplicate_counts(self):
        stream = stream_fixture()
        assert len(drop_events(stream, rate=0.5, seed=3)) < len(stream)
        assert len(duplicate_events(stream, rate=0.5, seed=3)) > len(stream)

    def test_reorder_events_shifts_timestamps(self):
        stream = stream_fixture()
        out = reorder_events(stream, rate=1.0, max_shift=3.0, seed=3)
        assert len(out) == len(stream)
        assert {e.timestamp for e in out} != {e.timestamp for e in stream}

    def test_stall_then_burst_collapses_the_window(self):
        stream = stream_fixture()
        out = stall_then_burst(
            stream, stall_start=5.0, stall_seconds=10.0, seed=0
        )
        at_end = [e for e in out if e.timestamp == 15.0]
        # 10 stalled events (t=5..14) plus the original t=15 event.
        assert len(at_end) == 11
        assert len(out) == len(stream)
        assert not [e for e in out if 5.0 <= e.timestamp < 15.0]

    def test_stall_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            stall_then_burst(
                stream_fixture(), stall_start=1.0, stall_seconds=0.0, seed=0
            )


class TestSpecsAndPlans:
    def test_parse_plain_name(self):
        assert parse_fault_spec("drop-records") == ("drop-records", {})

    def test_parse_parameters_int_and_float(self):
        name, params = parse_fault_spec("flip-attrs:rate=0.3,flips=4")
        assert name == "flip-attrs"
        assert params == {"rate": 0.3, "flips": 4}
        assert isinstance(params["flips"], int)

    def test_parse_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown fault"):
            parse_fault_spec("melt-cpu")

    def test_parse_unknown_parameter(self):
        with pytest.raises(ValueError, match="takes"):
            parse_fault_spec("drop-records:severity=11")

    def test_parse_malformed_parameter(self):
        with pytest.raises(ValueError, match="want k=v"):
            parse_fault_spec("drop-records:rate")

    def test_fault_names_filter_by_level(self):
        assert "flip-bytes" in fault_names("bytes")
        assert "flip-bytes" not in fault_names("events")
        assert fault_names() == sorted(FAULTS)

    def test_plan_composition_is_deterministic(self):
        data = records_bytes(RECORDS)
        plan = [
            ("flip-attrs", {"rate": 0.5}),
            ("drop-records", {"rate": 0.2}),
            ("truncate-bytes", {"keep_min": 0.5, "keep_max": 0.9}),
        ]
        assert apply_plan_to_bytes(data, plan, seed=42) == \
            apply_plan_to_bytes(data, plan, seed=42)
        assert apply_plan_to_bytes(data, plan, seed=42) != \
            apply_plan_to_bytes(data, plan, seed=43)

    def test_plan_steps_get_distinct_seeds(self):
        # The same fault twice in one plan must corrupt differently.
        data = records_bytes(RECORDS)
        once = apply_plan_to_bytes(
            data, [("flip-attrs", {"rate": 0.5})], seed=42
        )
        twice = apply_plan_to_bytes(
            data,
            [("flip-attrs", {"rate": 0.5}), ("flip-attrs", {"rate": 0.5})],
            seed=42,
        )
        assert twice != once

    def test_event_fault_rejected_at_byte_level(self):
        with pytest.raises(ValueError, match="operates on events"):
            apply_plan_to_bytes(b"", [("drop-events", {})], seed=1)

    def test_record_fault_rejected_at_stream_level(self):
        with pytest.raises(ValueError, match="apply_plan_to_bytes"):
            apply_plan_to_stream(
                stream_fixture(), [("drop-records", {})], seed=1
            )

    def test_stream_plan_applies_in_order(self):
        stream = stream_fixture()
        out = apply_plan_to_stream(
            stream,
            [
                ("stall-burst", {"stall_start": 0.0, "stall_seconds": 5.0}),
                ("drop-events", {"rate": 0.3}),
            ],
            seed=11,
        )
        assert isinstance(out, EventStream)
        assert len(out) < len(stream)
        assert not [e for e in out if 0.0 <= e.timestamp < 5.0]


class TestCorruptFile:
    def test_round_trip_and_stats(self, tmp_path):
        source = tmp_path / "clean.mrt"
        source.write_bytes(records_bytes(RECORDS))
        destination = tmp_path / "broken.mrt"
        stats = corrupt_file(
            source, destination,
            [("drop-records", {"rate": 0.3})], seed=9,
        )
        assert destination.exists()
        assert stats["bytes_in"] == len(source.read_bytes())
        assert stats["bytes_out"] == len(destination.read_bytes())
        assert stats["bytes_out"] < stats["bytes_in"]

    def test_same_seed_reproduces_the_file(self, tmp_path):
        source = tmp_path / "clean.mrt"
        source.write_bytes(records_bytes(RECORDS))
        a, b = tmp_path / "a.mrt", tmp_path / "b.mrt"
        plan = [("corrupt-payloads", {"rate": 0.5})]
        corrupt_file(source, a, plan, seed=77)
        corrupt_file(source, b, plan, seed=77)
        assert a.read_bytes() == b.read_bytes()
