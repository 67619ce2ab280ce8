"""MRT framing and high-level loader tests."""

import io

import pytest

from repro.collector.events import EventKind
from repro.collector.rex import RouteExplorer
from repro.collector.stream import EventStream
from repro.mrt.ingest import IngestPolicy
from repro.mrt.loader import dump_rib, dump_updates, load_rib, load_updates
from repro.mrt.records import (
    SUBTYPE_BGP4MP_MESSAGE_AS4,
    TYPE_BGP4MP,
    TYPE_BGP4MP_ET,
    MRTError,
    MRTRecord,
    read_records,
    write_records,
)
from repro.simulator.synthetic import (
    BERKELEY_PROFILE,
    populate_view,
    session_reset_events,
)
from tests.collector.test_stream import event


class TestFraming:
    def test_round_trip(self, tmp_path):
        records = [
            MRTRecord(100.0, TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, b"abc"),
            MRTRecord(200.5, TYPE_BGP4MP_ET, SUBTYPE_BGP4MP_MESSAGE_AS4, b"x"),
        ]
        path = tmp_path / "frames.mrt"
        assert write_records(records, path) == 2
        restored = list(read_records(path))
        assert len(restored) == 2
        assert restored[0].payload == b"abc"
        assert restored[0].timestamp == 100.0
        # The _ET variant preserves sub-second time.
        assert restored[1].timestamp == pytest.approx(200.5, abs=1e-5)

    def test_streams_accepted(self):
        buffer = io.BytesIO()
        write_records(
            [MRTRecord(1.0, TYPE_BGP4MP, 4, b"zz")], buffer
        )
        buffer.seek(0)
        assert list(read_records(buffer))[0].payload == b"zz"

    def test_truncated_header_rejected(self):
        with pytest.raises(MRTError):
            list(read_records(io.BytesIO(b"\x00\x01\x02")))

    def test_truncated_payload_rejected(self):
        buffer = io.BytesIO()
        write_records([MRTRecord(1.0, TYPE_BGP4MP, 4, b"full")], buffer)
        data = buffer.getvalue()[:-2]
        with pytest.raises(MRTError):
            list(read_records(io.BytesIO(data)))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mrt"
        path.write_bytes(b"")
        assert list(read_records(path)) == []


class TestUpdatesRoundTrip:
    def _stream(self) -> EventStream:
        rex = RouteExplorer()
        populate_view(rex, 500, BERKELEY_PROFILE, routes_per_prefix=1.5)
        return session_reset_events(rex, 0, start=1000.0,
                                    convergence_seconds=60.0)

    def test_dump_then_load_preserves_announcements(self, tmp_path):
        stream = self._stream()
        path = tmp_path / "updates.mrt"
        assert dump_updates(stream, path) == len(stream)
        restored = load_updates(path)
        assert restored.announce_count() == stream.announce_count()

    def test_withdrawals_reaugmented_on_load(self, tmp_path):
        """The wire strips withdrawal attributes; loading replays through
        a collector, which re-attaches them — but only for routes the
        file announced first. A reset stream withdraws *before*
        re-announcing, so those withdrawals are dropped (the collector
        never knew the routes), exactly like a mid-stream archive."""
        stream = self._stream()
        path = tmp_path / "updates.mrt"
        dump_updates(stream, path)
        rex = RouteExplorer()
        load_updates(path, rex=rex)
        assert rex.dropped_withdrawals == stream.withdraw_count()

    def test_full_cycle_with_prior_announcements(self, tmp_path):
        """Announce-first streams survive a full wire round trip with
        attributes intact on withdrawals."""
        events = [
            event(1.0, prefix="10.0.0.0/8", kind=EventKind.ANNOUNCE),
            event(2.0, prefix="10.0.0.0/8", kind=EventKind.WITHDRAW),
        ]
        path = tmp_path / "pair.mrt"
        dump_updates(EventStream(events), path)
        restored = load_updates(path)
        assert len(restored) == 2
        withdrawal = [e for e in restored if e.is_withdrawal][0]
        assert withdrawal.attributes.as_path == events[0].attributes.as_path

    def test_timestamps_preserved(self, tmp_path):
        events = [event(1234.25, prefix="10.0.0.0/8")]
        path = tmp_path / "t.mrt"
        dump_updates(EventStream(events), path)
        restored = load_updates(path)
        assert restored[0].timestamp == pytest.approx(1234.25, abs=1e-5)

    def test_non_update_records_skipped(self, tmp_path):
        path = tmp_path / "mixed.mrt"
        write_records(
            [MRTRecord(1.0, 99, 0, b"not-bgp")], path
        )
        assert len(load_updates(path)) == 0

    def test_garbage_payload_skipped_unless_strict(self, tmp_path):
        from repro.mrt.ingest import IngestWarning

        path = tmp_path / "bad.mrt"
        write_records(
            [MRTRecord(1.0, TYPE_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4, b"xx")],
            path,
        )
        # A 100% skip rate crosses the warn threshold — the skip is no
        # longer silent, and the report carries the accounting.
        with pytest.warns(IngestWarning):
            stream = load_updates(path)
        assert len(stream) == 0
        assert stream.ingest_report.records_skipped == 1
        with pytest.raises((MRTError, ValueError)):
            load_updates(path, policy=IngestPolicy(strict=True))


class TestPropertyRoundTrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.integers(0, 50),  # prefix slot
                st.lists(st.integers(1, 1 << 30), min_size=1, max_size=5),
                st.booleans(),  # withdrawal?
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_random_streams_survive_the_wire(self, raw):
        """Announce-first random streams: dump to MRT, load back, and the
        collector view matches (announcements exact; withdrawals
        re-augmented whenever the route was known)."""
        import io

        from repro.collector.events import BGPEvent, EventKind
        from repro.net.aspath import ASPath
        from repro.net.attributes import PathAttributes
        from repro.net.prefix import Prefix

        events = []
        announced: set = set()
        for t, slot, path, withdraw in sorted(raw, key=lambda r: r[0]):
            prefix = Prefix(0x0A000000 + slot * 256, 24)
            attrs = PathAttributes(nexthop=0x0B000001, as_path=ASPath(path))
            if withdraw and prefix in announced:
                events.append(
                    BGPEvent(t, EventKind.WITHDRAW, 0x01010101, prefix, attrs)
                )
                announced.discard(prefix)
            else:
                events.append(
                    BGPEvent(t, EventKind.ANNOUNCE, 0x01010101, prefix, attrs)
                )
                announced.add(prefix)
        buffer = io.BytesIO()
        dump_updates(events, buffer)
        buffer.seek(0)
        restored = load_updates(buffer)
        originals = [e for e in events if not e.is_withdrawal]
        restored_announce = [e for e in restored if not e.is_withdrawal]
        assert len(restored_announce) == len(originals)
        for a, b in zip(restored_announce, originals):
            assert a.prefix == b.prefix
            assert a.attributes.as_path == b.attributes.as_path
        # Withdrawals of known routes survive with augmented attributes.
        assert restored.withdraw_count() == sum(
            1 for e in events if e.is_withdrawal
        )


class TestRibRoundTrip:
    def test_dump_then_load_preserves_inventory(self, tmp_path):
        rex = RouteExplorer()
        populate_view(rex, 1200, BERKELEY_PROFILE, routes_per_prefix=1.8)
        path = tmp_path / "rib.mrt"
        dump_rib(rex, path)
        restored = load_rib(path)
        assert restored.route_count() == rex.route_count()
        assert restored.prefix_count() == rex.prefix_count()
        assert restored.nexthop_count() == rex.nexthop_count()
        assert set(restored.peers()) == set(rex.peers())

    def test_attributes_survive(self, tmp_path):
        rex = RouteExplorer()
        populate_view(rex, 200, BERKELEY_PROFILE, routes_per_prefix=1.5)
        path = tmp_path / "rib.mrt"
        dump_rib(rex, path)
        restored = load_rib(path)
        peer = rex.peers()[0]
        for route in rex.rib(peer).routes():
            assert restored.rib(peer).get(route.prefix) == route.attributes

    def test_tamp_picture_from_mrt(self, tmp_path):
        """The point of the package: a RIB file drives a TAMP picture."""
        from repro.tamp.picture import picture_from_rex
        from repro.tamp.prune import prune_flat

        rex = RouteExplorer()
        populate_view(rex, 1000, BERKELEY_PROFILE, routes_per_prefix=1.8)
        path = tmp_path / "rib.mrt"
        dump_rib(rex, path)
        restored = load_rib(path)
        graph = prune_flat(picture_from_rex(restored, "mrt"))
        assert graph.total_prefixes() > 0
        assert graph.edge_count() > 0
