"""Unit tests for BGP events and their serializations."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collector.events import BGPEvent, EventKind
from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.prefix import Prefix, format_address, parse_address


def event(
    kind=EventKind.WITHDRAW,
    peer="128.32.1.3",
    nexthop="128.32.0.70",
    path="11423 209 701 1299 5713",
    prefix="192.96.10.0/24",
    t=0.0,
    **attr_kwargs,
) -> BGPEvent:
    return BGPEvent(
        timestamp=t,
        kind=kind,
        peer=parse_address(peer),
        prefix=Prefix.parse(prefix),
        attributes=PathAttributes(
            nexthop=parse_address(nexthop),
            as_path=ASPath.parse(path),
            **attr_kwargs,
        ),
    )


class TestSequenceEncoding:
    def test_paper_encoding(self):
        """c = x h a1 … an p, with namespaced tokens."""
        e = event(path="11423 209")
        assert e.sequence == (
            ("peer", parse_address("128.32.1.3")),
            ("nh", parse_address("128.32.0.70")),
            ("as", 11423),
            ("as", 209),
            ("pfx", Prefix.parse("192.96.10.0/24")),
        )

    def test_namespaces_prevent_collisions(self):
        """An ASN numerically equal to an address must not unify."""
        e = event(path="209")
        tokens = set(e.sequence)
        assert ("as", 209) in tokens
        assert ("nh", 209) not in tokens

    def test_empty_path(self):
        e = event(path="")
        assert len(e.sequence) == 3  # peer, nexthop, prefix

    def test_prepending_collapses(self):
        """A prepended path traverses the AS once; the encoding must not
        let one event count a subsequence twice."""
        e = event(path="11423 11423 11423 209")
        as_tokens = [v for ns, v in e.sequence if ns == "as"]
        assert as_tokens == [11423, 209]


class TestFigure4Format:
    def test_format_matches_paper(self):
        line = event().format_line()
        assert line == (
            "W 128.32.1.3 NEXT_HOP: 128.32.0.70 "
            "ASPATH: 11423 209 701 1299 5713 PREFIX: 192.96.10.0/24"
        )

    def test_round_trip(self):
        original = event(kind=EventKind.ANNOUNCE, path="11423 209 7018 13606")
        parsed = BGPEvent.parse_line(original.format_line())
        assert parsed.kind == original.kind
        assert parsed.peer == original.peer
        assert parsed.prefix == original.prefix
        assert parsed.attributes.as_path == original.attributes.as_path


class TestJsonRoundTrip:
    def test_minimal(self):
        e = event()
        assert BGPEvent.from_json(e.to_json()) == e

    def test_full_attributes(self):
        e = event(
            kind=EventKind.ANNOUNCE,
            t=1234.5,
            local_pref=80,
            med=30,
            communities=[Community.parse("11423:65350")],
            origin=Origin.INCOMPLETE,
        )
        restored = BGPEvent.from_json(e.to_json())
        assert restored == e
        assert restored.attributes.med == 30
        assert restored.attributes.origin is Origin.INCOMPLETE

    @given(
        st.sampled_from([EventKind.ANNOUNCE, EventKind.WITHDRAW]),
        st.integers(0, 0xFFFFFFFF),
        st.lists(st.integers(1, 65535), max_size=6),
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
        st.sets(
            st.tuples(st.integers(0, 65535), st.integers(0, 65535)), max_size=3
        ),
    )
    def test_property_round_trip(self, kind, peer, path, t, comm_pairs):
        e = BGPEvent(
            timestamp=t,
            kind=kind,
            peer=peer,
            prefix=Prefix.parse("10.0.0.0/8"),
            attributes=PathAttributes(
                nexthop=parse_address("10.0.0.1"),
                as_path=ASPath(path),
                communities=[Community(a, v) for a, v in comm_pairs],
            ),
        )
        assert BGPEvent.from_json(e.to_json()) == e


_reference_encode = json.JSONEncoder(separators=(",", ":")).encode


class TestTimestampValidation:
    """``"t"`` must be a finite int or float: NaN never crosses a window
    boundary and infinity closes one at infinity."""

    @staticmethod
    def line_with(t: object) -> str:
        record = json.loads(event().to_json())
        record["t"] = t
        return json.dumps(record)

    @pytest.mark.parametrize(
        "t,shown",
        [
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (True, "True"),
            (False, "False"),
            ("12", "'12'"),
            (None, "None"),
            ([1], "[1]"),
        ],
    )
    def test_rejected_with_the_value_named(self, t, shown):
        with pytest.raises(ValueError, match="finite number") as caught:
            BGPEvent.from_json(self.line_with(t))
        assert str(caught.value).endswith(f"got {shown}")

    @pytest.mark.parametrize("t", [0, 7, 12.5, -3.0, 1e300])
    def test_finite_numbers_accepted(self, t):
        assert BGPEvent.from_json(self.line_with(t)).timestamp == t


def reference_json(e: BGPEvent) -> str:
    """The record -> ``json`` encoding :meth:`BGPEvent.to_json` writes
    by hand: the reference it must equal byte for byte."""
    attrs = e.attributes
    record: dict = {
        "t": e.timestamp,
        "k": e.kind.value,
        "peer": format_address(e.peer),
        "pfx": str(e.prefix),
        "nh": format_address(attrs.nexthop),
        "path": str(attrs.as_path),
    }
    if attrs.local_pref != 100:
        record["lp"] = attrs.local_pref
    if attrs.med is not None:
        record["med"] = attrs.med
    if attrs.communities:
        record["comm"] = sorted(str(c) for c in attrs.communities)
    if attrs.origin is not Origin.IGP:
        record["origin"] = int(attrs.origin)
    return _reference_encode(record)


asns = st.integers(1, 0xFFFFFFFF)

prefixes = st.builds(
    lambda network, length: Prefix(
        network & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF), length
    ),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 32),
)

timestamps = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 1e22, 5e-324, 1e16, 0.1, 1234.5, 0, -1]),
)

events = st.builds(
    lambda t, kind, peer, prefix, nexthop, sequence, as_set, lp, med,
    comm, origin: BGPEvent(
        timestamp=t,
        kind=kind,
        peer=peer,
        prefix=prefix,
        attributes=PathAttributes(
            nexthop=nexthop,
            as_path=ASPath(sequence, as_set),
            origin=origin,
            local_pref=lp,
            med=med,
            communities=[Community(a, v) for a, v in comm],
        ),
    ),
    timestamps,
    st.sampled_from(EventKind),
    st.integers(0, 0xFFFFFFFF),
    prefixes,
    st.integers(0, 0xFFFFFFFF),
    st.lists(asns, max_size=6),
    st.sets(asns, max_size=3),
    st.one_of(st.just(100), st.integers(0, 0xFFFFFFFF)),
    st.one_of(st.none(), st.integers(0, 0xFFFFFFFF)),
    st.sets(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=4
    ),
    st.sampled_from(Origin),
)


class TestJsonBytes:
    @given(events)
    def test_equals_the_record_encoding(self, e):
        assert e.to_json() == reference_json(e)

    @pytest.mark.parametrize(
        "t, text",
        [
            (float("nan"), "NaN"),
            (float("inf"), "Infinity"),
            (float("-inf"), "-Infinity"),
            (True, "true"),
        ],
    )
    def test_what_repr_would_misspell_takes_the_encoder(self, t, text):
        e = event(t=t)
        assert e.to_json() == reference_json(e)
        assert e.to_json().startswith(f'{{"t":{text},"k":"W",')

    @pytest.mark.parametrize(
        "first, second",
        [(0, 0.0), (0.0, -0.0), (1, True), (7, 7.0)],
    )
    def test_equal_bundles_keep_their_own_numbers(self, first, second):
        # Equal bundles share the per-bundle text cache only when their
        # numbers are exact ints: these pairs compare equal and hash
        # alike, but json writes them differently.
        for field in ("local_pref", "med"):
            one = event(kind=EventKind.ANNOUNCE, **{field: first})
            two = event(kind=EventKind.ANNOUNCE, **{field: second})
            assert one.attributes == two.attributes
            assert one.to_json() == reference_json(one)
            assert two.to_json() == reference_json(two)

    def test_every_optional_field_in_order(self):
        e = event(
            kind=EventKind.ANNOUNCE,
            t=-0.0,
            path="11423 209 {7018,13606}",
            local_pref=80,
            med=0,
            communities=[Community(2, 1), Community(1, 70)],
            origin=Origin.EGP,
        )
        assert e.to_json() == (
            '{"t":-0.0,"k":"A","peer":"128.32.1.3","pfx":"192.96.10.0/24",'
            '"nh":"128.32.0.70","path":"11423 209 {7018,13606}","lp":80,'
            '"med":0,"comm":["1:70","2:1"],"origin":1}'
        )
