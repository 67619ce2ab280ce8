"""Unit tests for the recursive Stemming decomposition."""

from repro.collector.events import BGPEvent, EventKind
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.stemming.stemmer import Stemmer, _contains


def mk_event(
    t, peer, nexthop, path, prefix, kind=EventKind.WITHDRAW, med=None
):
    return BGPEvent(
        timestamp=t,
        kind=kind,
        peer=parse_address(peer),
        prefix=Prefix.parse(prefix),
        attributes=PathAttributes(
            nexthop=parse_address(nexthop),
            as_path=ASPath.parse(path),
            med=med,
        ),
    )


def spike(path: str, count: int, start_prefix: int = 0, peer="1.1.1.1"):
    """*count* withdrawals sharing *path* but diverging after it.

    Each event gets a distinct origin AS appended, mimicking a failure at
    the last edge of *path* whose fallout fans out to many destinations —
    the Figure 4 shape.
    """
    return [
        mk_event(
            float(i),
            peer,
            "2.2.2.2",
            f"{path} {60000 + start_prefix + i}",
            f"10.{(start_prefix + i) >> 8}.{(start_prefix + i) & 0xFF}.0/24",
        )
        for i in range(count)
    ]


class TestDecomposition:
    def test_empty_stream(self):
        result = Stemmer().decompose([])
        assert result.components == ()
        assert result.coverage() == 0.0
        assert result.strongest is None

    def test_single_component(self):
        result = Stemmer().decompose(spike("100 200 300", 20))
        assert len(result.components) == 1
        assert result.components[0].location == (200, 300)
        assert result.coverage() == 1.0

    def test_two_components_ranked_by_strength(self):
        events = spike("100 200 300", 30) + spike(
            "500 600 700", 10, start_prefix=1000, peer="5.5.5.5"
        )
        result = Stemmer().decompose(events)
        assert len(result.components) == 2
        assert result.components[0].location == (200, 300)
        assert result.components[1].location == (600, 700)
        assert result.components[0].strength > result.components[1].strength

    def test_component_removal_is_by_prefix(self):
        """Events sharing a prefix with component 1 must not re-appear in
        component 2, even if their paths differ."""
        flap = spike("100 200 300", 10)
        # Same prefixes announced over an alternate path.
        alternates = [
            mk_event(
                100.0 + i,
                "1.1.1.1",
                "2.2.2.2",
                "900 910 300",
                str(e.prefix),
                EventKind.ANNOUNCE,
            )
            for i, e in enumerate(flap)
        ]
        result = Stemmer().decompose(flap + alternates)
        assert len(result.components) == 1
        assert result.components[0].event_count == 20

    def test_min_strength_stops_recursion(self):
        events = spike("100 200 300", 10) + [
            mk_event(99.0, "9.9.9.9", "8.8.8.8", "1 2 3", "192.0.2.0/24")
        ]
        result = Stemmer(min_strength=2).decompose(events)
        assert len(result.components) == 1
        assert result.residual_events == 1
        assert 0.9 < result.coverage() < 1.0

    def test_max_components_bound(self):
        events = []
        for i in range(8):
            events += spike(
                f"{100 + i} {200 + i} 300",
                5,
                start_prefix=i * 100,
                peer=f"5.5.5.{i + 1}",
            )
        result = Stemmer(max_components=3).decompose(events)
        assert len(result.components) == 3

    def test_component_at_lookup(self):
        events = spike("100 200 300", 10)
        result = Stemmer().decompose(events)
        assert result.component_at((200, 300)) is result.components[0]
        assert result.component_at((1, 2)) is None

    def test_oscillation_beats_reset_over_long_windows(self):
        """Section III-B's key claim: over a long window, a single-prefix
        oscillation accumulates more correlation than a one-shot reset."""
        reset = spike("100 200 300", 50)  # one event per prefix
        oscillation = [
            mk_event(
                1000.0 + i,
                "3.3.3.3",
                "4.4.4.4",
                "700 800",
                "4.5.0.0/16",
                EventKind.WITHDRAW if i % 2 else EventKind.ANNOUNCE,
            )
            for i in range(200)
        ]
        result = Stemmer().decompose(reset + oscillation)
        top = result.components[0]
        assert top.prefixes == frozenset({Prefix.parse("4.5.0.0/16")})
        assert top.strength == 200

    def test_bundles_sharing_a_sequence_keep_arrival_order(self):
        # MED differs, the rendered sequence does not: one bucket, and
        # simultaneous events come out as they arrived.
        def arrival(t, med=None):
            return mk_event(
                t, "1.1.1.1", "2.2.2.2", "100 200", "10.0.0.0/24", med=med
            )

        events = [arrival(1.0), arrival(2.0, med=5), arrival(2.0)]
        assert events[0].sequence == events[1].sequence
        assert events[0].attributes != events[1].attributes
        component = Stemmer().decompose(events).strongest
        assert [id(e) for e in component.events] == [id(e) for e in events]
        top = Stemmer().strongest_component(events)
        assert [id(e) for e in top.events] == [id(e) for e in events]

    def test_rank_numbers_sequential(self):
        events = spike("100 200 300", 20) + spike(
            "500 600 700", 10, start_prefix=1000, peer="5.5.5.5"
        )
        result = Stemmer().decompose(events)
        assert [c.rank for c in result.components] == [1, 2]

    def test_summary_and_describe(self):
        result = Stemmer().decompose(spike("100 200 300", 5))
        text = result.summary()
        assert "components" in text
        assert "AS200--AS300" in text


class TestSessionResetLocalization:
    def test_peer_session_loss_stems_at_peer_nexthop(self):
        """When one peer withdraws everything across *diverse* paths, the
        only common structure is the peer+nexthop pair — localizing the
        problem at the session, which is where it is."""
        events = [
            mk_event(
                float(i),
                "1.1.1.1",
                "2.2.2.2",
                f"{100 + i % 17} {200 + i % 13} {300 + i}",
                f"10.{i >> 8}.{i & 0xFF}.0/24",
            )
            for i in range(60)
        ]
        component = Stemmer().strongest_component(events)
        assert component.stem == (
            ("peer", parse_address("1.1.1.1")),
            ("nh", parse_address("2.2.2.2")),
        )
        assert component.strength == 60


class TestContains:
    def test_contains_basic(self):
        seq = (("as", 1), ("as", 2), ("as", 3))
        assert _contains(seq, (("as", 2), ("as", 3)))
        assert not _contains(seq, (("as", 3), ("as", 2)))
        assert not _contains(seq, (("as", 1), ("as", 3)))

    def test_needle_longer_than_sequence(self):
        assert not _contains((("as", 1),), (("as", 1), ("as", 2)))
