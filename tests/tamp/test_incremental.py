"""Unit tests for incremental TAMP maintenance."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent, EventKind
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.incremental import IncrementalTamp
from repro.tamp.picture import build_picture

PEER_A = parse_address("128.32.1.3")
PEER_B = parse_address("128.32.1.200")
NH = parse_address("128.32.0.66")
P = Prefix.parse("192.0.2.0/24")


def attrs(path: str, nexthop: int = NH) -> PathAttributes:
    return PathAttributes(nexthop=nexthop, as_path=ASPath.parse(path))


def announce(peer: int, prefix: Prefix, path: str, t=0.0) -> BGPEvent:
    return BGPEvent(t, EventKind.ANNOUNCE, peer, prefix, attrs(path))


def withdraw(peer: int, prefix: Prefix, path: str, t=0.0) -> BGPEvent:
    return BGPEvent(t, EventKind.WITHDRAW, peer, prefix, attrs(path))


class TestBasicMaintenance:
    def test_announcement_adds_branch(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        assert tamp.graph.weight(("as", 11423), ("as", 209)) == 1
        assert tamp.graph.weight(("root", "site"), ("router", "128.32.1.3")) == 1
        assert tamp.route_count() == 1

    def test_withdrawal_removes_branch(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        tamp.apply(withdraw(PEER_A, P, "11423 209"))
        assert tamp.graph.edge_count() == 0
        assert tamp.route_count() == 0

    def test_withdrawal_of_unknown_route_is_noop(self):
        tamp = IncrementalTamp("site")
        tamp.apply(withdraw(PEER_A, P, "11423 209"))
        assert tamp.graph.edge_count() == 0

    def test_replacement_moves_prefix(self):
        """An implicit withdrawal: the new path replaces the old one."""
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        tamp.apply(announce(PEER_A, P, "11423 2152 3356"))
        assert not tamp.graph.has_edge(("as", 11423), ("as", 209))
        assert tamp.graph.weight(("as", 2152), ("as", 3356)) == 1
        assert tamp.route_count() == 1

    def test_identical_reannouncement_is_noop(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        tamp.apply(announce(PEER_A, P, "11423 209"))
        adds, removes = tamp.consume_changes()
        # Only the first announcement pulsed.
        assert sum(adds.values()) == len(adds)
        assert not removes or all(v == 0 for v in removes.values())
        assert tamp.graph.weight(("as", 11423), ("as", 209)) == 1


class TestSharedEdges:
    def test_shared_as_edge_survives_one_peer_withdrawal(self):
        """Peer A withdrawing must not strip a prefix that peer B's route
        still carries over the same AS edge."""
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        tamp.apply(announce(PEER_B, P, "11423 209"))
        tamp.apply(withdraw(PEER_A, P, "11423 209"))
        assert tamp.graph.weight(("as", 11423), ("as", 209)) == 1
        tamp.apply(withdraw(PEER_B, P, "11423 209"))
        assert not tamp.graph.has_edge(("as", 11423), ("as", 209))

    def test_pulses_only_on_real_change(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        tamp.consume_changes()
        tamp.apply(announce(PEER_B, P, "11423 209"))
        adds, _ = tamp.consume_changes()
        # The shared AS edge gained nothing (prefix already there);
        # only peer B's router/nexthop edges pulse.
        assert (("as", 11423), ("as", 209)) not in adds
        assert (("router", "128.32.1.200"), ("nh", NH)) in adds


class TestBaseline:
    def test_load_routes_does_not_pulse(self):
        tamp = IncrementalTamp("site")
        tamp.load_routes(
            [Route(P, attrs("11423 209"), PEER_A)]
        )
        adds, removes = tamp.consume_changes()
        assert adds == {} and removes == {}
        assert tamp.graph.weight(("as", 11423), ("as", 209)) == 1

    def test_events_on_top_of_baseline(self):
        tamp = IncrementalTamp("site")
        tamp.load_routes([Route(P, attrs("11423 209"), PEER_A)])
        tamp.apply(withdraw(PEER_A, P, "11423 209"))
        _, removes = tamp.consume_changes()
        assert (("as", 11423), ("as", 209)) in removes

    def test_current_attributes(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "11423 209"))
        assert tamp.current_attributes(PEER_A, P) == attrs("11423 209")
        assert tamp.current_attributes(PEER_B, P) is None


GRID_PEERS = [PEER_A, PEER_B]
GRID_PREFIXES = [Prefix(0x0A000000 + i * 256, 24) for i in range(4)]

route_ops = st.one_of(
    st.tuples(
        st.just("announce"),
        st.sampled_from(GRID_PEERS),
        st.sampled_from(GRID_PREFIXES),
        # Two paths: a repeat is a same-attributes re-announce as often
        # as it is a replacement.
        st.sampled_from(["1 2", "1 3 4"]),
    ),
    st.tuples(
        st.just("withdraw"),
        st.sampled_from(GRID_PEERS),
        st.sampled_from(GRID_PREFIXES),
    ),
    st.tuples(st.just("export")),
)


class TestRouteExport:
    """However the table got here, an export is the table's encoding."""

    @given(st.lists(route_ops, max_size=40))
    def test_export_equals_a_fresh_maintainers(self, ops):
        tamp = IncrementalTamp("site")
        current: dict = {}
        for op in [*ops, ("export",)]:
            if op[0] == "announce":
                _, peer, prefix, path = op
                tamp.apply(announce(peer, prefix, path))
                current[peer, prefix] = attrs(path)
            elif op[0] == "withdraw":
                _, peer, prefix = op
                tamp.apply(withdraw(peer, prefix, "1 2"))
                current.pop((peer, prefix), None)
            else:
                lines = tamp.export_route_events()
                fresh = IncrementalTamp("site")
                fresh.load_routes(
                    Route(prefix, route_attrs, peer)
                    for (peer, prefix), route_attrs in current.items()
                )
                assert lines == fresh.export_route_events()
                restored = IncrementalTamp("site")
                restored.import_route_events(lines)
                assert restored.export_route_events() == lines
                assert restored.consume_changes() == ({}, {})

    @staticmethod
    def assert_export_is_the_tables_encoding(tamp, current):
        """Warm export == cold-restore export == sorted fresh encode."""
        lines = tamp.export_route_events()
        assert lines == [
            BGPEvent(
                0.0, EventKind.ANNOUNCE, peer, prefix, route_attrs
            ).to_json()
            for (peer, prefix), route_attrs in sorted(
                current.items(),
                key=lambda item: (item[0][0], str(item[0][1])),
            )
        ]
        cold = IncrementalTamp("site")
        cold.import_route_events(lines)
        assert cold.export_route_events() == lines
        assert tamp.export_route_events() == lines  # nothing dirty

    def test_reinstall_with_other_attributes_after_a_withdraw(self):
        tamp = IncrementalTamp("site")
        a, b, c = GRID_PREFIXES[:3]
        for prefix in (c, a, b):
            tamp.apply(announce(PEER_B, prefix, "1 2"))
        current = {(PEER_B, p): attrs("1 2") for p in (a, b, c)}
        self.assert_export_is_the_tables_encoding(tamp, current)
        tamp.apply(withdraw(PEER_B, b, "1 2"))
        tamp.apply(announce(PEER_B, b, "1 3 4"))
        current[PEER_B, b] = attrs("1 3 4")
        self.assert_export_is_the_tables_encoding(tamp, current)

    def test_replace_then_restore_between_two_exports(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "1 2"))
        tamp.apply(announce(PEER_B, P, "1 2"))
        current = {(PEER_A, P): attrs("1 2"), (PEER_B, P): attrs("1 2")}
        self.assert_export_is_the_tables_encoding(tamp, current)
        before = tamp.export_route_events()
        tamp.apply(announce(PEER_A, P, "1 3 4"))
        tamp.apply(announce(PEER_A, P, "1 2"))
        self.assert_export_is_the_tables_encoding(tamp, current)
        assert tamp.export_route_events() == before

    def test_withdraw_of_a_never_exported_route(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "1 2"))
        self.assert_export_is_the_tables_encoding(
            tamp, {(PEER_A, P): attrs("1 2")}
        )
        # Installed and gone again between two exports ...
        other = GRID_PREFIXES[0]
        tamp.apply(announce(PEER_A, other, "1 2"))
        tamp.apply(withdraw(PEER_A, other, "1 2"))
        # ... and withdrawn without ever having been installed.
        tamp.apply(withdraw(PEER_B, other, "1 2"))
        self.assert_export_is_the_tables_encoding(
            tamp, {(PEER_A, P): attrs("1 2")}
        )
        tamp.apply(withdraw(PEER_A, P, "1 2"))
        self.assert_export_is_the_tables_encoding(tamp, {})

    def test_peers_sort_numerically_whatever_their_width(self):
        """The one-string sort key orders peers as the ints they are."""
        tamp = IncrementalTamp("site")
        peers = [parse_address(text) for text in (
            "9.0.0.1", "10.0.0.1", "100.0.0.1", "0.0.0.9", "255.255.255.255"
        )]
        current = {}
        for peer in peers:
            for prefix in GRID_PREFIXES[:2]:
                tamp.apply(announce(peer, prefix, "1 2"))
                current[peer, prefix] = attrs("1 2")
        self.assert_export_is_the_tables_encoding(tamp, current)


def apply_route_op(tamp: IncrementalTamp, op: tuple) -> bool:
    """Apply one of ``route_ops``; False for the ``export`` marker."""
    if op[0] == "announce":
        tamp.apply(announce(op[1], op[2], op[3]))
    elif op[0] == "withdraw":
        tamp.apply(withdraw(op[1], op[2], "1 2"))
    return op[0] != "export"


class TestPulseExport:
    @given(st.lists(route_ops, max_size=30))
    def test_equals_the_repr_sorted_form(self, ops):
        """Rows as first written: decode every edge, sort by its repr."""
        tamp = IncrementalTamp("site")
        for op in ops:
            if not apply_route_op(tamp, op):
                assert tamp.export_pulses() == repr_sorted(tamp)
        exported = tamp.export_pulses()
        assert exported == repr_sorted(tamp)
        restored = IncrementalTamp("site")
        restored.import_pulses(exported)
        assert restored.export_pulses() == exported


def repr_sorted(tamp: IncrementalTamp) -> dict:
    decode = tamp.graph.decode_pair

    def encode(pulses):
        decoded = [(decode(eid), count) for eid, count in pulses.items()]
        return [
            [list(edge[0]), list(edge[1]), count]
            for edge, count in sorted(
                decoded, key=lambda item: repr(item[0])
            )
        ]

    return {"adds": encode(tamp._adds), "removes": encode(tamp._removes)}


class TestIdLevelCounts:
    """What ``TampAnnotator`` reports per window, counted on ids."""

    @given(
        st.lists(route_ops, max_size=40),
        st.booleans(),
        st.sampled_from(["site", None]),
    )
    def test_counts_equal_the_decoded_sets(self, ops, leaves, site):
        tamp = IncrementalTamp(site, include_prefix_leaves=leaves)
        graph = tamp.graph
        for op in [*ops, ("export",)]:
            apply_route_op(tamp, op)
            assert graph.node_count() == len(graph.nodes())
            assert graph.total_prefixes() == len(graph.all_prefixes())

    @given(st.lists(route_ops, max_size=25), st.booleans())
    def test_batch_merged_graphs_count_their_leaf_fringe(self, ops, site):
        """A merged graph keeps prefix leaves in the fringe, not as
        edges; a leaf is one node however many tails reach it."""
        held: dict = {}
        for op in ops:
            if op[0] == "announce":
                _, peer, prefix, path = op
                held[peer, prefix] = attrs(path)
        graph = build_picture(
            [
                (
                    str(peer),
                    [
                        Route(prefix, route_attrs)
                        for (owner, prefix), route_attrs in held.items()
                        if owner == peer
                    ],
                )
                for peer in GRID_PEERS
            ],
            "site" if site else None,
        )
        assert graph.node_count() == len(graph.nodes())
        assert graph.total_prefixes() == len(graph.all_prefixes())
        # Mixed: the same leaves again as ordinary interned edges.
        for (peer, prefix), route_attrs in held.items():
            graph.add_prefix(("as", 99), ("pfx", prefix), prefix)
            assert graph.node_count() == len(graph.nodes())
