"""Unit tests for incremental TAMP maintenance."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent, EventKind
from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.incremental import IncrementalTamp
from repro.tamp.picture import build_picture
from tests.collector.test_events import prefixes, reference_json

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
                # The texts a checkpoint joins, kept by the merge pass.
                assert lines.texts == [json.dumps(line) for line in lines]
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
        assert lines.texts == [json.dumps(line) for line in lines]
        cold = IncrementalTamp("site")
        cold.import_route_events(lines)
        assert cold.export_route_events() == lines
        again = tamp.export_route_events()  # nothing dirty
        assert again == lines and again.texts == lines.texts

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


#: ``route_ops`` over more paths and nested prefixes: replacements that
#: share a root edge, and a prefix covering two others.
count_ops = st.one_of(
    route_ops,
    st.tuples(
        st.just("announce"),
        st.sampled_from(GRID_PEERS),
        st.sampled_from([*GRID_PREFIXES, Prefix(0x0A000000, 16)]),
        st.sampled_from(["1 2", "1 3 4", "5", "1 2 6 7"]),
    ),
)


class TestPrefixCount:
    """``prefix_count()`` is kept as routes are installed and withdrawn;
    it must equal what the graph's stores union to after every op."""

    @staticmethod
    def assert_level(tamp: IncrementalTamp) -> None:
        graph = tamp.graph
        assert tamp.prefix_count() == graph.total_prefixes()
        assert tamp.prefix_count() == len(graph.all_prefixes())

    @given(
        st.lists(count_ops, max_size=40),
        st.sampled_from(["site", None]),
    )
    def test_equals_the_graph_after_every_op(self, ops, site):
        tamp = IncrementalTamp(site)
        self.assert_level(tamp)
        for op in ops:
            if not apply_route_op(tamp, op):
                # Restore a fresh maintainer from the export, go on
                # with that one.
                restored = IncrementalTamp(site)
                restored.import_route_events(tamp.export_route_events())
                assert restored.prefix_count() == tamp.prefix_count()
                tamp = restored
            self.assert_level(tamp)

    def test_counts_routes_not_announcements(self):
        tamp = IncrementalTamp("site")
        tamp.apply(announce(PEER_A, P, "1 2"))
        tamp.apply(announce(PEER_A, P, "1 2"))  # identical re-announce
        tamp.apply(announce(PEER_A, P, "1 3 4"))  # replacement
        tamp.apply(announce(PEER_B, P, "1 2"))
        assert tamp.prefix_count() == 1
        tamp.apply(withdraw(PEER_A, P, "1 3 4"))
        assert tamp.prefix_count() == 1
        tamp.apply(withdraw(PEER_B, P, "1 2"))
        tamp.apply(withdraw(PEER_B, P, "1 2"))  # nothing left to withdraw
        assert tamp.prefix_count() == 0 == tamp.graph.total_prefixes()


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
        st.sampled_from(["site", None]),
    )
    def test_counts_equal_the_decoded_sets(self, ops, site):
        tamp = IncrementalTamp(site)
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
        # Mixed: the same leaves again under another tail; add_prefix
        # puts them in the fringe too.
        for (peer, prefix), route_attrs in held.items():
            graph.add_prefix(("as", 99), ("pfx", prefix), prefix)
            assert graph.node_count() == len(graph.nodes())


class TestMemoBound:
    """Attribute churn cannot grow the apply memos without bound, and
    dropping them changes nothing a maintainer reports."""

    @staticmethod
    def memo_entries(tamp: IncrementalTamp) -> int:
        return sum(map(len, tamp._edge_ids.values()))

    def test_churned_med_keeps_the_memos_bounded(self):
        # One bundle per route and pass: each has its own path, and
        # every pass announces the whole table again with a new MED.
        table = [
            (peer, Prefix(0x0A000000 + i * 256, 24), f"{1 + i % 3} {100 + i}")
            for peer in (PEER_A, PEER_B)
            for i in range(30)
        ]
        churned = IncrementalTamp("site")
        # The reference never drops its memos: its count of entries
        # since the last drop starts too far down to reach the bound.
        reference = IncrementalTamp("site")
        reference._memoized = -(10**9)
        rebuilds = 0
        for med in range(50):
            for peer, prefix, path in table:
                bundle = PathAttributes(
                    nexthop=NH, as_path=ASPath.parse(path), med=med
                )
                event = BGPEvent(
                    float(med), EventKind.ANNOUNCE, peer, prefix, bundle
                )
                before = self.memo_entries(churned)
                churned.apply(event)
                reference.apply(event)
                live = churned.route_count()
                assert self.memo_entries(churned) <= 2 * live
                assert len(churned._chains) <= 2 * live
                rebuilds += self.memo_entries(churned) < before
            assert churned.export_pulses() == reference.export_pulses()
            assert len(churned._pulse_keys) <= churned.graph.edge_count()
            assert (
                churned.export_route_events()
                == reference.export_route_events()
            )
            assert churned.consume_id_changes() == (
                reference.consume_id_changes()
            )
            assert churned.pulse_total == reference.pulse_total
        assert rebuilds >= 20
        assert self.memo_entries(reference) == 50 * len(table)


class _Pref(int):
    """A subclassed number: the encoder, not ``repr``, writes it."""


class _Score(float):
    pass


#: ``local_pref`` / ``med`` values, the ``_json_number`` fallbacks
#: (``bool``, non-finite, subclasses) included.
route_numbers = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.floats(),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.builds(_Pref, st.integers(0, 0xFFFFFFFF)),
    st.builds(_Score, st.floats()),
)

route_bundles = st.builds(
    lambda nexthop, sequence, lp, med, comm, origin: PathAttributes(
        nexthop=nexthop,
        as_path=ASPath(sequence),
        origin=origin,
        local_pref=lp,
        med=med,
        communities=[Community(a, v) for a, v in comm],
    ),
    st.integers(0, 0xFFFFFFFF),
    st.lists(st.integers(1, 0xFFFFFFFF), max_size=5),
    st.one_of(st.just(100), route_numbers),
    st.one_of(st.none(), route_numbers),
    st.sets(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=3
    ),
    st.sampled_from(Origin),
)

routes = st.lists(
    st.tuples(st.integers(0, 0xFFFFFFFF), prefixes, route_bundles),
    max_size=10,
)


class TestRouteLines:
    """A checkpoint's route lines come from the one line assembler: the
    bytes of the route's zero-time announce event."""

    @given(routes, routes)
    def test_equal_the_announce_events_encoding(self, first, second):
        tamp = IncrementalTamp("site")
        keys = set()
        for batch in (first, second):  # the second export merges
            for peer, prefix, bundle in batch:
                tamp.apply(
                    BGPEvent(1.0, EventKind.ANNOUNCE, peer, prefix, bundle)
                )
                keys.add((peer, prefix))
            # The table's own bundle: an equal one (``True`` for ``1``)
            # announced later is not a change.
            expected = [
                BGPEvent(
                    0.0, EventKind.ANNOUNCE, peer, prefix,
                    tamp.current_attributes(peer, prefix),
                )
                for peer, prefix in sorted(
                    keys, key=lambda key: (key[0], str(key[1]))
                )
            ]
            lines = tamp.export_route_events()
            assert lines == [event.to_json() for event in expected]
            assert lines == [reference_json(event) for event in expected]
