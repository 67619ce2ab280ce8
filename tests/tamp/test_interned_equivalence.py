"""The interned TAMP pipeline must reproduce the original builder.

The rewrite (DESIGN.md §10) swapped per-edge ``set[Prefix]`` stores for
interned id stores and added a fused fast path — all pure
implementation: these tests pin the decoded results to the preserved
pre-rewrite builder (:mod:`repro.tamp.reference`) at every observable
level:

* the edge set and per-edge prefix sets (the weights),
* the per-edge refcount maps,
* the flat-prune survivors,
* the rendered picture, byte for byte,

on both site profiles. A final family checks the batch event path
against incremental maintenance, and the ``total_prefixes`` cache
against mutate-after-read staleness.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent, EventKind
from repro.collector.rex import RouteExplorer
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, format_address, parse_address
from repro.simulator.synthetic import (
    BERKELEY_PROFILE,
    ISP_ANON_PROFILE,
    populate_view,
)
from repro.tamp.graph import TampGraph
from repro.tamp.incremental import IncrementalTamp
from repro.tamp.picture import (
    build_picture,
    picture_from_events,
    picture_from_rex,
)
from repro.tamp.prune import prune_flat
from repro.tamp.render import render_svg
from repro.tamp.reference import (
    ReferenceTampGraph,
    ReferenceTampTree,
    reference_picture,
    reference_prune_flat,
)

#: profile, route count, routes-per-prefix (Berkeley has only 4 peers,
#: so its multi-homing factor must stay below that).
PROFILES = {
    "berkeley": (BERKELEY_PROFILE, 1_200, 1.8),
    "isp-anon": (ISP_ANON_PROFILE, 6_000, 7.5),
}


#: The small generated views' vocabulary: two nexthops, paths that
#: share prefixes of each other, a prepended one and an empty one.
NEXTHOPS = (parse_address("10.0.0.1"), parse_address("10.0.0.2"))
PATHS = ("1", "1 2", "1 2 3", "2 3", "3 3 4", "")
SMALL_ATTRS = {
    (nexthop, path): PathAttributes(
        nexthop=nexthop, as_path=ASPath.parse(path)
    )
    for nexthop in NEXTHOPS
    for path in PATHS
}


def route_groups(profile_name, seed=2002):
    profile, n_routes, per_prefix = PROFILES[profile_name]
    rex = RouteExplorer()
    populate_view(
        rex, n_routes, profile, routes_per_prefix=per_prefix, seed=seed
    )
    return [
        (format_address(peer), list(rex.rib(peer).routes()))
        for peer in rex.peers()
    ]


def merge_one_router(graph, name, routes):
    """One router's routes through ``merge_view``, grouped by bundle."""
    by_attrs = {}
    for route in routes:
        by_attrs.setdefault(route.attributes, []).append(route.prefix)
    graph.merge_view([(name, by_attrs)])


def decoded(graph):
    return {edge: set(prefixes) for edge, prefixes in graph.edges()}


def svg_digest(graph, title):
    return hashlib.sha256(
        render_svg(graph, title=title).encode()
    ).hexdigest()


class TestInternedMatchesReference:
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_serial_build_identical(self, profile_name):
        groups = route_groups(profile_name)
        reference = reference_picture(groups, "site", threshold=None)
        interned = build_picture(groups, "site")
        assert decoded(interned) == decoded(reference)
        assert dict(interned.raw_edges()) == dict(reference.raw_edges())
        assert interned.total_prefixes() == reference.total_prefixes()
        ref_pruned = reference_prune_flat(reference)
        pruned = prune_flat(interned)
        assert decoded(pruned) == decoded(ref_pruned)
        assert svg_digest(pruned, profile_name) == svg_digest(
            ref_pruned, profile_name
        )

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 5)),
            st.tuples(st.sampled_from(NEXTHOPS), st.sampled_from(PATHS)),
            max_size=18,
        ),
        st.sampled_from(["site", None]),
        st.booleans(),
    )
    def test_build_picture_matches_reference(self, view, site, leaves):
        """Generated multi-router views, one route per (router, prefix):
        the fused build equals the oracle's tree-then-merge build."""
        groups = [
            (
                f"r{router}",
                [
                    Route(
                        Prefix(0x0A000000 + index * 256, 24),
                        SMALL_ATTRS[key],
                    )
                    for (owner, index), key in view.items()
                    if owner == router
                ],
            )
            for router in range(3)
        ]
        reference = reference_picture(groups, site, leaves, threshold=None)
        interned = build_picture(groups, site, leaves)
        assert decoded(interned) == decoded(reference)
        assert dict(interned.raw_edges()) == dict(reference.raw_edges())
        assert interned.total_prefixes() == reference.total_prefixes()

    def test_merge_tree_matches_fused_path(self):
        """Router-at-a-time merge_view (fused) == the oracle's
        from_routes + merge_tree."""
        groups = route_groups("berkeley")
        fused = TampGraph("site")
        for name, routes in groups:
            merge_one_router(fused, name, routes)
        columnar = ReferenceTampGraph("site")
        for name, routes in groups:
            columnar.merge_tree(ReferenceTampTree.from_routes(name, routes))
        assert decoded(fused) == decoded(columnar)
        assert dict(fused.raw_edges()) == dict(columnar.raw_edges())

    def test_picture_from_rex_matches_build_picture(self):
        profile, n_routes, per_prefix = PROFILES["berkeley"]
        rex = RouteExplorer()
        populate_view(
            rex, n_routes, profile, routes_per_prefix=per_prefix, seed=7
        )
        groups = [
            (format_address(peer), list(rex.rib(peer).routes()))
            for peer in rex.peers()
        ]
        assert decoded(picture_from_rex(rex, "site")) == decoded(
            build_picture(groups, "site")
        )


class TestEventPathEquivalence:
    def _events(self):
        events = []
        clock = 0.0
        for name, routes in route_groups("berkeley"):
            for route in routes:
                events.append(
                    BGPEvent(
                        clock,
                        EventKind.ANNOUNCE,
                        route.peer,
                        route.prefix,
                        route.attributes,
                    )
                )
                clock += 0.25
        # Withdraw a slice so the replay path exercises removals too.
        for event in events[:: 40]:
            events.append(
                BGPEvent(
                    clock, EventKind.WITHDRAW, event.peer, event.prefix, None
                )
            )
            clock += 0.25
        return events

    def test_batch_replay_matches_incremental(self):
        events = self._events()
        tamp = IncrementalTamp("site")
        tamp.apply_all(events)
        batch = picture_from_events(events, "site")
        # Same picture: edge sets and weights agree. (Refcounts on the
        # site edge legitimately differ: incremental maintenance counts
        # per routing event, the batch build once per surviving route.)
        assert decoded(batch) == decoded(tamp.graph)


class TestTotalPrefixesCache:
    def test_mutate_after_read_recomputes(self):
        """The cached total must not survive any mutation path."""
        graph = TampGraph("site")
        a, b, c = ("router", "r1"), ("as", 1), ("as", 2)
        graph.add_prefix(a, b, Prefix(0x0A000000, 24))
        assert graph.total_prefixes() == 1  # prime the cache
        graph.add_prefix(a, b, Prefix(0x0B000000, 24))
        assert graph.total_prefixes() == 2
        graph.add_prefix(b, c, Prefix(0x0B000000, 24))
        assert graph.total_prefixes() == 2
        ab, bc = graph.intern_pair(a, b), graph.intern_pair(b, c)
        first = graph.symbols.intern_prefix(Prefix(0x0A000000, 24))
        second = graph.symbols.intern_prefix(Prefix(0x0B000000, 24))
        graph.discard_route_ids((ab,), first, {})
        assert graph.total_prefixes() == 1
        graph.discard_route_ids((bc,), second, {})
        assert graph.total_prefixes() == 1
        graph.discard_route_ids((ab,), second, {})
        assert graph.total_prefixes() == 0

    def test_merge_invalidates_cached_total(self):
        groups = route_groups("berkeley")
        graph = TampGraph("site")
        name, routes = groups[0]
        merge_one_router(graph, name, routes)
        before = graph.total_prefixes()  # prime the cache
        for name, routes in groups[1:]:
            merge_one_router(graph, name, routes)
        fresh = build_picture(groups, "site")
        assert graph.total_prefixes() == fresh.total_prefixes()
        assert graph.total_prefixes() >= before
