"""Unit tests for TAMP route chains and graphs beyond the Figure 1
example."""

from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.rib import Route
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.graph import TampGraph
from repro.tamp.picture import build_picture
from tests.tamp.reference import route_path_tokens

NH = parse_address("10.0.0.1")


def attrs(path: str, nexthop: int = NH) -> PathAttributes:
    return PathAttributes(nexthop=nexthop, as_path=ASPath.parse(path))


P = Prefix.parse("192.0.2.0/24")
OTHER = Prefix.parse("198.51.100.0/24")


def pid(graph: TampGraph, prefix: Prefix) -> int:
    return graph.symbols.intern_prefix(prefix)


def thread(graph: TampGraph, prefix: Prefix, path: str, add: bool) -> None:
    """Add or remove one route's chain, as the incremental maintainer
    does: id-level refcount changes on every edge of the chain (which
    ends at the last AS: the maintainer keeps no prefix leaves), in one
    call."""
    chain = route_path_tokens(
        ("router", "r"), prefix, attrs(path), include_prefix_leaf=False
    )
    mutate = graph.add_route_ids if add else graph.discard_route_ids
    edge_ids = [
        graph.intern_pair(parent, child)
        for parent, child in zip(chain, chain[1:])
    ]
    mutate(edge_ids, pid(graph, prefix), {})


class TestPathTokens:
    def test_chain_shape(self):
        chain = route_path_tokens(("router", "r"), P, attrs("1 2 3"))
        assert chain == [
            ("router", "r"),
            ("nh", NH),
            ("as", 1),
            ("as", 2),
            ("as", 3),
            ("pfx", P),
        ]

    def test_prepending_collapses(self):
        """AS prepending traverses one AS; the tree must not self-loop."""
        chain = route_path_tokens(("router", "r"), P, attrs("1 1 1 2"))
        assert chain == [
            ("router", "r"),
            ("nh", NH),
            ("as", 1),
            ("as", 2),
            ("pfx", P),
        ]

    def test_no_prefix_leaf(self):
        chain = route_path_tokens(
            ("router", "r"), P, attrs("1"), include_prefix_leaf=False
        )
        assert chain[-1] == ("as", 1)

    def test_empty_path_links_nexthop_to_prefix(self):
        chain = route_path_tokens(("router", "r"), P, attrs(""))
        assert chain == [("router", "r"), ("nh", NH), ("pfx", P)]


class TestTreeMaintenance:
    def test_remove_route_reverses_add(self):
        graph = TampGraph()
        thread(graph, P, "1 2", add=True)
        thread(graph, P, "1 2", add=False)
        assert graph.edge_count() == 0
        assert graph.total_prefixes() == 0

    def test_remove_keeps_shared_edges(self):
        graph = TampGraph()
        thread(graph, P, "1 2", add=True)
        thread(graph, OTHER, "1 2", add=True)
        thread(graph, P, "1 2", add=False)
        assert graph.weight(("as", 1), ("as", 2)) == 1

    def test_children(self):
        graph = build_picture([("r", [Route(P, attrs("1 2"))])])
        assert graph.children(("router", "r")) == {("nh", NH)}
        assert graph.children(("as", 1)) == {("as", 2)}
        assert graph.children(("as", 2)) == {("pfx", P)}


class TestGraphOperations:
    def test_add_prefix_returns_novelty(self):
        graph = TampGraph()
        assert graph.add_prefix(("as", 1), ("as", 2), P)
        assert not graph.add_prefix(("as", 1), ("as", 2), P)  # refcount bump
        assert graph.weight(("as", 1), ("as", 2)) == 1

    def test_discard_respects_refcounts(self):
        graph = TampGraph()
        eid = graph.intern_pair(("as", 1), ("as", 2))
        graph.add_prefix(("as", 1), ("as", 2), P)
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert not graph.discard_route_ids((eid,), pid(graph, P), {})
        assert graph.weight(("as", 1), ("as", 2)) == 1
        assert graph.discard_route_ids((eid,), pid(graph, P), {})
        assert not graph.has_edge(("as", 1), ("as", 2))

    def test_discard_unknown_is_noop(self):
        graph = TampGraph()
        eid = graph.intern_pair(("as", 1), ("as", 2))
        assert not graph.discard_route_ids((eid,), pid(graph, P), {})
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert not graph.discard_route_ids((eid,), pid(graph, OTHER), {})
        assert graph.weight(("as", 1), ("as", 2)) == 1

    def test_depths(self):
        graph = build_picture([("r", [Route(P, attrs("1 2"))])], "site")
        depths = graph.depths()
        assert depths[("root", "site")] == 0
        assert depths[("router", "r")] == 1
        assert depths[("nh", NH)] == 2
        assert depths[("as", 1)] == 3
        assert depths[("pfx", P)] == 5

    def test_edge_fraction(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        graph.add_prefix(("as", 1), ("as", 3), OTHER)
        assert graph.edge_fraction(("as", 1), ("as", 2)) == 0.5

    def test_copy_is_independent(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        duplicate = graph.copy()
        duplicate.discard_route_ids(
            (duplicate.intern_pair(("as", 1), ("as", 2)),),
            pid(duplicate, P),
            {},
        )
        assert graph.has_edge(("as", 1), ("as", 2))
        assert not duplicate.has_edge(("as", 1), ("as", 2))

    def test_roots_without_site(self):
        graph = TampGraph()
        graph.add_prefix(("router", "r"), ("nh", NH), P)
        assert graph.roots() == [("router", "r")]


class TestMergeProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # prefix index
                st.sampled_from(["1", "1 2", "2 3", "3"]),
            ),
            min_size=1,
            max_size=20,
        ),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from(["1", "1 2", "2 3", "3"]),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_merged_weight_is_union_size(self, routes_x, routes_y):
        """One-router pictures stand in for the per-router trees: every
        merged edge carries the union of the routers' prefix sets."""
        prefixes = [Prefix(0x0A000000 + i * 256, 24) for i in range(6)]
        x_routes = [Route(prefixes[i], attrs(path)) for i, path in routes_x]
        y_routes = [Route(prefixes[i], attrs(path)) for i, path in routes_y]
        x = build_picture([("X", x_routes)])
        y = build_picture([("Y", y_routes)])
        merged = build_picture([("X", x_routes), ("Y", y_routes)])
        expected_edges = set(x.edge_list()) | set(y.edge_list())
        assert set(merged.edge_list()) == expected_edges
        for (parent, child), merged_prefixes in merged.edges():
            expected = x.edge_prefixes(parent, child) | y.edge_prefixes(
                parent, child
            )
            assert merged_prefixes == expected
            assert merged.weight(parent, child) == len(expected)

    @given(st.lists(st.sampled_from(["1", "1 2", "1 2 3"]), max_size=15))
    def test_weight_bounded_by_total(self, paths):
        routes = [
            Route(Prefix(0x0A000000 + i * 256, 24), attrs(path))
            for i, path in enumerate(paths)
        ]
        graph = build_picture([("r", routes)])
        total = graph.total_prefixes()
        for (parent, child), prefixes in graph.edges():
            assert len(prefixes) <= total


class TestTotalPrefixCache:
    """total_prefixes() is cached; every mutation must invalidate it."""

    def test_add_new_prefix_invalidates(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1
        graph.add_prefix(("as", 1), ("as", 2), OTHER)
        assert graph.total_prefixes() == 2

    def test_refcount_bump_keeps_total(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1

    def test_discard_invalidates_on_last_reference(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1
        eid = graph.intern_pair(("as", 1), ("as", 2))
        graph.discard_route_ids((eid,), pid(graph, P), {})
        assert graph.total_prefixes() == 1  # one reference remains
        graph.discard_route_ids((eid,), pid(graph, P), {})
        assert graph.total_prefixes() == 0

    def test_remove_edge_invalidates(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        graph.add_prefix(("as", 1), ("as", 3), OTHER)
        assert graph.total_prefixes() == 2
        graph.remove_edge(("as", 1), ("as", 3))
        assert graph.total_prefixes() == 1

    def test_adopt_edge_invalidates(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1
        graph.adopt_edge_ids(
            graph.intern_pair(("as", 2), ("as", 3)), {pid(graph, OTHER): 2}
        )
        assert graph.total_prefixes() == 2

    def test_copy_carries_cache_safely(self):
        graph = TampGraph()
        graph.add_prefix(("as", 1), ("as", 2), P)
        assert graph.total_prefixes() == 1
        duplicate = graph.copy()
        duplicate.add_prefix(("as", 1), ("as", 2), OTHER)
        assert duplicate.total_prefixes() == 2
        assert graph.total_prefixes() == 1
