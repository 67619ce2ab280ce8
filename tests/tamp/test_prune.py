"""Unit tests for flat and hierarchical pruning."""

import pytest

from repro.bgp.rib import Route
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.graph import TampGraph
from repro.tamp.picture import build_picture
from repro.tamp.prune import prune_flat, prune_hierarchical

NH_BIG = parse_address("10.0.0.1")
NH_SMALL = parse_address("10.0.0.2")


def routes(base: int, count: int, nexthop: int, path: str) -> list[Route]:
    """*count* /24s from *base*, all over one nexthop and AS path."""
    attributes = PathAttributes(nexthop=nexthop, as_path=ASPath.parse(path))
    return [
        Route(Prefix(base + i * 256, 24), attributes) for i in range(count)
    ]


def bulk_graph(big: int = 95, small: int = 5) -> TampGraph:
    """A site graph with one heavy path and one tiny (backdoor-like) path."""
    return build_picture(
        [
            ("edge", routes(0x0A000000, big, NH_BIG, "100 200")),
            (
                "backdoor-router",
                routes(0x0B000000, small, NH_SMALL, "7018 55001"),
            ),
        ],
        "site",
        include_prefix_leaves=False,
    )


class TestFlatPrune:
    def test_default_threshold_removes_small_edges(self):
        graph = bulk_graph(big=97, small=3)
        pruned = prune_flat(graph)  # default 5%
        assert pruned.has_edge(("as", 100), ("as", 200))
        assert not pruned.has_edge(("as", 7018), ("as", 55001))
        # The backdoor router itself vanishes from the picture.
        assert ("router", "backdoor-router") not in pruned.nodes()

    def test_zero_threshold_keeps_everything(self):
        graph = bulk_graph()
        pruned = prune_flat(graph, threshold=0.0)
        assert pruned.edge_count() == graph.edge_count()

    def test_original_untouched(self):
        graph = bulk_graph(big=97, small=3)
        before = graph.edge_count()
        prune_flat(graph)
        assert graph.edge_count() == before

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            prune_flat(TampGraph(), threshold=1.5)
        with pytest.raises(ValueError):
            prune_flat(TampGraph(), threshold=-0.1)

    def test_empty_graph(self):
        pruned = prune_flat(TampGraph("site"))
        assert pruned.edge_count() == 0

    def test_orphan_subtrees_swept(self):
        """Pruning an interior edge must remove the now-unreachable tail,
        not leave a floating island."""
        graph = TampGraph("site")
        p_main = [Prefix(0x0A000000 + i * 256, 24) for i in range(99)]
        p_rare = Prefix(0x0B000000, 24)
        for p in p_main:
            for edge in [
                (("root", "site"), ("router", "r")),
                (("router", "r"), ("as", 1)),
            ]:
                graph.add_prefix(*edge, p)
        # A rare route hanging deep: r -> as2 -> as3 (1 prefix each).
        graph.add_prefix(("root", "site"), ("router", "r"), p_rare)
        graph.add_prefix(("router", "r"), ("as", 2), p_rare)
        graph.add_prefix(("as", 2), ("as", 3), p_rare)
        pruned = prune_flat(graph, threshold=0.05)
        assert not pruned.has_edge(("router", "r"), ("as", 2))
        assert not pruned.has_edge(("as", 2), ("as", 3))


class TestHierarchicalPrune:
    def test_backdoor_survives_near_root(self):
        """The Figure 5 point: with hierarchical pruning the operator's
        own routers, nexthops and neighbor ASes always show — exposing a
        two-prefix backdoor that flat pruning hides."""
        graph = bulk_graph(big=98, small=2)
        flat = prune_flat(graph)
        assert ("router", "backdoor-router") not in flat.nodes()
        hierarchical = prune_hierarchical(graph, keep_depth=4)
        assert ("router", "backdoor-router") in hierarchical.nodes()
        assert hierarchical.has_edge(("as", 7018), ("as", 55001))

    def test_deep_edges_still_pruned(self):
        graph = bulk_graph(big=98, small=2)
        # keep_depth 3 keeps root->router->nh->as edges; the as->as edge
        # at depth 3 faces the threshold.
        hierarchical = prune_hierarchical(graph, keep_depth=3)
        assert ("router", "backdoor-router") in hierarchical.nodes()
        assert not hierarchical.has_edge(("as", 7018), ("as", 55001))

    def test_growth_prunes_harder_with_depth(self):
        # A chain: 10% of prefixes going through a long path.
        graph = build_picture(
            [
                (
                    "r",
                    routes(0x0B000000, 10, NH_SMALL, "1 2 3 4 5")
                    + routes(0x0A000000, 90, NH_BIG, "9"),
                )
            ],
            "site",
            include_prefix_leaves=False,
        )
        gentle = prune_hierarchical(
            graph, threshold=0.05, keep_depth=3, growth=1.0
        )
        harsh = prune_hierarchical(
            graph, threshold=0.05, keep_depth=3, growth=2.0
        )
        assert gentle.has_edge(("as", 4), ("as", 5))
        assert not harsh.has_edge(("as", 4), ("as", 5))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            prune_hierarchical(TampGraph(), threshold=2.0)
        with pytest.raises(ValueError):
            prune_hierarchical(TampGraph(), keep_depth=-1)
        with pytest.raises(ValueError):
            prune_hierarchical(TampGraph(), growth=0.0)
