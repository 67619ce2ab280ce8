"""The paper's Figure 1: TAMP tree construction and merging.

Two routers X and Y hold overlapping routes through shared nexthops. The
merged graph's NexthopA–AS1 edge must weigh 4 — the size of the *union*
{1.2.1.0/24, 1.2.2.0/24, 1.2.3.0/24, 1.2.4.0/24} — not 6, the sum of the
per-router counts.
"""

from repro.bgp.rib import Route
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.graph import TampGraph
from repro.tamp.picture import build_picture

NEXTHOP_A = parse_address("10.0.0.1")
NEXTHOP_B = parse_address("10.0.0.2")


def route(prefix: str, nexthop: int, path: str) -> Route:
    return Route(
        Prefix.parse(prefix),
        PathAttributes(nexthop=nexthop, as_path=ASPath.parse(path)),
    )


#: Router X: three prefixes via NexthopA/AS1, one via NexthopB/AS2-AS3.
X_ROUTES = [
    route("1.2.1.0/24", NEXTHOP_A, "1"),
    route("1.2.2.0/24", NEXTHOP_A, "1"),
    route("1.2.3.0/24", NEXTHOP_A, "1"),
    route("1.3.1.0/24", NEXTHOP_B, "2 3"),
]

#: Router Y: overlaps X on two AS1 prefixes, adds 1.2.4.0/24.
Y_ROUTES = [
    route("1.2.2.0/24", NEXTHOP_A, "1"),
    route("1.2.3.0/24", NEXTHOP_A, "1"),
    route("1.2.4.0/24", NEXTHOP_A, "1"),
    route("1.3.1.0/24", NEXTHOP_B, "2 3"),
]


def build_x() -> TampGraph:
    """Router X's tree: the picture of its routes alone."""
    return build_picture([("X", X_ROUTES)])


def build_y() -> TampGraph:
    return build_picture([("Y", Y_ROUTES)])


def merged(site_name=None) -> TampGraph:
    return build_picture([("X", X_ROUTES), ("Y", Y_ROUTES)], site_name)


class TestPerRouterTrees:
    def test_x_tree_structure(self):
        tree = build_x()
        assert tree.weight(("router", "X"), ("nh", NEXTHOP_A)) == 3
        assert tree.weight(("nh", NEXTHOP_A), ("as", 1)) == 3
        assert tree.weight(("nh", NEXTHOP_B), ("as", 2)) == 1
        assert tree.weight(("as", 2), ("as", 3)) == 1

    def test_prefix_leaves(self):
        tree = build_x()
        assert tree.weight(("as", 1), ("pfx", Prefix.parse("1.2.1.0/24"))) == 1

    def test_total_prefixes(self):
        assert build_x().total_prefixes() == 4
        assert build_y().total_prefixes() == 4


class TestMergedGraph:
    def test_union_not_sum(self):
        """The Figure 1(c) check: NexthopA-AS1 weighs 4, not 6."""
        graph = merged()
        assert graph.weight(("nh", NEXTHOP_A), ("as", 1)) == 4

    def test_union_contents(self):
        graph = merged()
        prefixes = graph.edge_prefixes(("nh", NEXTHOP_A), ("as", 1))
        assert prefixes == frozenset(
            {
                Prefix.parse("1.2.1.0/24"),
                Prefix.parse("1.2.2.0/24"),
                Prefix.parse("1.2.3.0/24"),
                Prefix.parse("1.2.4.0/24"),
            }
        )

    def test_router_edges_stay_per_router(self):
        graph = merged()
        assert graph.weight(("router", "X"), ("nh", NEXTHOP_A)) == 3
        assert graph.weight(("router", "Y"), ("nh", NEXTHOP_A)) == 3

    def test_shared_tail_edge(self):
        graph = merged()
        # Both routers route 1.3.1.0/24 via AS2-AS3: union size 1.
        assert graph.weight(("as", 2), ("as", 3)) == 1

    def test_site_root(self):
        graph = merged(site_name="site")
        assert graph.weight(("root", "site"), ("router", "X")) == 4
        assert graph.roots() == [("root", "site")]

    def test_total_prefixes_of_merge(self):
        graph = merged()
        assert graph.total_prefixes() == 5
