"""Unit tests for layout and rendering."""

from repro.bgp.rib import Route
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, parse_address
from repro.tamp.graph import TampGraph
from repro.tamp.layout import edge_geometry, layout_graph
from repro.tamp.picture import build_picture
from repro.tamp.render import node_label, render_ascii, render_svg

NH = parse_address("128.32.0.66")


def small_site(n_big: int = 80, n_small: int = 20) -> TampGraph:
    big = PathAttributes(nexthop=NH, as_path=ASPath.parse("11423 209 701"))
    small = PathAttributes(nexthop=NH, as_path=ASPath.parse("11423 2152"))
    routes = [
        Route(Prefix(0x40000000 + i * 256, 24), big) for i in range(n_big)
    ]
    routes.extend(
        Route(Prefix(0x41000000 + i * 256, 24), small) for i in range(n_small)
    )
    return build_picture(
        [("edge-1-3", routes)], "Berkeley", include_prefix_leaves=False
    )


class TestLayout:
    def test_layers_follow_depth(self):
        graph = small_site()
        layout = layout_graph(graph)
        assert layout.layers[0] == (("root", "Berkeley"),)
        assert layout.layers[1] == (("router", "edge-1-3"),)
        assert layout.layers[2] == (("nh", NH),)
        assert layout.layers[3] == (("as", 11423),)
        assert set(layout.layers[4]) == {("as", 209), ("as", 2152)}

    def test_x_increases_with_depth(self):
        layout = layout_graph(small_site())
        x_root = layout.position(("root", "Berkeley"))[0]
        x_as = layout.position(("as", 209))[0]
        assert x_as > x_root

    def test_every_node_positioned(self):
        graph = small_site()
        layout = layout_graph(graph)
        assert set(layout.positions) == graph.nodes()

    def test_nodes_in_layer_do_not_collide(self):
        layout = layout_graph(small_site())
        for layer in layout.layers:
            ys = [layout.position(n)[1] for n in layer]
            assert len(set(ys)) == len(ys)

    def test_empty_graph(self):
        layout = layout_graph(TampGraph())
        assert layout.positions == {}
        assert layout.layers == ()

    def test_deterministic(self):
        a = layout_graph(small_site())
        b = layout_graph(small_site())
        assert a.positions == b.positions


class TestEdgeGeometry:
    def test_thickness_proportional_to_fraction(self):
        graph = small_site(n_big=80, n_small=20)
        layout = layout_graph(graph)
        geometry = edge_geometry(graph, layout)
        big = geometry[(("as", 11423), ("as", 209))]
        small = geometry[(("as", 11423), ("as", 2152))]
        assert big.fraction == 0.8
        assert small.fraction == 0.2
        assert big.thickness > small.thickness

    def test_minimum_thickness(self):
        graph = small_site(n_big=999, n_small=1)
        geometry = edge_geometry(graph, layout_graph(graph))
        tiny = geometry[(("as", 11423), ("as", 2152))]
        assert tiny.thickness >= 0.6


class TestVolumeWeightedGeometry:
    def test_weights_override_prefix_counts(self):
        """Section III-D.2: a small-prefix-count edge carrying elephant
        traffic draws thicker than a big mice-only edge."""
        graph = small_site(n_big=80, n_small=20)
        layout = layout_graph(graph)
        big_edge = (("as", 11423), ("as", 209))
        small_edge = (("as", 11423), ("as", 2152))
        weights = {small_edge: 900.0, big_edge: 100.0}
        geometry = edge_geometry(graph, layout, weights=weights)
        assert geometry[small_edge].thickness > geometry[big_edge].thickness
        assert geometry[small_edge].fraction == 1.0

    def test_missing_weight_is_zero(self):
        graph = small_site()
        layout = layout_graph(graph)
        geometry = edge_geometry(graph, layout, weights={})
        assert all(g.fraction == 0.0 for g in geometry.values())

    def test_render_svg_accepts_weights(self):
        graph = small_site()
        svg = render_svg(
            graph, weights={(("as", 11423), ("as", 209)): 42.0}
        )
        assert "<svg" in svg


class TestNodeLabels:
    def test_labels(self):
        assert node_label(("root", "Berkeley")) == "Berkeley"
        assert node_label(("router", "edge-1-3")) == "edge-1-3"
        assert node_label(("nh", NH)) == "128.32.0.66"
        assert node_label(("as", 209)) == "AS209"
        assert node_label(("pfx", Prefix.parse("1.2.3.0/24"))) == "1.2.3.0/24"


class TestAsciiRender:
    def test_contains_every_edge(self):
        graph = small_site()
        text = render_ascii(graph)
        assert "AS11423 -> AS209" in text
        assert "AS11423 -> AS2152" in text
        assert "Berkeley -> edge-1-3" in text

    def test_percentages_shown(self):
        text = render_ascii(small_site(n_big=80, n_small=20))
        assert " 80.0%" in text
        assert " 20.0%" in text

    def test_empty_graph(self):
        assert render_ascii(TampGraph()) == ""


class TestSvgRender:
    def test_valid_svg_document(self):
        import xml.etree.ElementTree as ET

        svg = render_svg(small_site(), title="Berkeley BGP")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_labels_and_title(self):
        svg = render_svg(small_site(), title="Berkeley BGP")
        assert "Berkeley BGP" in svg
        assert "AS209" in svg
        assert "128.32.0.66" in svg

    def test_edge_states_color_lines(self):
        graph = small_site()
        svg = render_svg(
            graph,
            edge_states={(("as", 11423), ("as", 209)): "losing"},
        )
        assert "#2c7bb6" in svg  # blue for losing

    def test_shadows_rendered(self):
        graph = small_site()
        svg = render_svg(
            graph,
            shadows={(("as", 11423), ("as", 209)): 0.9},
        )
        assert "#bbbbbb" in svg

    def test_clock_text(self):
        svg = render_svg(small_site(), clock_text="t = 1.5 s")
        assert "t = 1.5 s" in svg
