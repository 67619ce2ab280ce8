"""Tests for the SMIL-animated SVG export."""

import xml.etree.ElementTree as ET

from repro.bgp.rib import Route
from repro.collector.stream import EventStream
from repro.tamp.animate import animate_stream
from repro.tamp.svg_animation import render_svg_animation
from tests.tamp.test_incremental import PEER_A, announce, attrs, withdraw
from tests.tamp.test_animate import prefixes


def leak_animation():
    baseline = [Route(p, attrs("11423 209"), PEER_A) for p in prefixes(10)]
    events = []
    for i, p in enumerate(prefixes(6)):
        events.append(withdraw(PEER_A, p, "11423 209", t=float(i)))
        events.append(announce(PEER_A, p, "11423 2152 3356", t=10.0 + i))
    return animate_stream(
        EventStream(events), baseline=baseline, play_duration=5.0, fps=4
    )


class TestSvgAnimation:
    def test_valid_xml(self):
        svg = render_svg_animation(leak_animation(), title="leak")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_changed_edges_have_animations(self):
        svg = render_svg_animation(leak_animation())
        assert "<animate" in svg
        assert 'attributeName="stroke"' in svg
        assert 'attributeName="stroke-width"' in svg

    def test_state_colors_present(self):
        svg = render_svg_animation(leak_animation())
        assert "#2c7bb6" in svg  # losing (blue)
        assert "#1a9641" in svg  # gaining (green)

    def test_vanished_edges_still_drawn(self):
        """An edge that disappears mid-animation must exist in the SVG
        (it animates down), not vanish from the picture."""
        baseline = [Route(prefixes(1)[0], attrs("11423 209"), PEER_A)]
        events = EventStream(
            [withdraw(PEER_A, prefixes(1)[0], "11423 209", t=1.0),
             announce(PEER_A, prefixes(1)[0], "9 8", t=2.0)]
        )
        animation = animate_stream(
            events, baseline=baseline, play_duration=2.0, fps=4
        )
        svg = render_svg_animation(animation)
        assert "AS209" in svg  # the dead branch is still in the picture
        assert "AS9" in svg

    def test_clock_ticks(self):
        svg = render_svg_animation(leak_animation())
        assert "t = " in svg

    def test_empty_animation(self):
        animation = animate_stream(EventStream(), play_duration=1.0, fps=2)
        svg = render_svg_animation(animation)
        ET.fromstring(svg)  # parses

    def test_keytimes_monotone(self):
        """SMIL requires strictly increasing keyTimes."""
        svg = render_svg_animation(leak_animation())
        import re

        for match in re.finditer(r'keyTimes="([^"]+)"', svg):
            times = [float(t) for t in match.group(1).split(";")]
            assert times == sorted(times)
            assert len(set(times)) == len(times)

