"""TAMP: Threshold And Merge Prefixes.

Section III-A of the paper. TAMP turns a set of BGP routes into a picture
of inter-domain routing *as the routers see it*: each router's routes form
a virtual tree (router → BGP nexthops → ASes along the path → prefixes),
the trees merge into a graph whose edge weights are unique-prefix counts
(set union, never addition), thresholds prune the long tail so only the
heavily used structure remains, and a layered layout renders left-to-right
with edge thickness proportional to prefixes carried.

Given an event stream instead of a snapshot, :mod:`repro.tamp.animate`
produces a fixed-duration animation (30 s at 25 fps by default) whose edge
colors encode change: black stable, green gaining, blue losing, yellow
flapping too fast to animate, with a gray shadow marking each shrunken
edge's historical maximum.
"""

from repro.tamp.graph import TampGraph
from repro.tamp.picture import (
    build_picture,
    picture_from_events,
    picture_from_rex,
)
from repro.tamp.prune import prune_flat, prune_hierarchical
from repro.tamp.layout import layout_graph, LayoutResult
from repro.tamp.render import render_ascii, render_svg
from repro.tamp.incremental import IncrementalTamp
from repro.tamp.animate import (
    EdgeState,
    TampAnimation,
    TampFrame,
    animate_stream,
)
from repro.tamp.svg_animation import render_svg_animation

__all__ = [
    "TampGraph",
    "build_picture",
    "picture_from_events",
    "picture_from_rex",
    "prune_flat",
    "prune_hierarchical",
    "layout_graph",
    "LayoutResult",
    "render_ascii",
    "render_svg",
    "IncrementalTamp",
    "TampAnimation",
    "TampFrame",
    "EdgeState",
    "animate_stream",
    "render_svg_animation",
]
