"""Self-contained animated SVG export.

The paper shipped TAMP animations as a custom player; the portable
equivalent today is an SVG with SMIL timing — one file, plays in any
browser, no JavaScript. Edges animate stroke color through the paper's
state palette (black/green/blue/yellow) and stroke width through their
prefix counts; the animation clock ticks along the bottom.

Only edges that actually change get ``<animate>`` elements (a 750-frame
animation of a quiet graph stays small); static structure is drawn once.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.net.prefix import Prefix
from repro.tamp.animate import EdgeState, TampAnimation
from repro.tamp.graph import TampGraph
from repro.tamp.layout import layout_graph
from repro.tamp.render import STATE_COLORS, node_label

_STATE_COLOR = {
    EdgeState.STABLE: STATE_COLORS["stable"],
    EdgeState.GAINING: STATE_COLORS["gaining"],
    EdgeState.LOSING: STATE_COLORS["losing"],
    EdgeState.FLAPPING: STATE_COLORS["flapping"],
}

#: Placeholder prefix used to materialize display-only edges.
_DISPLAY_PREFIX = Prefix(0, 0)


def render_svg_animation(
    animation: TampAnimation,
    title: str = "",
    max_thickness: float = 12.0,
) -> str:
    """Render *animation* as one SMIL-animated SVG document string."""
    display, seen_edges = _display_graph(animation)
    layout = layout_graph(display)
    margin = 120.0
    width = layout.width + 2 * margin
    height = layout.height + 2 * margin + 40
    duration = animation.play_duration
    frame_count = max(1, animation.frame_count)
    total = max(1, _max_count(animation))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" text-anchor="middle"'
            f' font-size="16" font-family="sans-serif">{escape(title)}</text>'
        )

    def position(node):
        x, y = layout.positions[node]
        return x + margin, y + margin

    # One pass over the frames collects every edge's change track,
    # keyed by packed edge id; the per-edge work below then touches
    # only that edge's own changes instead of re-walking all 750 frames
    # per edge. This loop is the decode boundary: each edge id decodes
    # exactly once, into its layout-position job.
    state_tracks, count_tracks = _edge_tracks(animation)
    weight_id = animation.tamp.graph.weight_id
    edge_jobs = []
    for eid, edge in sorted(seen_edges.items(), key=lambda item: str(item[1])):
        parent, child = edge
        if parent not in layout.positions or child not in layout.positions:
            continue
        count_track = count_tracks.get(eid, ())
        initial = count_track[0][1] if count_track else weight_id(eid)
        edge_jobs.append(
            (
                position(parent),
                position(child),
                state_tracks.get(eid, ()),
                count_track,
                initial,
            )
        )
    parts.extend(
        _render_edge_shard(
            edge_jobs, frame_count, total, max_thickness, duration
        )
    )
    for node in layout.positions:
        x, y = position(node)
        label = escape(node_label(node))
        half = max(30, 4 * len(label))
        parts.append(
            f'<rect x="{x - half:.1f}" y="{y - 11:.1f}" width="{2 * half:.1f}"'
            f' height="22" fill="#f4f4f4" stroke="#333" rx="3"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y + 4:.1f}" text-anchor="middle"'
            f' font-size="11" font-family="sans-serif">{label}</text>'
        )
    parts.append(_clock(animation, margin, height, duration))
    parts.append("</svg>")
    return "\n".join(parts)


def _display_graph(animation: TampAnimation) -> tuple[TampGraph, dict]:
    """The union of edges alive at the end or touched during play.

    Collected as packed edge ids (live graph edges plus every frame's
    id-keyed count store), decoded once into the edge-id → token-pair
    map the job builder consumes.
    """
    graph = animation.tamp.graph
    display = TampGraph()
    display.site_root = graph.site_root
    seen_ids = {eid for eid, _ in graph.raw_id_edges()}
    for frame in animation.frames:
        seen_ids.update(frame.edge_counts.ids)
    decode = graph.decode_pair
    seen = {eid: decode(eid) for eid in seen_ids}
    for parent, child in seen.values():
        display.add_prefix(parent, child, _DISPLAY_PREFIX)
    return display, seen


def _max_count(animation: TampAnimation) -> int:
    best = 0
    for _, store in animation.tamp.graph.raw_id_edges():
        best = max(best, len(store))
    for frame in animation.frames:
        counts = frame.edge_counts.ids.values()
        if counts:
            best = max(best, max(counts))
        peaks = frame.shadows.ids.values()
        if peaks:
            best = max(best, max(peaks))
    return best


def _edge_tracks(animation: TampAnimation):
    """Per-edge-id (frame index, state) and (frame index, count) tracks.

    Built in a single pass over the frames' id-keyed stores so the
    renderer's per-edge keyframe construction is proportional to each
    edge's own changes, not to edges × frames — and decodes nothing.
    """
    state_tracks: dict[int, list] = {}
    count_tracks: dict[int, list] = {}
    for frame in animation.frames:
        index = frame.index
        for eid, state in frame.edge_states.ids.items():
            track = state_tracks.get(eid)
            if track is None:
                track = state_tracks[eid] = []
            track.append((index, state))
        for eid, count in frame.edge_counts.ids.items():
            track = count_tracks.get(eid)
            if track is None:
                track = count_tracks[eid] = []
            track.append((index, count))
    return state_tracks, count_tracks


def _render_edge_shard(shard, frame_count, total, max_thickness, duration):
    """Render a run of edge jobs (plain tuples) to SVG fragments."""
    parts: list[str] = []
    for (x1, y1), (x2, y2), state_track, count_track, initial in shard:
        color_keys, width_keys = _keyframes(
            state_track, count_track, initial, frame_count, total,
            max_thickness,
        )
        initial_width = width_keys[0][1] if width_keys else 0.6
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}"'
            f' stroke="#000000" stroke-width="{initial_width:.2f}">'
        )
        if len(color_keys) > 1:
            parts.append(_animate("stroke", color_keys, duration))
        if len(width_keys) > 1:
            parts.append(
                _animate(
                    "stroke-width",
                    [(t, f"{v:.2f}") for t, v in width_keys],
                    duration,
                )
            )
        parts.append("</line>")
    return parts


def _keyframes(
    state_track, count_track, initial, frame_count, total, max_thickness
):
    """(time-fraction, value) lists for stroke color and width.

    The initial width comes from the edge's first recorded count — the
    pre-animation value is not observable from the frames — or from the
    final graph when the edge never changes (*initial*, resolved by the
    caller).
    """
    color_keys: list[tuple[float, str]] = [(0.0, _STATE_COLOR[EdgeState.STABLE])]
    width_keys: list[tuple[float, float]] = []
    width_keys.append((0.0, _width(initial or 0, total, max_thickness)))
    for index, state in state_track:
        t = (index + 1) / frame_count
        color_keys.append((t, _STATE_COLOR[state]))
        # Revert to stable on the following frame unless it changes
        # again (a same-time change key loses to the revert in _dedupe,
        # matching the historical frame-walk renderer).
        revert = min(1.0, t + 1.0 / frame_count)
        color_keys.append((revert, _STATE_COLOR[EdgeState.STABLE]))
    for index, count in count_track:
        t = (index + 1) / frame_count
        width_keys.append((t, _width(count, total, max_thickness)))
    color_keys = _dedupe(color_keys)
    width_keys = _dedupe(width_keys)
    return color_keys, width_keys


def _width(count: int, total: int, max_thickness: float) -> float:
    return max(0.6, max_thickness * count / total)


def _dedupe(keys):
    """Drop out-of-order / duplicate key times (SMIL requires monotone)."""
    out = []
    last_time = -1.0
    for t, value in keys:
        if t <= last_time:
            continue
        out.append((t, value))
        last_time = t
    return out


def _animate(attribute: str, keys, duration: float) -> str:
    key_times = ";".join(f"{t:.4f}" for t, _ in keys)
    values = ";".join(str(v) for _, v in keys)
    return (
        f'<animate attributeName="{attribute}" dur="{duration:.1f}s"'
        f' repeatCount="indefinite" calcMode="discrete"'
        f' keyTimes="{key_times}" values="{values}"/>'
    )


def _clock(animation: TampAnimation, margin, height, duration) -> str:
    """The Figure 3 animation clock, ticking via SMIL."""
    if not animation.frames:
        return ""
    # A text element per ~second of play, toggled visible in sequence.
    steps = min(30, len(animation.frames))
    stride = max(1, len(animation.frames) // steps)
    parts = []
    for i in range(0, len(animation.frames), stride):
        frame = animation.frames[i]
        begin = (frame.index / max(1, animation.frame_count)) * duration
        parts.append(
            f'<text x="{margin:.0f}" y="{height - 16:.0f}" font-size="13"'
            f' font-family="monospace" opacity="0">'
            f"{escape(frame.clock_text())}"
            f'<animate attributeName="opacity" begin="{begin:.2f}s"'
            f' dur="{duration / steps:.2f}s" values="1;1" fill="remove"'
            f' repeatCount="1"/></text>'
        )
    return "\n".join(parts)
