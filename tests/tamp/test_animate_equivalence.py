"""Equivalence suite pinning the interned animator to an object-level one.

:func:`repro.tamp.animate.animate_stream` diffs frames on packed edge
ids against the maintainer's id-keyed refcount stores and decodes
tokens lazily (DESIGN.md §10). This suite replays the same streams
through an object-level reference animator — token-keyed edge Counters,
per-event ``route_path_tokens`` re-tokenization, the seed formulation —
and asserts the decoded frames (counts, states, shadows), tracked
series, and final graph state are identical. Streams come from
Hypothesis scripts over a small route universe and from the seeded
synthetic generator.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.events import BGPEvent, EventKind
from repro.collector.stream import EventStream
from repro.net.prefix import Prefix
from repro.tamp.animate import EdgeState, animate_stream
from repro.tamp.incremental import default_peer_namer
from tests.tamp.reference import route_path_tokens
from tests.tamp.test_incremental import NH, PEER_A, PEER_B, attrs

PREFIXES = [Prefix.parse(f"10.{i}.0.0/16") for i in range(3)]
PATHS = ["11423 209", "11423 2152 3356", "7018 209"]


class ObjectLevelAnimator:
    """The pre-interning animation formulation, kept token-level on
    purpose: per-event chain re-tokenization, token-pair dict keys,
    ``Counter[Prefix]`` edge stores. Slow and allocation-heavy — which
    is why it lives in a test — but unambiguous."""

    def __init__(self, site_name="site"):
        self.site = ("root", site_name)
        self.routes = {}
        self.edges = {}
        self.adds = {}
        self.removes = {}

    def chain_of(self, peer, prefix, attributes):
        root = ("router", default_peer_namer(peer))
        chain = route_path_tokens(root, prefix, attributes, False)
        return [self.site, *chain]

    def edges_of(self, event):
        chain = self.chain_of(event.peer, event.prefix, event.attributes)
        return list(zip(chain, chain[1:]))

    def weight(self, edge):
        return len(self.edges.get(edge, ()))

    def _add(self, peer, prefix, attributes):
        chain = self.chain_of(peer, prefix, attributes)
        for edge in zip(chain, chain[1:]):
            store = self.edges.setdefault(edge, Counter())
            store[prefix] += 1
            if store[prefix] == 1:
                self.adds[edge] = self.adds.get(edge, 0) + 1

    def _remove(self, peer, prefix, attributes):
        chain = self.chain_of(peer, prefix, attributes)
        for edge in zip(chain, chain[1:]):
            store = self.edges.get(edge)
            if store is None or prefix not in store:
                continue
            store[prefix] -= 1
            if store[prefix] == 0:
                del store[prefix]
                self.removes[edge] = self.removes.get(edge, 0) + 1
                if not store:
                    del self.edges[edge]

    def apply(self, event):
        key = (event.peer, event.prefix)
        if event.is_withdrawal:
            old = self.routes.pop(key, None)
            if old is not None:
                self._remove(event.peer, event.prefix, old)
            return
        old = self.routes.get(key)
        if old == event.attributes:
            return
        if old is not None:
            self._remove(event.peer, event.prefix, old)
        self.routes[key] = event.attributes
        self._add(event.peer, event.prefix, event.attributes)

    def consume(self):
        adds, removes = self.adds, self.removes
        self.adds, self.removes = {}, {}
        return adds, removes


def reference_animation(events, play_duration, fps, track_edges=()):
    """Token-level frame generation mirroring the animator's contract."""
    import bisect

    ref = ObjectLevelAnimator()
    frame_count = int(round(play_duration * fps))
    all_events = list(events)
    start = events.start_time if len(events) else 0.0
    end = events.end_time if len(events) else 0.0
    timerange = max(0.0, (end or 0.0) - (start or 0.0))
    slice_width = timerange / frame_count
    origin = start or 0.0
    keys = [e.timestamp for e in all_events]
    breaks = [
        bisect.bisect_left(keys, origin + (i + 1) * slice_width)
        for i in range(frame_count - 1)
    ]
    breaks.append(len(all_events))
    tracked = {edge: [(0.0, ref.weight(edge))] for edge in track_edges}
    max_counts = {edge: len(store) for edge, store in ref.edges.items()}
    shadowed = {}
    frames = []
    event_index = 0
    for index in range(frame_count):
        for event in all_events[event_index:breaks[index]]:
            ref.apply(event)
            for edge in ref.edges_of(event):
                if edge in tracked:
                    tracked[edge].append(
                        (event.timestamp, ref.weight(edge))
                    )
        event_index = breaks[index]
        adds, removes = ref.consume()
        states = {}
        counts = {}
        for edge in set(adds) | set(removes):
            ups, downs = adds.get(edge, 0), removes.get(edge, 0)
            if ups and downs:
                states[edge] = EdgeState.FLAPPING
            elif ups:
                states[edge] = EdgeState.GAINING
            else:
                states[edge] = EdgeState.LOSING
            count = ref.weight(edge)
            counts[edge] = count
            peak = max(max_counts.get(edge, 0), count)
            max_counts[edge] = peak
            if count < peak:
                shadowed[edge] = peak
            else:
                shadowed.pop(edge, None)
        frames.append((counts, states, dict(shadowed)))
    return frames, tracked, ref


def event_streams():
    """Small random announce/withdraw scripts over a tiny universe."""
    single = st.tuples(
        st.sampled_from([PEER_A, PEER_B]),
        st.sampled_from(PREFIXES),
        st.sampled_from(PATHS),
        st.booleans(),
    )
    return st.lists(single, min_size=1, max_size=40)


def build_stream(script):
    events = []
    for i, (peer, prefix, path, is_withdraw) in enumerate(script):
        kind = EventKind.WITHDRAW if is_withdraw else EventKind.ANNOUNCE
        events.append(
            BGPEvent(float(i), kind, peer, prefix, attrs(path, NH))
        )
    return EventStream(events)


def assert_equivalent(stream, play_duration, fps, track_edges=()):
    animation = animate_stream(
        stream,
        play_duration=play_duration,
        fps=fps,
        track_edges=track_edges,
    )
    ref_frames, ref_tracked, ref = reference_animation(
        stream, play_duration, fps, track_edges
    )
    assert len(animation.frames) == len(ref_frames)
    for frame, (counts, states, shadows) in zip(
        animation.frames, ref_frames
    ):
        assert frame.edge_counts == counts
        assert frame.edge_states == states
        assert frame.shadows == shadows
    for edge in track_edges:
        assert animation.series[edge].samples == tuple(ref_tracked[edge])
    # The final graph state agrees edge for edge.
    final = {
        edge: Counter(store)
        for edge, store in animation.tamp.graph.raw_edges()
    }
    assert final == ref.edges
    return animation


class TestFrameEquivalence:
    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_frames_match_object_level(self, script):
        assert_equivalent(build_stream(script), play_duration=1.0, fps=5)

    @given(event_streams())
    @settings(max_examples=25, deadline=None)
    def test_tracked_series_match_object_level(self, script):
        edge = (("as", 11423), ("as", 209))
        site_link = (("root", "site"), ("router", "128.32.1.3"))
        assert_equivalent(
            build_stream(script),
            play_duration=1.0,
            fps=4,
            track_edges=[edge, site_link],
        )


class TestSyntheticStreamEquivalence:
    def test_seeded_synthetic_stream(self):
        """The Berkeley-profile generator at small scale, end to end."""
        from repro.collector.rex import RouteExplorer
        from repro.simulator.synthetic import (
            BERKELEY_PROFILE,
            populate_view,
            sized_event_stream,
        )

        rex = RouteExplorer("equiv")
        populate_view(
            rex, 1_500, BERKELEY_PROFILE, routes_per_prefix=1.8, seed=2003
        )
        stream = sized_event_stream(rex, 2_000, 600.0, seed=43)
        animation = assert_equivalent(stream, play_duration=1.0, fps=10)
        assert animation.frames_with_changes()
