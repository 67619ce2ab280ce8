"""TAMP animations.

Given a baseline route snapshot and an event stream, generate the paper's
fixed-duration animation: 30 seconds of play at 25 frames per second (750
frames), regardless of whether the incident spanned seconds or days. Each
frame consolidates every routing change in its slice of the real
timerange and colors each edge by what happened to its prefix count:

* black — not changing,
* green — gaining prefixes,
* blue — losing prefixes,
* yellow — flapping too fast to animate (gains *and* losses in one frame),
* and an edge that has lost prefixes keeps a gray shadow at the largest
  count it ever carried.

The animator also records a per-edge prefix-count time series — the
impulse plot next to Figure 3's animation controls — and an animation
clock string showing time into the incident.

The frame loop runs entirely on packed edge ids (DESIGN.md §10): frame
diffs come from the maintainer's id-keyed pulse counters, counts from
id-level weight lookups, and tracked-edge samples land in flat arrays.
Frames *store* id-keyed mappings and decode to token pairs lazily on
first access, so a 750-frame animation of a large incident decodes
nothing until a renderer or test actually reads an edge.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.bgp.rib import Route
from repro.collector.events import Token
from repro.collector.stream import EventStream
from repro.perf import gc_paused
from repro.tamp.incremental import IncrementalTamp, PeerNamer, default_peer_namer

Edge = tuple[Token, Token]

PLAY_DURATION_SECONDS = 30.0
FRAMES_PER_SECOND = 25


class EdgeState(enum.Enum):
    STABLE = "stable"
    GAINING = "gaining"
    LOSING = "losing"
    FLAPPING = "flapping"


class LazyEdgeMap(Mapping):
    """An edge-id-keyed mapping that decodes keys on first token access.

    The id-keyed store is the live view (:attr:`ids`) — the animator and
    the SVG renderer's track builder read it directly. Token-level reads
    (``frame.edge_counts[edge]``, iteration, ``in``) materialize a
    decoded dict once and serve from it after; a map nobody reads as
    tokens never decodes. Quiet frames share one shadow map, so the
    decode also happens at most once per distinct snapshot.
    """

    __slots__ = ("ids", "_decode", "_decoded")

    def __init__(
        self, ids: Mapping[int, object], decode: Callable[[int], Edge]
    ) -> None:
        #: The id-keyed backing store (packed edge id -> value).
        self.ids = ids
        self._decode = decode
        self._decoded: Optional[dict[Edge, object]] = None

    def _materialize(self) -> dict[Edge, object]:
        decoded = self._decoded
        if decoded is None:
            decode = self._decode
            decoded = self._decoded = {
                decode(eid): value for eid, value in self.ids.items()
            }
        return decoded

    def __getitem__(self, edge: Edge) -> object:
        return self._materialize()[edge]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyEdgeMap):
            other = other._materialize()
        if isinstance(other, Mapping):
            return self._materialize() == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"LazyEdgeMap({self._materialize()!r})"


@dataclass(frozen=True)
class TampFrame:
    """One animation frame: consolidated changes over a time slice."""

    index: int
    #: Real (incident) time covered: [start, end).
    start: float
    end: float
    #: Edges whose prefix count changed this frame, with their new counts
    #: (a :class:`LazyEdgeMap`: id-keyed, decoded on token access).
    edge_counts: Mapping[Edge, int]
    #: Change state per touched edge (untouched edges are STABLE/black).
    edge_states: Mapping[Edge, EdgeState]
    #: Historical-maximum counts for edges below their peak (shadows).
    shadows: Mapping[Edge, int]

    @property
    def changed_edges(self) -> int:
        return len(self.edge_states)

    def state_of(self, edge: Edge) -> EdgeState:
        return self.edge_states.get(edge, EdgeState.STABLE)

    def clock_text(self) -> str:
        """The Figure 3 animation clock: time into the incident."""
        seconds = self.end
        if seconds < 1.0:
            return f"t = {seconds * 1000:.0f} ms"
        if seconds < 120.0:
            return f"t = {seconds:.1f} s"
        if seconds < 2 * 3600.0:
            return f"t = {seconds / 60:.1f} min"
        return f"t = {seconds / 3600:.1f} h"


@dataclass(frozen=True)
class EdgeSeries:
    """Prefix-count samples over time for one selected edge.

    The series is stored as two flat parallel arrays (sample times and
    counts) — a flapping edge collects one sample per touching event,
    and at incident scale tuple-of-tuples storage was most of the
    tracking cost.
    """

    edge: Edge
    #: Sample timestamps (``array('d')``).
    times: Sequence[float]
    #: Prefix counts at those timestamps (``array('q')``).
    values: Sequence[int]

    @property
    def samples(self) -> tuple[tuple[float, int], ...]:
        """(time, count) pairs, zipped from the flat arrays."""
        return tuple(zip(self.times, self.values))

    def counts(self) -> list[int]:
        return list(self.values)

    def is_impulse_train(self) -> bool:
        """True when the count alternates direction (the Figure 3 plot).

        A monotone ramp is not an impulse train: what matters is the
        number of up/down *reversals*, the visual signature of a prefix
        flapping on and off an edge.
        """
        counts = self.values
        if len(counts) < 4:
            return False
        deltas = [
            b - a for a, b in zip(counts, counts[1:]) if b != a
        ]
        reversals = sum(
            1
            for d1, d2 in zip(deltas, deltas[1:])
            if (d1 > 0) != (d2 > 0)
        )
        return reversals >= 3


@dataclass
class TampAnimation:
    """The generated animation: frames plus the final graph state."""

    frames: list[TampFrame]
    tamp: IncrementalTamp
    timerange: float
    play_duration: float = PLAY_DURATION_SECONDS
    fps: int = FRAMES_PER_SECOND
    series: dict[Edge, EdgeSeries] = field(default_factory=dict)

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def frames_with_changes(self) -> list[TampFrame]:
        return [f for f in self.frames if f.changed_edges]

    def states_seen(self, edge: Edge) -> set[EdgeState]:
        return {f.state_of(edge) for f in self.frames if edge in f.edge_states}

    def final_shadows(self) -> dict[Edge, int]:
        return dict(self.frames[-1].shadows) if self.frames else {}


def animate_stream(
    events: EventStream,
    baseline: Iterable[Route] = (),
    site_name: str = "site",
    peer_namer: PeerNamer = default_peer_namer,
    play_duration: float = PLAY_DURATION_SECONDS,
    fps: int = FRAMES_PER_SECOND,
    track_edges: Iterable[Edge] = (),
    tamp: "IncrementalTamp | None" = None,
) -> TampAnimation:
    """Build the animation for *events* on top of *baseline* routes.

    *track_edges* selects edges whose prefix count is sampled after every
    event touching them (the per-edge plot). The frame count is
    ``play_duration × fps`` — fixed, per the paper, however long the
    incident really ran.

    Pass a pre-loaded *tamp* to skip baseline loading (the paper times
    its algorithms "starting at the current state of the system", i.e.
    table rebuild excluded); the instance is consumed — it ends at the
    post-incident state.
    """
    if play_duration <= 0 or fps <= 0:
        raise ValueError("play duration and fps must be positive")
    if tamp is None:
        tamp = IncrementalTamp(site_name=site_name, peer_namer=peer_namer)
        tamp.load_routes(baseline)
    frame_count = int(round(play_duration * fps))
    start = events.start_time if len(events) else 0.0
    end = events.end_time if len(events) else 0.0
    timerange = max(0.0, (end or 0.0) - (start or 0.0))
    slice_width = timerange / frame_count if frame_count else 0.0

    graph = tamp.graph
    weight_id = graph.weight_id
    decode = graph.decode_pair
    # Tracked edges intern up front; samples accumulate in flat arrays.
    tracked: dict[int, tuple[Edge, array, array]] = {
        graph.intern_pair(*edge): (edge, array("d"), array("q"))
        for edge in track_edges
    }

    def sample_tracked(now: float) -> None:
        for eid, (_, times, counts) in tracked.items():
            times.append(now)
            counts.append(weight_id(eid))

    #: Historical-maximum count per edge id, seeded from the baseline.
    max_counts: dict[int, int] = {
        eid: len(store) for eid, store in graph.raw_id_edges()
    }
    #: Edges currently below their historical peak, with that peak.
    shadowed: dict[int, int] = {}
    #: Shared snapshot of *shadowed*, re-copied only on change: quiet
    #: frames alias one map instead of copying the shadow set 750 times.
    shadow_snapshot = LazyEdgeMap({}, decode)
    shadows_dirty = False

    frames: list[TampFrame] = []
    all_events = list(events)
    origin = start or 0.0
    # Frame boundaries resolve to event indices in one bisection pass
    # over the stream's timestamp keys instead of a per-event timestamp
    # comparison in the frame loop; the last frame takes the remainder
    # to absorb float rounding.
    boundaries = [
        origin + (index + 1) * slice_width for index in range(frame_count - 1)
    ]
    if isinstance(events, EventStream):
        breaks = events.slice_indices(boundaries)
    else:
        import bisect

        keys = [event.timestamp for event in all_events]
        breaks = [bisect.bisect_left(keys, b) for b in boundaries]
    breaks.append(len(all_events))
    sample_tracked(0.0)
    event_index = 0
    apply = tamp.apply
    # The replay allocates only acyclic containers while the route
    # table and event list sit live on the heap — exactly the profile
    # the GC guard exists for (see repro.perf.gcguard).
    with gc_paused():
        for index in range(frame_count):
            frame_start = origin + index * slice_width
            frame_end = origin + (index + 1) * slice_width
            frame_break = breaks[index]
            # Consolidate every event in this slice. Resolving the
            # touched edge ids per event (from the maintainer's apply
            # memo — no re-tokenization) exists only to sample tracked
            # edges; without trackers the batch devolves to bare
            # applies.
            if tracked:
                for event in all_events[event_index:frame_break]:
                    apply(event)
                    for eid in tamp.event_edge_ids(event):
                        entry = tracked.get(eid)
                        if entry is not None:
                            entry[1].append(event.timestamp)
                            entry[2].append(weight_id(eid))
            else:
                for event in all_events[event_index:frame_break]:
                    apply(event)
            event_index = frame_break
            adds, removes = tamp.consume_id_changes()
            edge_states: dict[int, EdgeState] = {}
            edge_counts: dict[int, int] = {}
            for eid in adds.keys() | removes.keys():
                ups = adds.get(eid, 0)
                downs = removes.get(eid, 0)
                if ups and downs:
                    state = EdgeState.FLAPPING
                elif ups:
                    state = EdgeState.GAINING
                elif downs:
                    state = EdgeState.LOSING
                else:
                    state = EdgeState.STABLE
                edge_states[eid] = state
                count = weight_id(eid)
                edge_counts[eid] = count
                peak = max_counts.get(eid, 0)
                if count > peak:
                    peak = count
                    max_counts[eid] = count
                # Maintain the shadow set incrementally: only edges
                # whose count is below their peak carry a gray shadow.
                if count < peak:
                    if shadowed.get(eid) != peak:
                        shadowed[eid] = peak
                        shadows_dirty = True
                elif shadowed.pop(eid, None) is not None:
                    shadows_dirty = True
            if shadows_dirty:
                shadow_snapshot = LazyEdgeMap(dict(shadowed), decode)
                shadows_dirty = False
            frames.append(
                TampFrame(
                    index=index,
                    start=frame_start - origin,
                    end=frame_end - origin,
                    edge_counts=LazyEdgeMap(edge_counts, decode),
                    edge_states=LazyEdgeMap(edge_states, decode),
                    shadows=shadow_snapshot,
                )
            )
    series = {
        edge: EdgeSeries(edge=edge, times=times, values=counts)
        for edge, times, counts in tracked.values()
    }
    return TampAnimation(
        frames=frames,
        tamp=tamp,
        timerange=timerange,
        play_duration=play_duration,
        fps=fps,
        series=series,
    )
