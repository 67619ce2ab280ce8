"""Incremental TAMP maintenance from an event stream.

A router's TAMP tree changes with every BGP message: announcements add
branches or thicken edges, withdrawals thin or remove them. This module
keeps a merged TAMP graph current against a stream of collector events,
which is what the animation builds on.

The maintainer owns a route table keyed by (peer, prefix): to apply an
announcement that replaces an existing route, the old route's
contribution is removed from the graph before the new one is added —
otherwise edges would accumulate ghost prefixes. The graph's per-edge
refcounts (see :mod:`repro.tamp.graph`) keep each apply O(path length).

Applies run entirely at id level: the memo caches each route's packed
edge ids (built with the batch builder's :func:`~repro.tamp.tree.chain_ids`
behind a per-peer root edge), one call to
:meth:`~repro.tamp.graph.TampGraph.add_route_ids` or
:meth:`~repro.tamp.graph.TampGraph.discard_route_ids` applies a whole
route, and the pulse counters the animator consumes are keyed by edge id
until :meth:`IncrementalTamp.consume_changes` decodes them at the
boundary.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, Collection, Iterable, Optional

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent, EventKind, Token, event_json
from repro.interning import EDGE_SHIFT
from repro.jsontext import EncodedList
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, format_address
from repro.tamp.graph import TampGraph
from repro.tamp.tree import ChainCache, chain_ids

#: Names the router node for a peer address in the merged graph.
PeerNamer = Callable[[int], str]

#: Token-level pulse counts, as handed to the animator.
PulseCounts = dict[tuple[Token, Token], int]


def default_peer_namer(peer: int) -> str:
    return format_address(peer)


def _route_sort_key(peer: int, prefix: Prefix) -> str:
    """Orders routes as ``(peer, str(prefix))`` tuples would, in one
    string: a 32-bit peer address is at most ten digits, so zero-padded
    to that width it sorts numerically, and one string compares several
    times faster than a tuple under ``bisect`` and ``sort``."""
    return f"{peer:010d} {prefix}"


class IncrementalTamp:
    """A live TAMP graph fed by BGP events."""

    def __init__(
        self,
        site_name: str = "site",
        peer_namer: PeerNamer = default_peer_namer,
        include_prefix_leaves: bool = False,
    ) -> None:
        self.graph = TampGraph(site_name)
        self.peer_namer = peer_namer
        self.include_prefix_leaves = include_prefix_leaves
        self._routes: dict[tuple[int, Prefix], PathAttributes] = {}
        #: prefix id -> live routes for it. Every route threads its
        #: prefix over at least its root edge, so the keys are exactly
        #: the graph's prefixes: :meth:`prefix_count` reads what
        #: ``graph.total_prefixes()`` would union every store to find.
        self._prefix_routes: dict[int, int] = {}
        #: Per-edge add/remove pulse counts since the last consume,
        #: keyed by packed edge id; the animator reads these (decoded)
        #: to color edges per frame.
        self._adds: dict[int, int] = {}
        self._removes: dict[int, int] = {}
        #: Monotonic count of every pulse ever recorded (adds plus
        #: removes, never reset by a consume). This is the serve
        #: layer's delta-invalidation version: a picture snapshot keyed
        #: on it stays valid exactly until the graph's edge membership
        #: next changes. Checkpoint restore sets it explicitly so the
        #: counter is bit-identical across crash/resume.
        self.pulse_total = 0
        #: peer -> chain key -> the packed edge ids the route threads,
        #: in chain order (site link, root edge, interior, prefix leaf).
        #: A flapping route announces and withdraws the same chain
        #: thousands of times; memoizing turns each apply into two dict
        #: lookups. Without prefix leaves (the animation default) the
        #: chain depends only on (peer, attrs), so the inner key is the
        #: attribute bundle alone — its hash is cached on the instance.
        self._edge_ids: dict[int, dict] = {}
        #: The batch builder's chain memo (:func:`chain_ids`), shared by
        #: every peer, and per peer the edges ahead of the chain: the
        #: site link (if any) and the root edge's packed high half.
        self._chains: ChainCache = {}
        self._roots: dict[int, tuple[tuple[int, ...], int]] = {}
        #: Entries memoized into ``_edge_ids`` since the memos were last
        #: cleared. Attribute churn (a MED that changes every update)
        #: leaves entries no live route uses, so past twice the live
        #: routes every memo is dropped and refilled on demand
        #: (:meth:`_memoize`).
        self._memoized = 0
        #: (peer, prefix) keys installed, replaced or withdrawn since the
        #: last :meth:`export_route_events` — all that export has to
        #: encode and place. ``None`` until the first export (to which
        #: every route is new), so a maintainer that is never
        #: checkpointed records nothing.
        self._dirty: Optional[set[tuple[int, Prefix]]] = None
        #: The last export: each route's sort key (see
        #: :func:`_route_sort_key`), its JSON line and that line's own
        #: JSON text (what a checkpoint writes for it), as three lists
        #: in key order — what the next export merges its changes into.
        self._export_keys: list[str] = []
        self._export_lines: list[str] = []
        self._export_texts: list[str] = []
        #: edge id -> (repr of the decoded token pair, the pair): the
        #: sort key and content of that edge's :meth:`export_pulses`
        #: row, decoded once per edge; cleared with the other memos.
        self._pulse_keys: dict[int, tuple[str, Token, Token]] = {}

    # ------------------------------------------------------------------
    # Loading and applying
    # ------------------------------------------------------------------

    def load_routes(self, routes: Iterable[Route]) -> None:
        """Install a snapshot (e.g. ``rex.all_routes()``) as the baseline."""
        for route in routes:
            self._install(route.peer, route.prefix, route.attributes)
        self.consume_id_changes()  # the baseline is not "change"

    def apply(self, event: BGPEvent) -> None:
        """Apply one collector event."""
        self.apply_all((event,))

    def apply_all(self, events: Iterable[BGPEvent]) -> None:
        """Apply collector events in order."""
        install, withdraw = self._install, self._withdraw
        for event in events:
            if event.kind is EventKind.WITHDRAW:
                withdraw(event.peer, event.prefix)
            else:
                install(event.peer, event.prefix, event.attributes)

    # ------------------------------------------------------------------
    # Change tracking (consumed by the animator per frame)
    # ------------------------------------------------------------------

    def consume_changes(self) -> tuple[PulseCounts, PulseCounts]:
        """Return and reset (adds, removes) pulse counts per edge.

        The internal counters are id-keyed; this is their decode
        boundary — the caller sees real token pairs. Per-frame
        consumers (the animator) should take
        :meth:`consume_id_changes` instead and decode lazily.
        """
        adds, removes = self.consume_id_changes()
        decode = self.graph.decode_pair
        return (
            {decode(eid): count for eid, count in adds.items()},
            {decode(eid): count for eid, count in removes.items()},
        )

    def consume_id_changes(self) -> tuple[dict[int, int], dict[int, int]]:
        """Id-keyed :meth:`consume_changes`: the raw per-edge pulse
        counters, keyed by packed edge id, reset on read.

        This is the animator's per-frame diff source (DESIGN.md §10):
        750 frames of a large incident never decode a token unless
        something downstream actually renders them.
        """
        adds, removes = self._adds, self._removes
        self._adds, self._removes = {}, {}
        return adds, removes

    def event_edge_ids(self, event: BGPEvent) -> tuple[int, ...]:
        """The packed edge ids *event*'s route threads.

        Served from the same (peer, attrs) memo the applies use, so
        sampling a tracked edge after an apply costs two dict probes —
        never a :func:`~repro.tamp.tree.route_path_tokens` re-render.
        """
        return self._ids_for(event.peer, event.prefix, event.attributes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def route_count(self) -> int:
        return len(self._routes)

    def prefix_count(self) -> int:
        """``graph.total_prefixes()``, kept current by every apply."""
        return len(self._prefix_routes)

    def current_attributes(
        self, peer: int, prefix: Prefix
    ) -> Optional[PathAttributes]:
        return self._routes.get((peer, prefix))

    # ------------------------------------------------------------------
    # Checkpointing (used by repro.pipeline)
    # ------------------------------------------------------------------

    def export_route_events(self) -> EncodedList:
        """Serialize the route table as announce-event JSON lines.

        The graph, refcounts and memo caches are all derivable from the
        route table, so the table *is* the checkpointable state. Routes
        are encoded as zero-timestamp announce events — the one
        round-trippable wire format the project already has — sorted by
        (peer, prefix text) so identical tables always serialize
        identically. Only the routes that changed since the previous
        export are encoded, and one merge pass places them: the runs of
        that export's lines between two changes are copied over whole.
        The lines come with their JSON texts, encoded in the same pass,
        so a checkpoint joins them instead of encoding every line.
        """
        routes = self._routes
        dirty: Collection[tuple[int, Prefix]] = (
            routes.keys() if self._dirty is None else self._dirty
        )
        if dirty:
            changes: list[tuple[str, Optional[str]]] = []
            for key in dirty:
                peer, prefix = key
                attrs = routes.get(key)
                line: Optional[str] = None  # withdrawn
                if attrs is not None:
                    line = event_json(
                        0.0, EventKind.ANNOUNCE, peer, prefix, attrs
                    )
                changes.append((_route_sort_key(peer, prefix), line))
            # Sort keys are unique per route, so the lines never compare.
            changes.sort()
            old_keys = self._export_keys
            old_lines, old_texts = self._export_lines, self._export_texts
            keys: list[str] = []
            lines: list[str] = []
            texts: list[str] = []
            kept = 0  # old entries before this one are already placed
            for sort_key, line in changes:
                at = bisect_left(old_keys, sort_key, kept)
                keys += old_keys[kept:at]
                lines += old_lines[kept:at]
                texts += old_texts[kept:at]
                kept = at
                if at < len(old_keys) and old_keys[at] == sort_key:
                    kept += 1  # superseded
                if line is not None:
                    keys.append(sort_key)
                    lines.append(line)
                    texts.append(json.dumps(line))
            keys += old_keys[kept:]
            lines += old_lines[kept:]
            texts += old_texts[kept:]
            self._export_keys, self._export_lines = keys, lines
            self._export_texts = texts
        self._dirty = set()
        # The held lists are replaced by the next merge, never changed
        # in place, so the texts can be handed out as they are.
        return EncodedList(self._export_lines, self._export_texts)

    def import_route_events(self, lines: Iterable[str]) -> None:
        """Rebuild the route table from :meth:`export_route_events`.

        Only valid on a fresh maintainer: restoring on top of existing
        routes would merge two route tables into a graph neither
        describes.
        """
        if self._routes:
            raise ValueError(
                "cannot import route events into a non-empty maintainer"
            )
        for line in lines:
            event = BGPEvent.from_json(line)
            self._install(event.peer, event.prefix, event.attributes)
        self.consume_id_changes()  # restored baseline is not "change"

    def export_pulses(self) -> dict[str, list]:
        """Serialize the unconsumed pulse counts.

        A checkpoint can land mid-pulse-period (between two window
        reports); without these the first post-resume report would
        undercount edge activity. Only valid without prefix leaves,
        where edge tokens are (str, str|int) pairs and survive a JSON
        round trip unchanged.
        """
        if self.include_prefix_leaves:
            raise ValueError(
                "pulse export requires include_prefix_leaves=False"
            )
        decode = self.graph.decode_pair
        keys = self._pulse_keys

        def encode(pulses: dict[int, int]) -> list:
            rows: list[tuple[str, Token, Token, int]] = []
            for eid, count in pulses.items():
                key = keys.get(eid)
                if key is None:
                    edge = decode(eid)
                    key = keys[eid] = (repr(edge), *edge)
                rows.append((*key, count))
            # One row per edge, so the reprs alone decide the order.
            rows.sort()
            return [
                [list(head), list(tail), count]
                for _, head, tail, count in rows
            ]

        return {
            "adds": encode(self._adds),
            "removes": encode(self._removes),
        }

    def import_pulses(self, data: dict[str, list]) -> None:
        """Restore pulse counts from :meth:`export_pulses`."""
        intern_pair = self.graph.intern_pair

        def decode(items: list) -> dict[int, int]:
            return {
                intern_pair(tuple(head), tuple(tail)): int(count)
                for head, tail, count in items
            }

        self._adds = decode(data.get("adds", []))
        self._removes = decode(data.get("removes", []))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ids_for(
        self, peer: int, prefix: Prefix, attrs: PathAttributes
    ) -> tuple[int, ...]:
        by_peer = self._edge_ids.get(peer)
        if by_peer is not None:
            edge_ids = by_peer.get(
                (prefix, attrs) if self.include_prefix_leaves else attrs
            )
            if edge_ids is not None:
                return edge_ids
        return self._memoize(peer, prefix, attrs)

    def _memoize(
        self, peer: int, prefix: Prefix, attrs: PathAttributes
    ) -> tuple[int, ...]:
        """Intern and memoize the edge ids of the route's chain.

        Tokens intern in chain order — site root, router, the
        :func:`chain_ids` chain, prefix leaf — and the edges follow it.
        Every memo here is derived from the symbol table, which is never
        cleared, so a chain memoized again has the same ids: dropping
        the memos (past twice the live routes) changes no pulse and no
        exported line.
        """
        if self._memoized >= 2 * len(self._routes):
            self._edge_ids.clear()
            self._chains.clear()
            self._roots.clear()
            self._pulse_keys.clear()
            self._memoized = 0
        symbols = self.graph.symbols
        root = self._roots.get(peer)
        if root is None:
            site_root = self.graph.site_root
            site = None if site_root is None else symbols.intern_token(
                site_root
            )
            router = symbols.intern_token(("router", self.peer_namer(peer)))
            root = self._roots[peer] = (
                () if site is None else ((site << EDGE_SHIFT) | router,),
                router << EDGE_SHIFT,
            )
        head, interior, tail = chain_ids(symbols, self._chains, attrs)
        edge_ids = (*root[0], root[1] | head, *interior)
        key: object = attrs
        if self.include_prefix_leaves:
            leaf = symbols.intern_token(("pfx", prefix))
            edge_ids += ((tail << EDGE_SHIFT) | leaf,)
            key = (prefix, attrs)
        by_peer = self._edge_ids.get(peer)
        if by_peer is None:
            by_peer = self._edge_ids[peer] = {}
        by_peer[key] = edge_ids
        self._memoized += 1
        return edge_ids

    def _install(
        self, peer: int, prefix: Prefix, attrs: PathAttributes
    ) -> None:
        key = (peer, prefix)
        old = self._routes.get(key)
        if old == attrs:
            return
        pid = self.graph.symbols.intern_prefix(prefix)
        if old is not None:
            self._remove_contribution(peer, prefix, pid, old)
        else:
            counts = self._prefix_routes
            counts[pid] = counts.get(pid, 0) + 1
        self._routes[key] = attrs
        if self._dirty is not None:
            self._dirty.add(key)
        self.pulse_total += self.graph.add_route_ids(
            self._ids_for(peer, prefix, attrs), pid, self._adds
        )

    def _withdraw(self, peer: int, prefix: Prefix) -> None:
        key = (peer, prefix)
        old = self._routes.pop(key, None)
        if old is None:
            return
        if self._dirty is not None:
            self._dirty.add(key)
        pid = self.graph.symbols.prefix_id(prefix)
        counts = self._prefix_routes
        left = counts[pid] - 1
        if left:
            counts[pid] = left
        else:
            del counts[pid]
        self._remove_contribution(peer, prefix, pid, old)

    def _remove_contribution(
        self, peer: int, prefix: Prefix, pid: int, attrs: PathAttributes
    ) -> None:
        self.pulse_total += self.graph.discard_route_ids(
            self._ids_for(peer, prefix, attrs), pid, self._removes
        )
