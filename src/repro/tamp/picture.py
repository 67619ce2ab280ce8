"""Batch TAMP picture builds: routes → one merged graph.

This is the orchestration layer over the interned builder (DESIGN.md
§10): group each router's routes by attribute bundle and fold the whole
view into one :class:`~repro.tamp.graph.TampGraph` in a single
:meth:`~repro.tamp.graph.TampGraph.merge_id_view` pass. Every chain is
interned against the *graph's* symbol table, so the fold is pure
id-level counting with no translation; the decoded result is asserted
equal to the object-level builder under ``tests/tamp/reference.py`` by
``tests/tamp/test_interned_equivalence.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix, format_address
from repro.perf import gc_paused
from repro.tamp.graph import TampGraph

#: One router's slice of the view: (router name, its routes).
RouteGroup = tuple[str, Sequence[Route]]


def build_picture(
    route_groups: Sequence[RouteGroup],
    site_name: Optional[str] = None,
    include_prefix_leaves: bool = True,
) -> TampGraph:
    """Merge per-router route groups into one (unpruned) TAMP graph."""
    graph = TampGraph(site_name)
    # One merge_id_view call over the whole view: the chain buckets span
    # routers (attribute bundles are shared massively), so the interior
    # stores take a handful of long C counting calls instead of one
    # probe per (router, group, edge).
    with gc_paused():
        graph.merge_id_view(
            (
                (name, _group_pids((r.prefix, r.attributes) for r in routes))
                for name, routes in route_groups
            ),
            include_prefix_leaves,
        )
    return graph


def _group_pids(pairs: Iterable[tuple[Prefix, PathAttributes]]):
    """(prefix, attrs) pairs bucketed by attribute bundle, as (bundle,
    prefix ids) group pairs.

    The ids are :func:`repro.interning.pack_prefix`'s, inlined — two
    attribute loads and two shifts each, no call per prefix.
    """
    by_attrs: dict[PathAttributes, list[int]] = {}
    for prefix, attributes in pairs:
        length = prefix.length
        by_attrs.setdefault(attributes, []).append(
            (length << 32) | (prefix.network >> (32 - length))
        )
    return by_attrs.items()


def picture_from_rex(
    rex,
    site_name: Optional[str] = None,
    include_prefix_leaves: bool = True,
    peer_namer: Callable[[int], str] = format_address,
) -> TampGraph:
    """The classic batch picture: one tree per REX peer, merged.

    Streams each peer's attribute-grouped id columns
    (:meth:`~repro.bgp.rib.AdjRibIn.grouped_pid_entries`, maintained
    per UPDATE) through
    :meth:`~repro.tamp.graph.TampGraph.merge_id_view` — no
    :class:`~repro.bgp.rib.Route` wrappers, no per-picture re-grouping
    or re-encoding pass over millions of routes.
    """
    graph = TampGraph(site_name)
    with gc_paused():
        graph.merge_id_view(
            (
                (peer_namer(peer), rex.rib(peer).grouped_pid_entries())
                for peer in rex.peers()
            ),
            include_prefix_leaves,
        )
    return graph


def picture_from_events(
    events: Iterable[BGPEvent],
    site_name: Optional[str] = None,
    include_prefix_leaves: bool = False,
    peer_namer: Callable[[int], str] = format_address,
) -> TampGraph:
    """The picture after replaying *events* over an empty route table.

    Replays announcements/withdrawals into a (peer, prefix) → attrs
    table — plain dict traffic — then batch-builds the graph from the
    surviving routes. For a render of the *final* state this is
    equivalent to incrementally maintaining the graph event by event
    (same edges, same weights; asserted in the test suite) but skips
    every intermediate graph mutation, which is exactly the work a
    point-in-time render throws away.
    """
    table: dict[tuple[int, Prefix], PathAttributes] = {}
    for event in events:
        if event.is_withdrawal:
            table.pop((event.peer, event.prefix), None)
        else:
            table[(event.peer, event.prefix)] = event.attributes
    by_peer: dict[int, list[tuple[Prefix, PathAttributes]]] = {}
    for (peer, prefix), attrs in table.items():
        by_peer.setdefault(peer, []).append((prefix, attrs))
    graph = TampGraph(site_name)
    with gc_paused():
        graph.merge_id_view(
            (
                (peer_namer(peer), _group_pids(pairs))
                for peer, pairs in by_peer.items()
            ),
            include_prefix_leaves,
        )
    return graph
