"""Graph pruning: the T in TAMP.

A raw TAMP graph of any realistic network is an ink blob — the Internet's
core is well connected with enormous fan-out at the edges. Pruning keeps
only the heavily used structure:

* :func:`prune_flat` drops every edge carrying less than a fixed fraction
  (default 5%) of the graph's total prefixes, then sweeps unreachable
  nodes. This is the paper's default, good from universities to Tier-1s.
* :func:`prune_hierarchical` applies *increasing* thresholds with
  distance from the root. Operators asked for this: everything inside
  their own domain (their routers, nexthops, immediate neighbor ASes)
  stays visible no matter how few prefixes it carries — a router
  announcing just two prefixes can be the story, as in the Figure 5
  backdoor — while the far-away Internet is pruned aggressively.

The keep/drop scan runs at id level over the interior stores plus the
leaf fringe (:meth:`TampGraph.fringe_stores`): on a 1.5M-route graph
well over 99% of edges are dropped, so the scan never decodes a token —
only the survivors, adopted into the pruned graph via the shared symbol
table, ever reach the decode boundary. The fringe carries the leaf
invariant (every leaf edge weighs exactly 1), so the millions of prefix
leaves face one keep/drop decision per tail instead of one per edge,
and a surviving tail's store is copied whole into the pruned graph's
fringe. The flat prune skips the depth BFS entirely (its predicate
ignores depth).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.interning import EDGE_SHIFT
from repro.tamp.graph import TampGraph

DEFAULT_THRESHOLD = 0.05

#: keep(parent_id, parent_depth, weight) -> survive?
_Keep = Callable[[int, Optional[int], int], bool]


def prune_flat(
    graph: TampGraph, threshold: float = DEFAULT_THRESHOLD
) -> TampGraph:
    """A copy of *graph* keeping only edges with fraction ≥ *threshold*.

    Built survivor-first: on realistic graphs pruning removes the vast
    majority of edges (every prefix leaf, most of the fan-out), so
    copying everything and deleting would do millions of times the work
    of collecting the few heavy edges.
    """
    check_threshold(threshold)
    total = graph.total_prefixes()
    if total == 0:
        return graph.copy()
    # The flat predicate ignores depth and divides by one constant, so
    # the whole keep/drop question collapses to an integer weight
    # cutoff — the survivor scan is then a bare len() comparison per
    # store, no per-edge lambda call, no float division.
    cutoff = _weight_cutoff(threshold, total)
    pruned = TampGraph(symbols=graph.symbols)
    pruned.site_root = graph.site_root
    adopt = pruned.adopt_edge_ids
    for eid, store in graph._edges.items():
        if len(store) >= cutoff:
            adopt(eid, store)
    if cutoff <= 1:  # fringe edges all weigh exactly 1
        for tail, fstore in graph.fringe_stores():
            pruned.adopt_fringe_ids(tail, fstore)
    _sweep_unreachable(pruned, graph.roots())
    return pruned


def check_threshold(threshold: float) -> None:
    """Refuse a prune threshold outside [0, 1] (a share of prefixes)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")


def _weight_cutoff(threshold: float, total: int) -> int:
    """The least integer weight passing ``weight / total >= threshold``.

    Computed so the integer comparison is *exactly* equivalent to the
    float test for every possible weight — the rounding of the float
    division decides the boundary, not the rounding of
    ``threshold * total``.
    """
    cutoff = round(threshold * total)
    while cutoff > 0 and (cutoff - 1) / total >= threshold:
        cutoff -= 1
    while cutoff <= total and cutoff / total < threshold:
        cutoff += 1
    return cutoff


def _survivors(graph: TampGraph, keep: _Keep) -> TampGraph:
    """A new graph with the edges *keep*(parent, parent depth, weight)
    accepts."""
    depth_of = graph._id_depths().get
    pruned = TampGraph(symbols=graph.symbols)
    pruned.site_root = graph.site_root
    for eid, store in graph._edges.items():
        parent = eid >> EDGE_SHIFT
        if keep(parent, depth_of(parent), len(store)):
            pruned.adopt_edge_ids(eid, store)
    # The leaf fringe: every leaf edge weighs exactly 1, so one
    # keep(tail, depth, 1) call decides a tail's whole fringe.
    for tail, fstore in graph.fringe_stores():
        if keep(tail, depth_of(tail), 1):
            pruned.adopt_fringe_ids(tail, fstore)
    return pruned


def prune_hierarchical(
    graph: TampGraph,
    threshold: float = DEFAULT_THRESHOLD,
    keep_depth: int = 3,
    growth: float = 1.0,
) -> TampGraph:
    """Depth-aware pruning.

    Edges whose *parent* lies at depth < *keep_depth* are always kept
    (depth 0 = the site root; with the default 3, routers, nexthops and
    the immediate neighbor ASes all survive — the Figure 5 setting).
    Deeper edges face ``threshold × growth^(depth - keep_depth)``, so a
    growth factor above 1 prunes ever harder toward the Internet's edge.
    """
    check_threshold(threshold)
    if keep_depth < 0:
        raise ValueError(f"keep_depth {keep_depth} must be non-negative")
    if growth <= 0:
        raise ValueError(f"growth {growth} must be positive")
    total = graph.total_prefixes()
    if total == 0:
        return graph.copy()

    def keep(parent: int, depth: Optional[int], weight: int) -> bool:
        if depth is None or depth < keep_depth:
            return True
        effective = min(1.0, threshold * growth ** (depth - keep_depth))
        return weight / total >= effective

    pruned = _survivors(graph, keep)
    _sweep_unreachable(pruned, graph.roots())
    return pruned


def _sweep_unreachable(graph: TampGraph, roots) -> None:
    """Remove edges no longer reachable from the original *roots*.

    Pruning an interior edge can orphan a whole subtree; the orphan must
    not linger as a floating island in the picture. Reachability is
    computed from the pre-prune roots, so an orphaned subtree head does
    not masquerade as a new root. Runs at token level: the survivor
    graph is already small, and the str-sorted BFS keeps the visit
    order stable under hash randomization.
    """
    from collections import deque

    reachable: set = set()
    queue = deque(roots)
    reachable.update(roots)
    while queue:
        node = queue.popleft()
        # Sorted so the BFS visit order (not just the reachable set) is
        # stable under hash randomization.
        for child in sorted(graph.children(node), key=str):
            if child not in reachable:
                reachable.add(child)
                queue.append(child)
    for parent, child in graph.edge_list():
        if parent not in reachable:
            graph.remove_edge(parent, child)
