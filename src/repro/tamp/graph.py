"""The merged TAMP graph.

Merging per-router trees is where TAMP's "one picture says 1,000,000
routes" comes from — and where the crucial subtlety lives: edge weights
are **unique prefix counts**, so merging performs a *set union* of the
prefixes carried on the same edge, never an addition (Figure 1(c): the
NexthopA–AS1 edge weighs 4, not 3+3, because two prefixes are common).
An optional site root (the REX recorder in Figure 2's leftmost box) ties
the router roots together.

Implementation notes:

* Each edge stores a *reference count per prefix* — how many
  currently-installed routes thread that prefix over that edge. The
  weight is the number of distinct prefixes (union semantics), while
  the refcount makes incremental removal O(path length): when router X
  withdraws a route, the prefix only leaves an AS-level edge if no
  other router's route still traverses it.
* The stores are interned (DESIGN.md §10): nodes are dense ids from a
  per-build :class:`SymbolTable`, prefixes are value-derived packed ids
  (:func:`repro.interning.pack_prefix`), an edge key packs two token
  ids into one int, and a refcount map is ``{prefix id: count}``.
  Merging a view is then per-edge C-level id counting, and
  ``total_prefixes()`` is the size of a union of int-key views — no
  token tuple is hashed and no Prefix object is touched on the hot
  path. Every public method still speaks tokens and prefixes: ids are
  decoded at the query boundary, which on realistic workloads means on
  *pruned* graphs, never per-route.
"""

from __future__ import annotations

from collections import deque
# Counter's C increment loop, usable on a plain dict; the public
# Counter wrapper costs one object + two isinstance checks per update
# call, which the merge loop pays millions of times. The stdlib defines
# a pure-Python version before it tries the C one, so this never fails.
from collections import _count_elements  # type: ignore[attr-defined]
from itertools import chain as _iter_chain
from typing import Iterable, Iterator, Optional

from repro.collector.events import Token
from repro.interning import EDGE_MASK, EDGE_SHIFT, SymbolTable
from repro.net.prefix import Prefix
from repro.tamp.tree import ChainCache, Edge, chain_ids


class TampGraph:
    """A directed graph over TAMP node tokens with prefix-set weights."""

    __slots__ = (
        "site_root",
        "_symbols",
        "_edges",
        "_children",
        "_parents",
        "_fringe",
        "_total",
        "_adj_dirty",
        "_has_site_edge",
    )

    def __init__(
        self,
        site_name: Optional[str] = None,
        symbols: Optional[SymbolTable] = None,
    ) -> None:
        self.site_root: Optional[Token] = (
            ("root", site_name) if site_name is not None else None
        )
        #: Per-build symbol table; derived graphs (copies, prunes) share
        #: their parent's table — it is append-only, so sharing is safe.
        self._symbols = SymbolTable() if symbols is None else symbols
        # packed edge id -> {prefix id: refcount}
        self._edges: dict[int, dict[int, int]] = {}
        self._children: dict[int, set[int]] = {}
        self._parents: dict[int, set[int]] = {}
        #: The prefix-leaf fringe: tail token id -> {prefix id: refcount},
        #: the one place a prefix leaf is stored (no interior edge ever
        #: ends in a ``("pfx", p)`` token). The leaf invariant — the
        #: edge into a ``("pfx", p)`` node carries exactly ``{p}`` —
        #: means the widest part of a realistic graph collapses to one
        #: store per tail instead of one edge entry (plus adjacency) per
        #: (tail, prefix) pair, and a route group's whole fringe lands in
        #: one C counting call. Batch merges, prune survivors and
        #: :meth:`add_prefix` fill it; queries synthesize the implied
        #: leaf edges at the decode boundary, and a ``("pfx", p)`` token
        #: is never interned.
        self._fringe: dict[int, dict[int, int]] = {}
        #: True = the adjacency maps are stale and must be rebuilt from
        #: the edge keys before use (see :meth:`_adj`). Bulk merges only
        #: mark; incremental mutators keep the maps live while clean.
        self._adj_dirty = False
        #: Set by bulk merges that created/updated the site-root edge —
        #: lets :meth:`roots` skip the adjacency rebuild on freshly
        #: batch-built graphs. Cleared pessimistically on edge removal.
        self._has_site_edge = False
        #: Cached distinct-prefix count; None = recompute. Pruning calls
        #: edge_fraction per edge, which divides by this — without the
        #: cache every fraction walks every edge's prefix map.
        self._total: Optional[int] = None

    def _invalidate_cache(self) -> None:
        """The cache-invalidation hook.

        Every method that can change edge/prefix membership must call
        this (enforced statically: rule CACHE001 of ``repro lint``).
        Refcount-only branches may legitimately skip it — membership
        did not change — but the hook must be reachable in the method.
        """
        self._total = None

    @property
    def symbols(self) -> SymbolTable:
        """The graph's symbol table (id ↔ token/prefix mapping)."""
        return self._symbols

    # repro: allow[CACHE001] pure adjacency rebuild — edge/prefix
    # membership is untouched, so the cached prefix total stays valid.
    def _adj(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """The (children, parents) adjacency maps, rebuilt when stale.

        Bulk merges never maintain adjacency — they only mark it dirty
        — because the hot batch pipeline (merge, flat prune) can answer
        everything from the edge keys alone. The maps are rebuilt here,
        in one pass over the keys, the first time a traversal actually
        asks; incremental mutators keep them live once (re)built. The
        fringe is never represented in adjacency — fringe-aware readers
        overlay it at the decode boundary.
        """
        if self._adj_dirty:
            children: dict[int, set[int]] = {}
            parents: dict[int, set[int]] = {}
            for eid in self._edges:
                parent = eid >> EDGE_SHIFT
                child = eid & EDGE_MASK
                seen = children.get(parent)
                if seen is None:
                    children[parent] = {child}
                else:
                    seen.add(child)
                seen = parents.get(child)
                if seen is None:
                    parents[child] = {parent}
                else:
                    seen.add(parent)
            self._children = children
            self._parents = parents
            self._adj_dirty = False
        return self._children, self._parents

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge_id_view(
        self,
        router_groups: Iterable,
        include_prefix_leaves: bool = True,
    ) -> None:
        """Fold a whole site view into the refcount stores in one pass.

        *router_groups* yields (router name, groups) per router, where
        groups is a mapping — or an iterable of pairs — from attribute
        bundle to the packed ids (:func:`repro.interning.pack_prefix`)
        of the prefixes announced with it: e.g. the id columns
        :meth:`AdjRibIn.grouped_pid_entries
        <repro.bgp.rib.AdjRibIn.grouped_pid_entries>` maintains per
        UPDATE, which is how the batch picture avoids re-encoding
        millions of prefixes it already holds encoded. The collections
        are only iterated (never mutated, never kept past the call), so
        live dict views are fine.

        Equivalent to building each router's tree and merging it by
        prefix-set union (the object-level oracle under
        ``tests/tamp/reference.py``), without materializing any
        per-router tree. The equivalence rests on RIB uniqueness — a
        route table holds at most one route per (router, prefix), so
        every (edge, prefix) pair occurs at most once per router and
        per-group increments equal per-tree set merges. Callers passing
        a table with duplicate prefixes per router would double-count;
        every route source in this project (RIBs, replayed event tables)
        satisfies the invariant.

        The pass is bucketed by *distinct chain*, not by group: real
        views share attribute bundles massively across routers (~9k
        distinct chains against ~560k groups on the ISP-Anon profile),
        and a chain's interior edges and leaf fringe are independent
        of which router threads it. So the router loop only flushes
        what is genuinely per-router — the root edge per (router,
        nexthop head) and the site link — while each group's prefix-id
        list is parked under its chain. One flush per distinct chain
        then counts the concatenated lists into the interior and
        fringe stores: millions of per-group dict probes collapse into
        a few thousand C-level counting calls over long lists.

        Concatenated chain/root buckets carry cross-group (and the
        chain buckets cross-router) multiplicity, so fresh stores are
        counted up from empty rather than ``dict.fromkeys`` — the
        refcounts, not just the weights, stay identical to merging
        per-router trees.
        """
        self._invalidate_cache()
        self._adj_dirty = True
        symbols = self._symbols
        chains: ChainCache = {}
        edges = self._edges
        fringe = self._fringe
        concat = _iter_chain.from_iterable
        site_id = None
        if self.site_root is not None:
            site_id = symbols.intern_token(self.site_root)
        # A fresh graph can count its distinct prefixes for free during
        # the chain flush (every group's pids land in exactly one
        # bucket), saving the pruner's full-store union scan later.
        seen: Optional[set] = None
        if not edges and not fringe:
            seen = set()
        # attribute bundle -> [chain, pids, pids, ...]: one probe per
        # group, and one chain_ids call per distinct bundle.
        by_chain: dict = {}
        bucket_get = by_chain.get
        for router_name, groups in router_groups:
            if hasattr(groups, "items"):
                groups = groups.items()
            root: Token = ("router", router_name)
            root_id = symbols.intern_token(root)
            root_base = root_id << EDGE_SHIFT
            router_lists: list = []
            for attributes, pids in groups:
                bucket = bucket_get(attributes)
                if bucket is None:
                    chain = chain_ids(symbols, chains, attributes)
                    by_chain[attributes] = bucket = [chain, pids]
                else:
                    chain = bucket[0]
                    bucket.append(pids)
                # Root edge per (router, head), flushed inline: groups
                # are duplicate-free (RIB uniqueness), so a fresh store
                # is one fromkeys; a router threading several bundles
                # over one nexthop counts into the existing store.
                eid = root_base | chain[0]
                store = edges.get(eid)
                if store is None:
                    edges[eid] = dict.fromkeys(pids, 1)
                else:
                    _count_elements(store, pids)
                if site_id is not None:
                    router_lists.append(pids)
            if site_id is not None and router_lists:
                members = (
                    router_lists[0]
                    if len(router_lists) == 1
                    else list(concat(router_lists))
                )
                eid = (site_id << EDGE_SHIFT) | root_id
                store = edges.get(eid)
                if store is None:
                    edges[eid] = dict.fromkeys(members, 1)
                else:
                    _count_elements(store, members)
                self._has_site_edge = True
        for bucket in by_chain.values():
            head, interior, tail = bucket[0]
            lists = bucket[1:]
            members = lists[0] if len(lists) == 1 else list(concat(lists))
            if seen is not None:
                seen.update(members)
            for eid in interior:
                store = edges.get(eid)
                if store is None:
                    edges[eid] = store = {}
                _count_elements(store, members)
            if include_prefix_leaves:
                store = fringe.get(tail)
                if store is None:
                    fringe[tail] = store = {}
                _count_elements(store, members)
        if seen is not None:
            self._total = len(seen)

    def merge_graph(self, other: "TampGraph") -> None:
        """Fold *other*'s refcount stores into this graph.

        The serve layer's fan-in join (DESIGN.md §13): each monitor
        shard maintains a live :class:`TampGraph` over its slice of the
        peers, and the snapshot layer sums them into one picture. Token
        ids cross the id-space boundary via
        :meth:`~repro.interning.SymbolTable.remap_tokens`; prefix ids
        are value-derived and install untranslated.

        Refcounts *sum*: shards partition routes by peer, so a
        single-shard run's per-(edge, prefix) refcount equals the sum of
        the shard counts — which is what makes the merged picture
        bit-identical to an unsharded one.
        """
        self._invalidate_cache()
        self._adj_dirty = True
        self._has_site_edge = False  # pessimistic; roots() rebuilds
        token_map = self._symbols.remap_tokens(other._symbols)
        edges = self._edges
        for eid, store in other._edges.items():
            merged_eid = (
                token_map[eid >> EDGE_SHIFT] << EDGE_SHIFT
            ) | token_map[eid & EDGE_MASK]
            target = edges.get(merged_eid)
            if target is None:
                edges[merged_eid] = dict(store)
            else:
                get = target.get
                for pid, count in store.items():
                    target[pid] = get(pid, 0) + count
        fringe = self._fringe
        for tail, store in other._fringe.items():
            merged_tail = token_map[tail]
            target = fringe.get(merged_tail)
            if target is None:
                fringe[merged_tail] = dict(store)
            else:
                get = target.get
                for pid, count in store.items():
                    target[pid] = get(pid, 0) + count
        if self.site_root is None:
            self.site_root = other.site_root

    # ------------------------------------------------------------------
    # Mutation (used by pruning and incremental animation)
    # ------------------------------------------------------------------

    def intern_pair(self, parent: Token, child: Token) -> int:
        """Intern an interior edge's tokens; return the packed edge id.

        The id-level mutators below take these — the incremental
        maintainer memoizes a route's edge ids so each event apply is
        one call of pure int traffic (see :mod:`repro.tamp.incremental`).
        A prefix leaf is no interior edge — it lives in the fringe — so
        a ``("pfx", ·)`` child is refused.
        """
        if child[0] == "pfx":
            raise ValueError(
                f"a prefix leaf is not an interior edge: {child!r}"
            )
        symbols = self._symbols
        return (
            symbols.intern_token(parent) << EDGE_SHIFT
        ) | symbols.intern_token(child)

    def decode_pair(self, edge_id: int) -> Edge:
        """Decode a packed edge id back to its (parent, child) tokens."""
        return self._symbols.decode_edge(edge_id)

    def add_prefix(self, parent: Token, child: Token, prefix: Prefix) -> bool:
        """Thread one route's *prefix* over the edge (refcount +1).

        Returns True when the prefix newly appeared on the edge (weight
        grew), False for a pure refcount bump — the distinction the
        animator colors edges by. A ``("pfx", p)`` child is the prefix
        leaf: it lands in the fringe, and only *p* itself may ride it.
        """
        if child[0] == "pfx":
            if child[1] != prefix:
                raise ValueError(
                    f"prefix {prefix} cannot ride the leaf {child!r}"
                )
            self._invalidate_cache()
            tail = self._symbols.intern_token(parent)
            store = self._fringe.setdefault(tail, {})
            pid = self._symbols.intern_prefix(prefix)
            count = store.get(pid, 0)
            store[pid] = count + 1
            return count == 0
        return self.add_route_ids(
            (self.intern_pair(parent, child),),
            self._symbols.intern_prefix(prefix),
            {},
        ) == 1

    def add_route_ids(
        self, edge_ids: Iterable[int], pid: int, pulses: dict[int, int]
    ) -> int:
        """Thread one route's prefix *pid* over every edge of *edge_ids*
        (packed ids from :meth:`intern_pair`; refcount +1 each).

        Each edge the prefix newly appeared on — its weight grew, the
        distinction the animator colors edges by — counts one pulse into
        *pulses*; returns how many there were.
        """
        edges = self._edges
        grown = 0
        for eid in edge_ids:
            store = edges.get(eid)
            if store is None:
                edges[eid] = {pid: 1}
                if not self._adj_dirty:
                    parent = eid >> EDGE_SHIFT
                    child = eid & EDGE_MASK
                    self._children.setdefault(parent, set()).add(child)
                    self._parents.setdefault(child, set()).add(parent)
            else:
                count = store.get(pid)
                if count is not None:
                    store[pid] = count + 1
                    continue
                store[pid] = 1
            pulses[eid] = pulses.get(eid, 0) + 1
            grown += 1
        if grown:
            self._invalidate_cache()
        return grown

    def discard_route_ids(
        self, edge_ids: Iterable[int], pid: int, pulses: dict[int, int]
    ) -> int:
        """Drop one route's prefix *pid* from every edge of *edge_ids*
        (refcount −1 each; an edge whose last prefix leaves goes too).

        Each edge the prefix actually left — its last reference dropped
        — counts one pulse into *pulses*; returns how many there were.
        """
        edges = self._edges
        dropped = 0
        for eid in edge_ids:
            store = edges.get(eid)
            if store is None:
                continue
            count = store.get(pid)
            if count is None:
                continue
            if count > 1:
                store[pid] = count - 1
                continue
            del store[pid]
            if not store:
                self.remove_edge_ids(eid)
            pulses[eid] = pulses.get(eid, 0) + 1
            dropped += 1
        if dropped:
            self._invalidate_cache()
        return dropped

    def remove_edge(self, parent: Token, child: Token) -> None:
        self._invalidate_cache()
        symbols = self._symbols
        parent_id = symbols.token_id(parent)
        if parent_id is None:
            return
        if child[0] == "pfx":
            store = self._fringe.get(parent_id)
            if store is not None:
                pid = symbols.intern_prefix(child[1])  # type: ignore[arg-type]
                store.pop(pid, None)
                if not store:
                    del self._fringe[parent_id]
            return
        child_id = symbols.token_id(child)
        if child_id is not None:
            self.remove_edge_ids((parent_id << EDGE_SHIFT) | child_id)

    def remove_edge_ids(self, edge_id: int) -> None:
        """Id-level :meth:`remove_edge`."""
        self._invalidate_cache()
        # Pessimistic: the removed edge might be the site link, so the
        # roots() short-circuit may no longer assume one exists.
        self._has_site_edge = False
        self._edges.pop(edge_id, None)
        if self._adj_dirty:
            return
        parent = edge_id >> EDGE_SHIFT
        child = edge_id & EDGE_MASK
        children = self._children.get(parent)
        if children is not None:
            children.discard(child)
            if not children:
                del self._children[parent]
        parents = self._parents.get(child)
        if parents is not None:
            parents.discard(parent)
            if not parents:
                del self._parents[child]

    def adopt_edge_ids(self, edge_id: int, store: dict[int, int]) -> None:
        """Install an edge with a copy of an existing refcount map.

        The bulk transfer used when deriving one graph from another
        (pruning builds its survivor graph this way). Only valid between
        graphs sharing a symbol table (the survivor graph is constructed
        with ``symbols=graph.symbols``).
        """
        self._edges[edge_id] = dict(store)
        if not self._adj_dirty:
            parent = edge_id >> EDGE_SHIFT
            child = edge_id & EDGE_MASK
            self._children.setdefault(parent, set()).add(child)
            self._parents.setdefault(child, set()).add(parent)
        self._invalidate_cache()

    def adopt_fringe_ids(self, tail: int, store: dict[int, int]) -> None:
        """Install *tail*'s prefix leaves with a copy of an existing
        fringe store: the leaf counterpart of :meth:`adopt_edge_ids`,
        under the same shared-symbol-table condition."""
        self._fringe[tail] = dict(store)
        self._invalidate_cache()

    # ------------------------------------------------------------------
    # Queries (the decode boundary — ids never escape)
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[tuple[Edge, set[Prefix]]]:
        symbols = self._symbols
        token = symbols.token
        prefix = symbols.prefix
        for eid, store in self._edges.items():
            yield (
                (token(eid >> EDGE_SHIFT), token(eid & EDGE_MASK)),
                set(map(prefix, store)),
            )
        for tail, store in self._fringe.items():
            tail_token = token(tail)
            for pid in store:
                leaf = prefix(pid)
                yield (tail_token, ("pfx", leaf)), {leaf}

    def raw_edges(self) -> Iterator[tuple[Edge, dict[Prefix, int]]]:
        """Iterate edges with their per-prefix refcount maps.

        The maps are decoded copies — whole-graph passes that only need
        weights should use :meth:`raw_id_edges` instead, which is
        allocation-free for the interior.
        """
        symbols = self._symbols
        token = symbols.token
        prefix = symbols.prefix
        for eid, store in self._edges.items():
            yield (
                (token(eid >> EDGE_SHIFT), token(eid & EDGE_MASK)),
                {prefix(pid): count for pid, count in store.items()},
            )
        for tail, store in self._fringe.items():
            tail_token = token(tail)
            for pid, count in store.items():
                yield (tail_token, ("pfx", prefix(pid))), {prefix(pid): count}

    def raw_id_edges(self) -> Iterator[tuple[int, dict[int, int]]]:
        """Iterate the interior (edge id, refcount map) pairs without
        token decoding.

        The mappings are live internal state — callers must not mutate
        them. Prefix leaves have no edge id: read them with
        :meth:`fringe_stores`.
        """
        return iter(self._edges.items())

    def fringe_stores(self) -> Iterator[tuple[int, dict[int, int]]]:
        """Iterate (tail token id, {prefix id: refcount}) fringe stores.

        Each entry stands for ``len(store)`` leaf edges of weight 1 (the
        leaf invariant). The mappings are live internal state — callers
        must not mutate them.
        """
        return iter(self._fringe.items())

    def edge_list(self) -> list[Edge]:
        decode = self._symbols.decode_edge
        found = [decode(eid) for eid in self._edges]
        token = self._symbols.token
        prefix = self._symbols.prefix
        for tail, store in self._fringe.items():
            tail_token = token(tail)
            found.extend((tail_token, ("pfx", prefix(pid))) for pid in store)
        return found

    def _store(self, parent: Token, child: Token) -> Optional[dict]:
        """The edge's refcount map, or None: a prefix leaf's one-entry
        view of its fringe store, or the interior store."""
        symbols = self._symbols
        parent_id = symbols.token_id(parent)
        if parent_id is None:
            return None
        if child[0] == "pfx":
            pid = symbols.intern_prefix(child[1])  # type: ignore[arg-type]
            count = self._fringe.get(parent_id, {}).get(pid)
            return None if count is None else {pid: count}
        child_id = symbols.token_id(child)
        if child_id is None:
            return None
        return self._edges.get((parent_id << EDGE_SHIFT) | child_id)

    def has_edge(self, parent: Token, child: Token) -> bool:
        return self._store(parent, child) is not None

    def weight_id(self, edge_id: int) -> int:
        """Id-level :meth:`weight` for interior edges (no token decode).

        A prefix leaf has no edge id; the incremental maintainer — the
        only id-level caller — keeps no leaves, so the interior store is
        complete for it.
        """
        store = self._edges.get(edge_id)
        return 0 if store is None else len(store)

    def weight(self, parent: Token, child: Token) -> int:
        """Unique prefixes on the edge — the paper's edge weight."""
        store = self._store(parent, child)
        return 0 if store is None else len(store)

    def edge_prefixes(self, parent: Token, child: Token) -> frozenset[Prefix]:
        store = self._store(parent, child)
        if store is None:
            return frozenset()
        return frozenset(map(self._symbols.prefix, store))

    def children(self, node: Token) -> set[Token]:
        node_id = self._symbols.token_id(node)
        if node_id is None:
            return set()
        token = self._symbols.token
        child_map, _ = self._adj()
        found = {token(child) for child in child_map.get(node_id, ())}
        store = self._fringe.get(node_id)
        if store is not None:
            prefix = self._symbols.prefix
            found.update(("pfx", prefix(pid)) for pid in store)
        return found

    def parents(self, node: Token) -> set[Token]:
        symbols = self._symbols
        token = symbols.token
        if node[0] == "pfx":
            pid = symbols.intern_prefix(node[1])  # type: ignore[arg-type]
            return {
                token(tail)
                for tail, store in self._fringe.items()
                if pid in store
            }
        node_id = symbols.token_id(node)
        if node_id is None:
            return set()
        _, parent_map = self._adj()
        return {token(parent) for parent in parent_map.get(node_id, ())}

    def nodes(self) -> set[Token]:
        ids: set[int] = set()
        for eid in self._edges:
            ids.add(eid >> EDGE_SHIFT)
            ids.add(eid & EDGE_MASK)
        ids.update(self._fringe)
        found = set(map(self._symbols.token, ids))
        prefix = self._symbols.prefix
        for store in self._fringe.values():
            found.update(("pfx", prefix(pid)) for pid in store)
        if self.site_root is not None:
            found.add(self.site_root)
        return found

    def node_count(self) -> int:
        """``len(self.nodes())``, counted on ids.

        A live monitor asks once per window report; decoding every node
        to a token just to count them costs more than the rest of the
        annotation together.
        """
        children, parents = self._adj()
        ids = set(children)
        ids.update(parents)
        ids.update(self._fringe)
        # A leaf is one node however many tails reach it.
        leaves: set[int] = set()
        leaves.update(*self._fringe.values())
        count = len(ids) + len(leaves)
        site_root = self.site_root
        if site_root is not None:
            if self._symbols.token_id(site_root) not in ids:
                count += 1
        return count

    def roots(self) -> list[Token]:
        """Nodes with no parents: the site root, or the router roots."""
        site_root = self.site_root
        # Freshly batch-built graphs know they wired the site link —
        # answer without touching (or rebuilding) adjacency at all.
        if site_root is not None and self._has_site_edge:
            return [site_root]
        token = self._symbols.token
        child_map, parent_map = self._adj()
        if site_root is not None:
            site_id = self._symbols.token_id(site_root)
            if site_id is not None and (
                site_id in child_map or site_id in parent_map
            ):
                return [site_root]
        # Every root has an outgoing edge (nodes only exist on edges),
        # so the interior parents and the fringe tails are exhaustive.
        return sorted(
            (
                token(n)
                for n in child_map.keys() | self._fringe.keys()
                if not parent_map.get(n)
            ),
            key=str,
        )

    def total_prefixes(self) -> int:
        """Distinct prefixes represented in the graph (the 100% mark).

        Cached until the next mutation: pruning asks for this once per
        edge fraction, and the answer only changes when an edge's prefix
        membership does.
        """
        if self._total is None:
            # One C-level union per store family: a live monitor asks
            # again after every window's worth of changes.
            seen: set[int] = set()
            seen.update(*self._edges.values())
            seen.update(*self._fringe.values())
            self._total = len(seen)
        return self._total

    def all_prefixes(self) -> set[Prefix]:
        seen: set[int] = set()
        for store in self._edges.values():
            seen.update(store)
        for store in self._fringe.values():
            seen.update(store)
        return set(map(self._symbols.prefix, seen))

    def edge_fraction(self, parent: Token, child: Token) -> float:
        """This edge's share of all prefixes (drives thickness/pruning)."""
        total = self.total_prefixes()
        if total == 0:
            return 0.0
        return self.weight(parent, child) / total

    def depths(self) -> dict[Token, int]:
        """BFS depth of every node from the root set (for pruning/layout)."""
        token = self._symbols.token
        prefix = self._symbols.prefix
        by_id = self._id_depths()
        found = {token(node): depth for node, depth in by_id.items()}
        # A leaf is one node, just below the shallowest tail reaching it.
        for tail, store in self._fringe.items():
            if tail in by_id:
                below = by_id[tail] + 1
                for pid in store:
                    leaf: Token = ("pfx", prefix(pid))
                    found[leaf] = min(found.get(leaf, below), below)
        return found

    def _id_depths(self) -> dict[int, int]:
        """BFS depths keyed by token id (the prune-internal variant)."""
        token_id = self._symbols.token_id
        depths: dict[int, int] = {}
        queue: deque[int] = deque()
        for root in self.roots():
            root_id = token_id(root)
            assert root_id is not None
            depths[root_id] = 0
            queue.append(root_id)
        children, _ = self._adj()
        while queue:
            node = queue.popleft()
            below = depths[node] + 1
            for child in children.get(node, ()):
                if child not in depths:
                    depths[child] = below
                    queue.append(child)
        return depths

    def edge_count(self) -> int:
        return len(self._edges) + sum(
            len(store) for store in self._fringe.values()
        )

    def __len__(self) -> int:
        return self.edge_count()

    def copy(self) -> "TampGraph":
        duplicate = TampGraph(symbols=self._symbols)
        duplicate.site_root = self.site_root
        duplicate._edges = {
            eid: dict(store) for eid, store in self._edges.items()
        }
        if self._adj_dirty:
            # Stale maps are not worth copying — the duplicate rebuilds
            # its own from the edge keys on first traversal.
            duplicate._adj_dirty = True
        else:
            duplicate._children = {
                node: set(children)
                for node, children in self._children.items()
            }
            duplicate._parents = {
                node: set(parents)
                for node, parents in self._parents.items()
            }
        duplicate._fringe = {
            tail: dict(store) for tail, store in self._fringe.items()
        }
        duplicate._has_site_edge = self._has_site_edge
        duplicate._total = self._total
        return duplicate
