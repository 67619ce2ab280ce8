"""The object-set reference implementation of the TAMP picture build.

This module preserves the original builder — tuple-token dict keys,
per-edge ``set[Prefix]``/``Counter[Prefix]`` stores — exactly as it
shipped before the interning rewrite (DESIGN.md §10). It exists so the
fast path can be *checked*, not trusted:

* ``tests/tamp/test_interned_equivalence.py`` asserts the interned
  builder produces an identical graph (edge set, weights, prune
  survivors, rendered picture) on Berkeley- and ISP-profile inputs;
* ``benchmarks/test_ablations.py`` pits the two against each other to
  quantify the win ("object sets vs interned bitsets").

It is deliberately the *slow* formulation — every INT001 finding below
is the point of the module, hence the suppressions.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Iterator, Optional

from repro.bgp.rib import Route
from repro.collector.events import Token
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix
from repro.tamp.tree import Edge, route_path_tokens


class ReferenceTampTree:
    """One router's TAMP tree over object prefix sets (Figure 1(a)/(b))."""

    __slots__ = ("root", "include_prefix_leaves", "_edges", "_children")

    def __init__(
        self,
        router_name: str,
        include_prefix_leaves: bool = True,
    ) -> None:
        self.root: Token = ("router", router_name)
        self.include_prefix_leaves = include_prefix_leaves
        self._edges: dict[Edge, set[Prefix]] = {}
        self._children: dict[Token, set[Token]] = {}

    @classmethod
    def from_routes(
        cls,
        router_name: str,
        routes: Iterable[Route],
        include_prefix_leaves: bool = True,
    ) -> "ReferenceTampTree":
        """Build a tree from a route table (grouped by attribute bundle)."""
        tree = cls(router_name, include_prefix_leaves)
        by_attrs: dict[PathAttributes, list[Prefix]] = {}
        for route in routes:
            by_attrs.setdefault(route.attributes, []).append(route.prefix)
        for attributes, prefixes in by_attrs.items():
            tree.add_route_group(prefixes, attributes)
        return tree

    def add_route_group(
        self, prefixes: list[Prefix], attributes: PathAttributes
    ) -> None:
        """Thread many routes sharing one attribute bundle."""
        chain = route_path_tokens(
            self.root, prefixes[0], attributes, include_prefix_leaf=False
        )
        for parent, child in zip(chain, chain[1:]):
            # repro: allow[INT001] reference implementation — the
            # un-interned store is what this module exists to preserve.
            edge = (parent, child)
            existing = self._edges.get(edge)
            if existing is None:
                existing = set()
                self._edges[edge] = existing
                self._children.setdefault(parent, set()).add(child)
            existing.update(prefixes)
        if self.include_prefix_leaves:
            leaf_parent = chain[-1]
            children = self._children.setdefault(leaf_parent, set())
            for prefix in prefixes:
                # repro: allow[INT001] reference implementation (see
                # module docstring).
                edge = (leaf_parent, ("pfx", prefix))
                leaf_set = self._edges.get(edge)
                if leaf_set is None:
                    self._edges[edge] = {prefix}
                    children.add(("pfx", prefix))
                else:
                    leaf_set.add(prefix)

    def edges(self) -> Iterator[tuple[Edge, set[Prefix]]]:
        yield from self._edges.items()

    def weight(self, parent: Token, child: Token) -> int:
        return len(self._edges.get((parent, child), ()))

    def total_prefixes(self) -> int:
        prefixes: set[Prefix] = set()
        for edge_prefixes in self._edges.values():
            prefixes |= edge_prefixes
        return len(prefixes)

    def edge_count(self) -> int:
        return len(self._edges)


class ReferenceTampGraph:
    """The pre-interning :class:`repro.tamp.TampGraph` (Counter stores).

    The public query surface matches the interned graph token for
    token, so layout and rendering run on either unchanged — which is
    what lets the equivalence test hash both pictures.
    """

    __slots__ = ("site_root", "_edges", "_children", "_parents", "_total")

    def __init__(self, site_name: Optional[str] = None) -> None:
        self.site_root: Optional[Token] = (
            ("root", site_name) if site_name is not None else None
        )
        self._edges: dict[Edge, dict[Prefix, int]] = {}
        self._children: dict[Token, set[Token]] = {}
        self._parents: dict[Token, set[Token]] = {}
        self._total: Optional[int] = None

    def _invalidate_cache(self) -> None:
        self._total = None

    @classmethod
    def merge(
        cls,
        trees: Iterable[ReferenceTampTree],
        site_name: Optional[str] = None,
    ) -> "ReferenceTampGraph":
        graph = cls(site_name)
        for tree in trees:
            graph.merge_tree(tree)
        return graph

    def merge_tree(self, tree: ReferenceTampTree) -> None:
        site_root = self.site_root
        tree_root = tree.root
        # repro: allow[INT001] reference implementation — object prefix
        # sets are the baseline the interned builder is checked against.
        root_prefixes: set[Prefix] = set()
        for (parent, child), prefixes in tree.edges():
            self._bulk_add(parent, child, prefixes)
            if site_root is not None and parent == tree_root:
                root_prefixes |= prefixes
        if site_root is not None:
            self._bulk_add(site_root, tree_root, root_prefixes)

    def _bulk_add(self, parent: Token, child: Token, prefixes) -> None:
        if not prefixes:
            return
        self._invalidate_cache()
        # repro: allow[INT001] reference implementation (see module
        # docstring).
        edge = (parent, child)
        existing = self._edges.get(edge)
        if existing is None:
            existing = Counter()
            self._edges[edge] = existing
            self._children.setdefault(parent, set()).add(child)
            self._parents.setdefault(child, set()).add(parent)
        existing.update(prefixes)

    def adopt_edge(
        self, parent: Token, child: Token, prefixes: dict[Prefix, int]
    ) -> None:
        self._edges[(parent, child)] = dict(prefixes)
        self._children.setdefault(parent, set()).add(child)
        self._parents.setdefault(child, set()).add(parent)
        self._invalidate_cache()

    def remove_edge(self, parent: Token, child: Token) -> None:
        self._invalidate_cache()
        self._edges.pop((parent, child), None)
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

    # -- queries (verbatim from the original TampGraph) ----------------

    def edges(self) -> Iterator[tuple[Edge, set[Prefix]]]:
        for edge, prefixes in self._edges.items():
            yield edge, set(prefixes)

    def raw_edges(self) -> Iterator[tuple[Edge, dict[Prefix, int]]]:
        yield from self._edges.items()

    def edge_list(self) -> list[Edge]:
        return list(self._edges)

    def has_edge(self, parent: Token, child: Token) -> bool:
        return (parent, child) in self._edges

    def weight(self, parent: Token, child: Token) -> int:
        return len(self._edges.get((parent, child), ()))

    def edge_prefixes(self, parent: Token, child: Token) -> frozenset[Prefix]:
        return frozenset(self._edges.get((parent, child), ()))

    def children(self, node: Token) -> set[Token]:
        return set(self._children.get(node, ()))

    def parents(self, node: Token) -> set[Token]:
        return set(self._parents.get(node, ()))

    def nodes(self) -> set[Token]:
        found: set[Token] = set()
        if self.site_root is not None:
            found.add(self.site_root)
        for parent, child in self._edges:
            found.add(parent)
            found.add(child)
        return found

    def roots(self) -> list[Token]:
        if self.site_root is not None and self.site_root in self.nodes():
            return [self.site_root]
        return sorted(
            (n for n in self.nodes() if not self._parents.get(n)),
            key=str,
        )

    def total_prefixes(self) -> int:
        if self._total is None:
            self._total = len(self.all_prefixes())
        return self._total

    def all_prefixes(self) -> set[Prefix]:
        prefixes: set[Prefix] = set()
        for edge_prefixes in self._edges.values():
            prefixes.update(edge_prefixes)
        return prefixes

    def edge_fraction(self, parent: Token, child: Token) -> float:
        total = self.total_prefixes()
        if total == 0:
            return 0.0
        return self.weight(parent, child) / total

    def depths(self) -> dict[Token, int]:
        depths: dict[Token, int] = {}
        queue: deque[Token] = deque()
        for root in self.roots():
            depths[root] = 0
            queue.append(root)
        while queue:
            node = queue.popleft()
            for child in self._children.get(node, ()):
                if child not in depths:
                    depths[child] = depths[node] + 1
                    queue.append(child)
        return depths

    def edge_count(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def copy(self) -> "ReferenceTampGraph":
        duplicate = ReferenceTampGraph()
        duplicate.site_root = self.site_root
        duplicate._edges = {
            edge: dict(prefixes) for edge, prefixes in self._edges.items()
        }
        duplicate._children = {
            node: set(children) for node, children in self._children.items()
        }
        duplicate._parents = {
            node: set(parents) for node, parents in self._parents.items()
        }
        duplicate._total = self._total
        return duplicate


def reference_prune_flat(
    graph: ReferenceTampGraph, threshold: float = 0.05
) -> ReferenceTampGraph:
    """The original survivor-first flat prune over the object-set graph."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    total = graph.total_prefixes()
    if total == 0:
        return graph.copy()
    pruned = ReferenceTampGraph()
    pruned.site_root = graph.site_root
    for (parent, child), prefixes in graph.raw_edges():
        if len(prefixes) / total >= threshold:
            pruned.adopt_edge(parent, child, prefixes)
    _sweep_unreachable(pruned, graph.roots())
    return pruned


def _sweep_unreachable(graph: ReferenceTampGraph, roots) -> None:
    reachable: set = set()
    queue = deque(roots)
    reachable.update(roots)
    while queue:
        node = queue.popleft()
        for child in sorted(graph.children(node), key=str):
            if child not in reachable:
                reachable.add(child)
                queue.append(child)
    for parent, child in graph.edge_list():
        if parent not in reachable:
            graph.remove_edge(parent, child)


def reference_picture(
    route_groups: Iterable[tuple[str, Iterable[Route]]],
    site_name: Optional[str] = None,
    include_prefix_leaves: bool = True,
    threshold: Optional[float] = 0.05,
) -> ReferenceTampGraph:
    """The original end-to-end picture build (trees → merge → prune)."""
    graph = ReferenceTampGraph(site_name)
    for router_name, routes in route_groups:
        graph.merge_tree(
            ReferenceTampTree.from_routes(
                router_name, routes, include_prefix_leaves
            )
        )
    if threshold is None:
        return graph
    return reference_prune_flat(graph, threshold)
