"""The node chain of a TAMP route, and its interned form.

A router's TAMP tree represents the BGP routes it knows at one moment:
the root is the router, linked to each BGP nexthop of its routes; each
nexthop links to the AS it services; ASes link downstream along the AS
path; leaf ASes link to the prefixes they advertise (Figure 1). This
module holds only the per-route piece of that tree:

* :func:`route_path_tokens` — the token chain one route threads, as the
  object-level oracle (:mod:`repro.tamp.reference`) walks it;
* :func:`chain_ids` — the same chain after the root, interned and
  packed into edge ids, memoized per attribute bundle in a
  :data:`ChainCache`; the batch build
  (:meth:`repro.tamp.graph.TampGraph.merge_id_view`) folds whole views
  through it without ever materializing a per-router tree, and the
  incremental maintainer (:mod:`repro.tamp.incremental`) prefixes it
  with each peer's root edge to apply one route at a time.

Nodes are the same (namespace, value) tokens Stemming uses — ``("router",
name)``, ``("nh", address)``, ``("as", asn)``, ``("pfx", prefix)`` — which
lets a Stemming stem be highlighted directly on a TAMP picture.
"""

from __future__ import annotations

from repro.collector.events import Token
from repro.interning import EDGE_SHIFT, SymbolTable
from repro.net.attributes import PathAttributes
from repro.net.prefix import Prefix

Edge = tuple[Token, Token]

#: Shared memo of interned route chains: attrs bundle -> (id of the
#: first post-root node, packed interior edge ids, id of the tail node).
ChainCache = dict[PathAttributes, tuple[int, tuple[int, ...], int]]


def route_path_tokens(
    router: Token,
    prefix: Prefix,
    attributes: PathAttributes,
    include_prefix_leaf: bool = True,
) -> list[Token]:
    """The node chain a route contributes: router, nexthop, ASes[, prefix].

    Duplicate consecutive ASes (prepending) collapse to one node — a
    prepended path traverses the same AS once. The collapsed AS tokens
    are cached on the path instance (see ``ASPath.collapsed_tokens``).
    """
    chain: list[Token] = [router, ("nh", attributes.nexthop)]
    chain.extend(attributes.as_path.collapsed_tokens())
    if include_prefix_leaf:
        chain.append(("pfx", prefix))
    return chain


def chain_ids(
    symbols: SymbolTable, cache: ChainCache, attributes: PathAttributes
) -> tuple[int, tuple[int, ...], int]:
    """The interned post-root chain for a route, memoized in *cache*.

    Returns (id of the first node after the root, the packed edge ids
    linking the chain after that node, id of the tail node) — the
    :func:`route_path_tokens` chain minus its root and prefix leaf.
    Neither is part of the entry, so it depends only on the attribute
    bundle and one cache serves every router of a build (the root edge
    packs the caller's root id against the returned head id).
    """
    cached = cache.get(attributes)
    if cached is None:
        ids = [symbols.intern_token(("nh", attributes.nexthop))]
        ids.extend(
            map(symbols.intern_token, attributes.as_path.collapsed_tokens())
        )
        cached = cache[attributes] = (
            ids[0],
            tuple(
                (parent << EDGE_SHIFT) | child
                for parent, child in zip(ids, ids[1:])
            ),
            ids[-1],
        )
    return cached
