"""Per-build symbol tables mapping tokens and prefixes to int ids.

A :class:`SymbolTable` owns two id spaces:

* **token ids** — one per distinct ``(namespace, value)`` node token,
  assigned densely in first-appearance order from a per-table map;
* **prefix ids** — *value-derived*: a prefix's id is computed from its
  bits (:func:`pack_prefix`), not assigned from a table.

Prefixes get their own space because they are what edge *weights* count:
a ``dict[prefix_id, refcount]`` per edge, and int-set unions over those
keys, replace the per-edge ``set[Prefix]`` object churn. A prefix
that also appears as a leaf *node* additionally has a token id for its
``("pfx", prefix)`` token, memoized by :meth:`pfx_token_id`.

Prefix ids being pure functions of the prefix is what makes the serve
fan-in cheap: every monitor shard computes *identical* prefix ids with
no shared state, so joining shard graphs never remaps a refcount
store's keys — only the (few thousand) token ids need translation. It
also makes encoding two attribute loads and two shifts instead of a
dict probe through a Python-level ``Prefix.__hash__``, which at 1.5M
routes per picture is a measurable slice of the whole build. The host
bits are shifted out (a ``/L`` prefix has exactly ``L`` meaningful
network bits) so consecutive prefixes get consecutive ids and the
id-keyed stores probe well-spread dict slots.

Token ids stay table-assigned and append-only, so a graph derived from
another (pruning, copies) can share its parent's table safely. Edge
keys pack two token ids into one int (:func:`pack_edge`) so an edge
lookup is a single small-int hash.
"""

from __future__ import annotations

from typing import Optional

from repro.collector.events import Token
from repro.net.prefix import Prefix

#: Child token id occupies the low bits of a packed edge key. 32 bits
#: allows four billion distinct nodes — vastly above any real table.
EDGE_SHIFT = 32
EDGE_MASK = (1 << EDGE_SHIFT) - 1

#: Mask length occupies the bits above the (host-bit-stripped) network
#: bits of a packed prefix id.
PREFIX_SHIFT = 32
PREFIX_MASK = (1 << PREFIX_SHIFT) - 1


def pack_edge(parent_id: int, child_id: int) -> int:
    """Pack a (parent, child) token-id pair into one int edge key."""
    return (parent_id << EDGE_SHIFT) | child_id


def unpack_edge(edge_id: int) -> tuple[int, int]:
    """Invert :func:`pack_edge`."""
    return edge_id >> EDGE_SHIFT, edge_id & EDGE_MASK


def pack_prefix(prefix: Prefix) -> int:
    """The value-derived id of *prefix*: ``length | network-bits``.

    The network's host bits are shifted out, so a /24 walk through
    adjacent networks yields consecutive ids — dict slots stay spread
    even for the stride-aligned prefix blocks synthetic workloads (and
    real aggregation) produce. Hot loops inline this expression rather
    than paying a call per prefix; keep them in sync.
    """
    return (prefix.length << PREFIX_SHIFT) | (
        prefix.network >> (32 - prefix.length)
    )


def unpack_prefix(pid: int) -> Prefix:
    """Invert :func:`pack_prefix`."""
    length = pid >> PREFIX_SHIFT
    return Prefix((pid & PREFIX_MASK) << (32 - length), length)


class SymbolTable:
    """Bidirectional token ↔ dense-int mapping plus prefix-id codecs.

    Owned state: construct one per picture build (or per monitor
    shard) and let it die with the graphs that reference it, or one per
    long-lived owner that bounds it — the window stage's
    :class:`~repro.stemming.stemmer.StemIndex` is dropped and reloaded
    from the live events when its table has doubled, since a table only
    grows. Never store one at module level.

    Prefix ids are value-derived (:func:`pack_prefix`), so the prefix
    side holds no assignment state — only a decode memo that keeps
    repeated :meth:`prefix` calls from constructing duplicate
    :class:`Prefix` objects at the decode boundary.
    """

    __slots__ = ("_token_ids", "_tokens", "_prefix_memo", "_pfx_tids")

    def __init__(self) -> None:
        self._token_ids: dict[Token, int] = {}
        self._tokens: list[Token] = []
        #: prefix id -> decoded Prefix, filled lazily at the decode
        #: boundary.
        self._prefix_memo: dict[int, Prefix] = {}
        #: prefix id -> token id of its ("pfx", prefix) leaf token,
        #: interned lazily (most prefixes never become nodes when
        #: include_prefix_leaves is off).
        self._pfx_tids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def intern_token(self, token: Token) -> int:
        """The id for *token*, assigning the next id on first sight."""
        ids = self._token_ids
        tid = ids.get(token)
        if tid is None:
            tid = len(ids)
            ids[token] = tid
            self._tokens.append(token)
        return tid

    def intern_prefix(self, prefix: Prefix) -> int:
        """The id for *prefix* — pure arithmetic, no table state."""
        return (prefix.length << PREFIX_SHIFT) | (
            prefix.network >> (32 - prefix.length)
        )

    def pfx_token_id(self, pid: int) -> int:
        """Token id of the ``("pfx", prefix)`` leaf node for prefix *pid*."""
        tid = self._pfx_tids.get(pid)
        if tid is None:
            tid = self.intern_token(("pfx", self.prefix(pid)))
            self._pfx_tids[pid] = tid
        return tid

    @property
    def pfx_token_id_map(self) -> dict[int, int]:
        """The live prefix-id → leaf-token-id memo behind
        :meth:`pfx_token_id`.

        Exposed for hot loops that want the common (already-memoized)
        case as a bound ``dict.get`` instead of a method call per
        prefix, falling back to :meth:`pfx_token_id` on a miss. Callers
        must treat the mapping as read-only.
        """
        return self._pfx_tids

    def token_id(self, token: Token) -> Optional[int]:
        """The id for *token* if already interned, else None."""
        return self._token_ids.get(token)

    def prefix_id(self, prefix: Prefix) -> int:
        """Alias of :meth:`intern_prefix`: value-derived, never None."""
        return (prefix.length << PREFIX_SHIFT) | (
            prefix.network >> (32 - prefix.length)
        )

    # ------------------------------------------------------------------
    # Decoding (the boundary)
    # ------------------------------------------------------------------

    def token(self, tid: int) -> Token:
        return self._tokens[tid]

    def prefix(self, pid: int) -> Prefix:
        prefix = self._prefix_memo.get(pid)
        if prefix is None:
            length = pid >> PREFIX_SHIFT
            prefix = Prefix((pid & PREFIX_MASK) << (32 - length), length)
            self._prefix_memo[pid] = prefix
        return prefix

    def decode_edge(self, edge_id: int) -> tuple[Token, Token]:
        """Decode a packed edge key back to a (parent, child) token pair."""
        tokens = self._tokens
        return (tokens[edge_id >> EDGE_SHIFT], tokens[edge_id & EDGE_MASK])

    @property
    def token_count(self) -> int:
        return len(self._tokens)

    # ------------------------------------------------------------------
    # Merging (shard join)
    # ------------------------------------------------------------------

    def remap_tokens(self, other: "SymbolTable") -> list[int]:
        """Intern every token of *other*; return the old→new id map.

        The list is indexed by *other*'s token ids. Interning in
        *other*'s id order keeps first-appearance ordering across a
        shard join identical to an unsharded build over the same trees.
        Prefix ids need no counterpart: they are value-derived, so every
        table already agrees on them.
        """
        intern = self.intern_token
        return [intern(token) for token in other._tokens]
