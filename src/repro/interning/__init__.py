"""Token and prefix interning for the TAMP hot path.

The TAMP picture builder's workload is millions of dictionary and set
operations whose keys are ``(namespace, value)`` token tuples and
:class:`~repro.net.prefix.Prefix` objects. Hashing a tuple walks its
elements; hashing a small int is (nearly) the int itself, and two ints
pack into a single int edge key. Interning the four token namespaces
(``router``, ``nh``, ``as``, ``pfx``) to dense contiguous ids and
packing each prefix's bits into a value-derived id
(:func:`pack_prefix`) therefore turns the hot loops into plain int
dict/set traffic — the cheapest primitives CPython has.

The contract that keeps the rest of the system oblivious is
**decode at the boundary** (DESIGN.md §10): interned ids never escape
the builder; every public query on :class:`repro.tamp.TampGraph`
decodes ids back to real tokens/prefixes, and decoding happens on
pruned (small) graphs, never per-route.

The graph stores prefix membership as id-keyed refcount maps.

Symbol tables are **per build** — created by a builder, carried by the
graphs it produces, and garbage-collected with them. There is no
module-global table (rule PIPE001 stays clean by construction), so the
serve layer's monitor shards each grow their own table and the fan-in
merges them by offset remap (:meth:`SymbolTable.remap_tokens`).
"""

from repro.interning.symbols import (
    EDGE_MASK,
    EDGE_SHIFT,
    PREFIX_MASK,
    PREFIX_SHIFT,
    SymbolTable,
    pack_edge,
    pack_prefix,
    unpack_edge,
    unpack_prefix,
)

__all__ = [
    "EDGE_MASK",
    "EDGE_SHIFT",
    "PREFIX_MASK",
    "PREFIX_SHIFT",
    "SymbolTable",
    "pack_edge",
    "pack_prefix",
    "unpack_edge",
    "unpack_prefix",
]
