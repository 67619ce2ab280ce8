"""A prefix leaf is stored one way: in the graph's fringe.

Every operation that can put a ``("pfx", p)`` leaf into a
:class:`TampGraph` — batch builds, both prunes, ``add_prefix``,
``remove_edge`` and the shard join — is run in generated sequences
beside the object-level oracle (:mod:`tests.tamp.reference`), which
keeps every edge, leaves included, in one token-keyed store. After
each step no interior edge may end in a leaf, the id-level node count
must match the decoded nodes, and the decoded edges, refcounts and
nodes must equal the oracle's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.rib import Route
from repro.interning import EDGE_MASK
from repro.net.prefix import Prefix
from repro.tamp.graph import TampGraph
from repro.tamp.picture import build_picture
from repro.tamp.prune import prune_flat, prune_hierarchical
from tests.tamp.reference import (
    reference_picture,
    reference_prune_flat,
    reference_prune_hierarchical,
)
from tests.tamp.test_interned_equivalence import NEXTHOPS, SMALL_ATTRS

PREFIXES = [Prefix(0x0A000000 + index * 256, 24) for index in range(6)]

#: Nodes a hand-added edge may start at: the chain vocabulary of the
#: generated views, so added edges land on existing nodes too.
PARENTS = [
    ("router", "r0"),
    ("nh", NEXTHOPS[0]),
    *(("as", asn) for asn in range(1, 5)),
]

views = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, len(PREFIXES) - 1)),
    st.sampled_from(sorted(SMALL_ATTRS, key=repr)),
    max_size=10,
)


def route_groups(view, routers=(0, 1, 2)):
    return [
        (
            f"r{router}",
            [
                Route(PREFIXES[index], SMALL_ATTRS[key])
                for (owner, index), key in view.items()
                if owner == router
            ],
        )
        for router in routers
    ]


steps = st.one_of(
    st.tuples(
        st.just("build"),
        views,
        st.sampled_from(["site", None]),
        st.booleans(),
    ),
    st.tuples(st.just("prune_flat"), st.sampled_from([0.0, 0.1, 0.3, 1.0])),
    st.tuples(
        st.just("prune_hierarchical"),
        st.sampled_from([0.0, 0.2, 0.6]),
        st.integers(0, 4),
    ),
    st.tuples(
        st.just("add_prefix"),
        st.sampled_from(PARENTS),
        st.one_of(
            st.none(),  # the prefix's own leaf
            st.sampled_from([("as", asn) for asn in range(1, 6)]),
        ),
        st.sampled_from(PREFIXES),
    ),
    st.tuples(st.just("remove_edge"), st.integers(0, 40)),
    st.tuples(st.just("merge_graph"), views, st.booleans()),
)


def apply(graph, reference, step):
    """One *step* on both graphs; returns the pair that results."""
    kind = step[0]
    if kind == "build":
        _, view, site, leaves = step
        groups = route_groups(view)
        return (
            build_picture(groups, site, leaves),
            reference_picture(groups, site, leaves, threshold=None),
        )
    if kind == "prune_flat":
        return (
            prune_flat(graph, step[1]),
            reference_prune_flat(reference, step[1]),
        )
    if kind == "prune_hierarchical":
        _, threshold, keep_depth = step
        return (
            prune_hierarchical(graph, threshold, keep_depth),
            reference_prune_hierarchical(reference, threshold, keep_depth),
        )
    if kind == "add_prefix":
        _, parent, child, prefix = step
        if child is None:
            child = ("pfx", prefix)
        graph.add_prefix(parent, child, prefix)
        reference.add_prefix(parent, child, prefix)
    elif kind == "remove_edge":
        edges = sorted(reference.edge_list(), key=repr)
        if edges:
            parent, child = edges[step[1] % len(edges)]
            graph.remove_edge(parent, child)
            reference.remove_edge(parent, child)
    else:  # merge_graph: another shard's routers
        _, view, leaves = step
        groups = route_groups(view, routers=(3, 4))
        graph.merge_graph(build_picture(groups, None, leaves))
        reference.merge_graph(
            reference_picture(groups, None, leaves, threshold=None)
        )
    return graph, reference


def assert_one_leaf_form(graph, reference):
    token = graph.symbols.token
    assert not [
        eid
        for eid, _ in graph.raw_id_edges()
        if token(eid & EDGE_MASK)[0] == "pfx"
    ]
    assert graph.node_count() == len(graph.nodes())
    assert {edge: set(p) for edge, p in graph.edges()} == {
        edge: set(p) for edge, p in reference.edges()
    }
    assert dict(graph.raw_edges()) == dict(reference.raw_edges())
    assert graph.nodes() == reference.nodes()
    assert graph.total_prefixes() == reference.total_prefixes()


class TestOneLeafForm:
    @settings(max_examples=150, deadline=None)
    @given(views, st.sampled_from(["site", None]), st.booleans(),
           st.lists(steps, max_size=8))
    def test_every_step_keeps_leaves_in_the_fringe(
        self, view, site, leaves, script
    ):
        groups = route_groups(view)
        graph = build_picture(groups, site, leaves)
        reference = reference_picture(groups, site, leaves, threshold=None)
        assert_one_leaf_form(graph, reference)
        for step in script:
            graph, reference = apply(graph, reference, step)
            assert_one_leaf_form(graph, reference)
            site_root = graph.site_root
            if site_root is not None and not graph.children(site_root):
                # An unlinked site root is every root to the oracle but
                # no root to the interned graph, so from here on the
                # two prunes would sweep from different roots.
                break

    def test_pruned_leaves_stay_in_the_fringe(self):
        view = {(0, index): sorted(SMALL_ATTRS, key=repr)[0]
                for index in range(3)}
        graph = build_picture(route_groups(view), "site")
        for pruned in (prune_flat(graph, 0.0), prune_hierarchical(graph)):
            assert pruned.edge_count() == graph.edge_count()
            assert sum(len(s) for _, s in pruned.fringe_stores()) == 3
            assert all(
                token[0] != "pfx"
                for eid, _ in pruned.raw_id_edges()
                for token in [graph.symbols.token(eid & EDGE_MASK)]
            )


class TestLeafEdgesAreRefused:
    def test_add_prefix_takes_only_its_own_leaf(self):
        graph = TampGraph()
        with pytest.raises(ValueError, match="cannot ride"):
            graph.add_prefix(("as", 1), ("pfx", PREFIXES[0]), PREFIXES[1])
        assert graph.edge_count() == 0
        assert graph.add_prefix(("as", 1), ("pfx", PREFIXES[0]), PREFIXES[0])
        assert not graph.add_prefix(
            ("as", 1), ("pfx", PREFIXES[0]), PREFIXES[0]
        )
        assert dict(graph.fringe_stores()) == {
            graph.symbols.token_id(("as", 1)): {
                graph.symbols.intern_prefix(PREFIXES[0]): 2
            }
        }

    def test_no_interior_edge_id_into_a_leaf(self):
        graph = TampGraph()
        with pytest.raises(ValueError, match="prefix leaf"):
            graph.intern_pair(("as", 1), ("pfx", PREFIXES[0]))
        assert graph.symbols.token_id(("pfx", PREFIXES[0])) is None
