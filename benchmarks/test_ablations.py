"""Ablation benchmarks for the design choices DESIGN.md §5 calls out.

Each ablation pits the shipped design against its alternative on the same
input and records the outcome, quantifying why the default is the default.
"""

import time

import pytest

from benchmarks.conftest import record_row, scaled, stream_for
from repro.stemming.counter import (
    PAIR_MASK,
    PAIR_SHIFT,
    NaiveSubsequenceCounter,
)
from repro.stemming.stemmer import Stemmer
from repro.tamp.animate import animate_stream
from repro.tamp.prune import prune_flat, prune_hierarchical


@pytest.fixture(scope="module")
def spike_stream(berkeley_rex):
    return stream_for(berkeley_rex, scaled(57_000), 882.0, seed=61)


def test_stemming_counter_strategies(benchmark, spike_stream):
    """Ablation 1: the deduplicating index vs naive O(N·L²) counting.

    BGP streams repeat sequences massively; ``Stemmer.load`` — which
    files each event under its unique sequence and counts only adjacent
    pairs — should win by roughly the stream's duplication factor while
    holding the naive pair counts and ranking the same top.
    """
    events = list(spike_stream)

    def run_fast():
        return Stemmer().load(events)

    index = benchmark.pedantic(run_fast, rounds=1, iterations=1)
    fast_time = benchmark.stats.stats.mean

    t0 = time.perf_counter()
    naive = NaiveSubsequenceCounter()
    naive.add_all(events)
    naive_time = time.perf_counter() - t0

    token = index.symbols.token
    assert {
        (token(pair >> PAIR_SHIFT), token(pair & PAIR_MASK)): count
        for pair, count in index.pair_counts.items()
    } == {s: count for s, count in naive.counts().items() if len(s) == 2}
    top = Stemmer(min_strength=1, max_components=1).extract(index).strongest
    assert (top.subsequence, top.strength) == naive.top()
    duplication = len(events) / len(index.by_ids)
    record_row(
        "ablations",
        f"counter: dedup={fast_time:.2f}s naive={naive_time:.2f}s"
        f" speedup={naive_time / max(fast_time, 1e-9):.1f}x"
        f" duplication_factor={duplication:.0f}x",
        data={
            "ablation": "counter",
            "events": len(events),
            "measured_seconds": fast_time,
            "naive_seconds": naive_time,
        },
    )
    # With realistic duplication the dedup index must not lose.
    if duplication > 5:
        assert fast_time <= naive_time


def test_stemming_subsequence_length_bound(benchmark, spike_stream):
    """Ablation 1b: bounding counted subsequence length.

    A length bound trades memory for a risk of mis-ranked long contexts;
    measure both cost and whether the top component changes.
    """
    events = list(spike_stream)

    def run(bound):
        stemmer = Stemmer(max_components=3, max_subsequence_length=bound)
        return stemmer.decompose(events)

    unbounded = benchmark.pedantic(
        run, args=(None,), rounds=1, iterations=1
    )
    t0 = time.perf_counter()
    bounded = run(3)
    bounded_time = time.perf_counter() - t0
    same_top = (
        unbounded.strongest is not None
        and bounded.strongest is not None
        and unbounded.strongest.location == bounded.strongest.location
    )
    record_row(
        "ablations",
        f"length-bound: unbounded={benchmark.stats.stats.mean:.2f}s"
        f" bound3={bounded_time:.2f}s same_top_location={same_top}",
    )


def test_pruning_strategies(benchmark, berkeley_rex):
    """Ablation 2: flat vs hierarchical pruning — nodes kept and whether
    small-but-critical structure (a backdoor) survives."""
    from repro.bgp.rib import Route
    from repro.net.aspath import ASPath
    from repro.net.attributes import PathAttributes
    from repro.net.prefix import Prefix, format_address
    from repro.tamp.picture import build_picture

    backdoor_attrs = PathAttributes(
        nexthop=0xA9E5009D, as_path=ASPath.parse("7018 55001")
    )
    groups = [
        (format_address(peer), list(berkeley_rex.rib(peer).routes()))
        for peer in berkeley_rex.peers()
    ]
    groups.append(
        (
            "backdoor-router",
            [
                Route(Prefix(0xC0A8FE00 + i * 256, 24), backdoor_attrs)
                for i in range(2)
            ],
        )
    )
    graph = build_picture(groups, "Berkeley", include_prefix_leaves=False)

    flat = benchmark.pedantic(
        prune_flat, args=(graph,), rounds=1, iterations=1
    )
    t0 = time.perf_counter()
    hierarchical = prune_hierarchical(graph, keep_depth=4)
    hier_time = time.perf_counter() - t0
    flat_has = ("router", "backdoor-router") in flat.nodes()
    hier_has = ("router", "backdoor-router") in hierarchical.nodes()
    assert not flat_has and hier_has
    record_row(
        "ablations",
        f"pruning: flat keeps {flat.edge_count()} edges"
        f" ({benchmark.stats.stats.mean:.2f}s, backdoor={flat_has});"
        f" hierarchical keeps {hierarchical.edge_count()} edges"
        f" ({hier_time:.2f}s, backdoor={hier_has})",
    )


def test_animation_consolidation(benchmark, berkeley_rex, spike_stream):
    """Ablation 3: fixed 750 frames vs one frame per event.

    The paper consolidates because the eye cannot follow per-event
    change; the ablation shows the cost ratio (frame bookkeeping scales
    with frame count, not event count).
    """
    baseline = list(berkeley_rex.all_routes())
    events = spike_stream

    consolidated = benchmark.pedantic(
        animate_stream,
        args=(events,),
        kwargs={"baseline": baseline},
        rounds=1,
        iterations=1,
    )
    consolidated_time = benchmark.stats.stats.mean
    # Per-event frames: fps chosen so frame count ~= event count.
    per_event_fps = max(1, int(len(events) / 30.0))
    t0 = time.perf_counter()
    per_event = animate_stream(
        events, baseline=baseline, play_duration=30.0, fps=per_event_fps
    )
    per_event_time = time.perf_counter() - t0
    assert consolidated.frame_count == 750
    record_row(
        "ablations",
        f"animation: 750 frames={consolidated_time:.2f}s;"
        f" {per_event.frame_count} frames={per_event_time:.2f}s"
        f" (x{per_event_time / max(consolidated_time, 1e-9):.1f})",
        data={
            "ablation": "animation",
            "events": len(events),
            "measured_seconds": consolidated_time,
            "per_event_seconds": per_event_time,
        },
    )


def test_prefix_set_representations(benchmark):
    """Ablation 4: dict-refcount edge storage vs frozen-set rebuild.

    The shipped TampGraph stores {prefix: refcount} per edge; the
    alternative rebuilds immutable sets on every change. Measured on the
    incremental-update hot path.
    """
    from repro.net.prefix import Prefix

    prefixes = [Prefix(0x40000000 + i * 256, 24) for i in range(2_000)]
    edge = (("as", 1), ("as", 2))

    def dict_refcount():
        store: dict = {}
        for p in prefixes:
            store[p] = store.get(p, 0) + 1
        for p in prefixes:
            if store[p] == 1:
                del store[p]
            else:
                store[p] -= 1
        return store

    def frozen_rebuild():
        store: frozenset = frozenset()
        for p in prefixes:
            store = store | {p}
        for p in prefixes:
            store = store - {p}
        return store

    benchmark.pedantic(dict_refcount, rounds=3, iterations=1)
    dict_time = benchmark.stats.stats.mean
    t0 = time.perf_counter()
    frozen_rebuild()
    frozen_time = time.perf_counter() - t0
    assert dict_time < frozen_time
    record_row(
        "ablations",
        f"edge-store: dict-refcount={dict_time * 1e3:.1f}ms"
        f" frozenset-rebuild={frozen_time * 1e3:.1f}ms"
        f" ({edge} hot path, {len(prefixes)} prefixes)",
    )


def test_object_sets_vs_interned(benchmark, berkeley_rex):
    """Ablation 6: object-token TAMP builder vs interned ids.

    The DESIGN.md §10 rewrite interns tokens/prefixes to dense ints and
    keys edge stores by packed ids; the preserved pre-rewrite builder
    (`repro.tamp.reference`) works on raw token tuples and
    ``set[Prefix]`` stores. Same input, decoded-identical graphs — the
    row quantifies what the representation alone buys.
    """
    from repro.net.prefix import format_address
    from repro.tamp.picture import build_picture
    from repro.tamp.reference import reference_picture

    groups = [
        (format_address(peer), list(berkeley_rex.rib(peer).routes()))
        for peer in berkeley_rex.peers()
    ]
    n_routes = sum(len(routes) for _, routes in groups)

    interned = benchmark.pedantic(
        build_picture, args=(groups, "Berkeley"), rounds=1, iterations=1
    )
    interned_time = benchmark.stats.stats.mean
    t0 = time.perf_counter()
    reference = reference_picture(groups, "Berkeley", threshold=None)
    object_time = time.perf_counter() - t0
    assert {edge: set(p) for edge, p in interned.edges()} == {
        edge: set(p) for edge, p in reference.edges()
    }
    speedup = object_time / max(interned_time, 1e-9)
    if n_routes > 50_000:
        assert interned_time < object_time

    record_row(
        "ablations",
        f"interning: object-sets={object_time:.2f}s"
        f" interned={interned_time:.2f}s speedup={speedup:.1f}x"
        f" ({n_routes} routes, decoded graphs identical)",
        data={
            "ablation": "interning",
            "routes": n_routes,
            "measured_seconds": interned_time,
            "object_seconds": object_time,
        },
    )


def test_stemming_stopping_rules(benchmark, spike_stream):
    """Ablation 5: min-strength stopping vs fixed component count.

    A fixed count either wastes work on noise or misses incidents; the
    strength threshold adapts. Measure components found and residual.
    """
    events = list(spike_stream)

    def adaptive():
        return Stemmer(min_strength=max(2, len(events) // 500),
                       max_components=32).decompose(events)

    adaptive_result = benchmark.pedantic(adaptive, rounds=1, iterations=1)
    t0 = time.perf_counter()
    fixed_result = Stemmer(min_strength=1, max_components=3).decompose(events)
    fixed_time = time.perf_counter() - t0
    record_row(
        "ablations",
        f"stopping: adaptive found {len(adaptive_result.components)}"
        f" comps, {adaptive_result.coverage():.0%} coverage"
        f" ({benchmark.stats.stats.mean:.2f}s);"
        f" fixed-3 found {len(fixed_result.components)} comps,"
        f" {fixed_result.coverage():.0%} coverage ({fixed_time:.2f}s)",
    )
    assert adaptive_result.coverage() >= fixed_result.coverage() - 0.05
