"""Per-figure regeneration harness.

One benchmark per paper figure: builds the figure's data from the
simulated workloads, asserts the published qualitative result, and
records a row with paper-vs-measured numbers in ``bench_results/``.
"""

import pytest

from benchmarks.conftest import record_row, scaled
from repro.analysis.case_studies import (
    run_backdoor_routes,
    run_community_mistag,
    run_customer_flap,
    run_load_balance_check,
    run_med_oscillation,
    run_route_leak,
    site_tamp_graph,
)
from repro.collector.rates import bin_events
from repro.net.prefix import parse_address
from repro.scenarios.paper import customer_flap, med_oscillation
from repro.simulator.synthetic import (
    background_churn_events,
    oscillation_events,
    session_reset_events,
)
from repro.simulator.workloads import (
    AS_ABILENE,
    AS_CALREN,
    AS_QWEST,
    BerkeleySite,
    IspAnonSite,
    synthetic_prefixes,
)
from repro.stemming.stemmer import Stemmer
from repro.tamp.prune import prune_flat
from repro.tamp.render import render_svg

#: Figure benchmarks run the full simulated site at this prefix count —
#: the published 12,600 by default, scaled down with REPRO_BENCH_SCALE.
BERKELEY_PREFIXES = scaled(12_600, minimum=400)


@pytest.fixture(scope="module")
def berkeley_site() -> BerkeleySite:
    return BerkeleySite(n_prefixes=BERKELEY_PREFIXES)


def test_figure1_construction(benchmark):
    """Figure 1: tree construction and union-merge (micro-benchmark)."""
    from tests.tamp.test_figure1 import merged

    graph = benchmark.pedantic(merged, rounds=50, iterations=10)
    weight = graph.weight(("nh", parse_address("10.0.0.1")), ("as", 1))
    assert weight == 4  # union, not 3+3
    record_row("figures", f"F1 construction: NexthopA-AS1 weight={weight} (paper: 4)")


def test_figure2_berkeley_picture(benchmark, berkeley_site):
    """Figure 2: the Berkeley TAMP picture with the default threshold."""

    def build():
        return prune_flat(site_tamp_graph(berkeley_site))

    graph = benchmark.pedantic(build, rounds=1, iterations=1)
    raw = site_tamp_graph(berkeley_site)
    qwest = raw.edge_fraction(("as", AS_CALREN), ("as", AS_QWEST))
    abilene = raw.edge_fraction(("as", 11422), ("as", AS_ABILENE))
    assert qwest == pytest.approx(0.83, abs=0.05)  # paper: ~80%
    assert abilene == pytest.approx(0.06, abs=0.02)  # paper: 6%
    svg = render_svg(graph, title="Berkeley BGP (Figure 2)")
    record_row(
        "figures",
        f"F2 picture: QWest={qwest:.0%} (paper 80%),"
        f" Abilene={abilene:.0%} (paper 6%),"
        f" pruned_edges={graph.edge_count()}, svg_bytes={len(svg)}",
    )
    result = run_load_balance_check(berkeley_site)
    assert result.detected
    record_row(
        "figures",
        f"F2/IV-A load split: .66={result.measured['share_66']:.0%}"
        f" (paper 78%), .70={result.measured['share_70']:.0%} (paper 5%)",
    )


def test_figure3_med_oscillation_animation(benchmark):
    """Figure 3: the MED oscillation animation on 4.5.0.0/16."""

    def run():
        return med_oscillation(flap_count=scaled(500, minimum=50), period=0.01)

    incident = benchmark.pedantic(run, rounds=1, iterations=1)
    result = run_med_oscillation(flap_count=50)
    assert result.detected
    record_row(
        "figures",
        f"F3 MED oscillation: events={len(incident.stream)},"
        f" prefixes={len(incident.stream.prefixes())} (paper: 1 prefix,"
        f" 95% of IBGP traffic), detected={result.detected}",
    )


def test_figure4_stem(benchmark):
    """Figure 4: the published withdrawal spike stems at 11423--209."""
    from tests.stemming.test_figure4 import figure4_events

    events = figure4_events()
    component = benchmark.pedantic(
        lambda: Stemmer().strongest_component(events),
        rounds=20,
        iterations=5,
    )
    assert component.location == (11423, 209)
    assert component.strength == 8
    record_row(
        "figures",
        f"F4 stem: location=AS{component.location[0]}--AS"
        f"{component.location[1]} strength={component.strength}"
        f" (paper: 11423-209, 8 of 10)",
    )


def test_figure5_backdoor(benchmark, berkeley_site):
    """Figure 5: hierarchical pruning exposes the backdoor routes."""
    result = benchmark.pedantic(
        run_backdoor_routes, args=(berkeley_site,), rounds=1, iterations=1
    )
    assert result.detected
    record_row(
        "figures",
        f"F5 backdoor: prefixes={result.measured['backdoor_prefixes']}"
        f" (paper: 2), flat_visible={result.measured['visible_flat']},"
        f" hierarchical_visible={result.measured['visible_hierarchical']}",
    )


def test_figure6_community_mistag(benchmark, berkeley_site):
    """Figure 6: the 2152:65297 subset splits 32% / 68%."""
    result = benchmark.pedantic(
        run_community_mistag, args=(berkeley_site,), rounds=1, iterations=1
    )
    assert result.detected
    assert result.measured["los_nettos"] == pytest.approx(0.32, abs=0.03)
    assert result.measured["kddi"] == pytest.approx(0.68, abs=0.03)
    record_row(
        "figures",
        f"F6 mistag: LosNettos={result.measured['los_nettos']:.0%}"
        f" (paper 32%), KDDI={result.measured['kddi']:.0%} (paper 68%)",
    )


def test_figure7_route_leak(benchmark):
    """Figure 7: the leak moves prefixes twice; 1.3 stops announcing."""
    site = BerkeleySite(n_prefixes=scaled(2_000, minimum=200))
    result = benchmark.pedantic(
        run_route_leak, args=(site,), kwargs={"cycles": 2},
        rounds=1, iterations=1,
    )
    assert result.detected
    record_row(
        "figures",
        f"F7 leak: moved={result.measured['moved_prefixes']} prefixes"
        f" (paper 30,000 at full scale), events={result.measured['events']}"
        f" (paper ~500,000), cycles={result.measured['cycles']} (paper 2)",
    )


def test_figure8_event_rate(benchmark):
    """Figure 8: the ISP event-rate plot — spikes over grass, with the
    serious problem (the oscillation) hiding in the grass."""
    prefixes = synthetic_prefixes(2_000)
    from repro.collector.rex import RouteExplorer
    from repro.simulator.synthetic import populate_view, ISP_ANON_PROFILE

    rex = RouteExplorer()
    populate_view(rex, scaled(100_000, minimum=5_000), ISP_ANON_PROFILE)
    day = 86_400.0
    spikes = session_reset_events(rex, 0, start=10 * day,
                                  convergence_seconds=600.0)
    # Grass level calibrated to the spike so the figure keeps its shape
    # at any REPRO_BENCH_SCALE: the reset towers ~40x over the grass.
    bin_seconds = day / 4
    grass_rate = max(len(spikes) / (40.0 * bin_seconds), 1e-5)
    grass = background_churn_events(
        prefixes, peer_count=30, start=0.0, duration=30 * day,
        events_per_second=grass_rate,
    )
    from repro.net.aspath import ASPath

    # The oscillation runs at grass level: ~ the background rate per bin
    # (the Figure 8 point — it is invisible to the rate plot). Two peers
    # emit 2 events per cycle each.
    grass_per_bin = grass_rate * bin_seconds
    osc_period = 4 * bin_seconds / max(grass_per_bin, 1.0)
    oscillation = oscillation_events(
        prefixes[0],
        peer_indices=[1, 2],
        paths=[ASPath([1, 45]), ASPath([2, 45])],
        start=0.0,
        duration=30 * day,
        period=osc_period,
    )
    stream = grass.merged_with(spikes).merged_with(oscillation)

    series = benchmark.pedantic(
        bin_events, args=(stream, bin_seconds), rounds=1, iterations=1
    )
    spike_bins = series.spikes(threshold_factor=10.0)
    assert spike_bins, "the session reset must register as a rate spike"
    # The oscillation does NOT register as a spike...
    osc_stream = stream.for_prefix(prefixes[0])
    osc_rate = len(osc_stream) / len(series)
    assert osc_rate < series.grass_level() + 5
    # ...but Stemming over the long window finds it first.
    component = Stemmer().strongest_component(
        stream.filter(lambda e: e.timestamp > 11 * day)
    )
    assert component is not None
    assert prefixes[0] in component.prefixes
    record_row(
        "figures",
        f"F8 rate: bins={len(series)}, peak={series.peak()[1]},"
        f" grass={series.grass_level():.0f}, spike_bins={len(spike_bins)},"
        f" oscillation_found_by_stemming=True (rate detector: no)",
    )


def test_traffic_weighted_stemming(benchmark):
    """Section III-D.2: ranking incidents by traffic impact.

    A two-event elephant incident must outrank a many-event mice spike
    once Zipf volumes weight the correlation — and the plain stemmer
    must rank them the other way, proving the weighting changes the
    operational answer.
    """
    from repro.net.aspath import ASPath
    from repro.net.attributes import PathAttributes
    from repro.collector.events import BGPEvent, EventKind
    from repro.stemming.weighted import TrafficWeightedStemmer
    from repro.traffic.elephants import concentration, zipf_volumes

    prefixes = synthetic_prefixes(scaled(2_000, minimum=500))
    volumes = zipf_volumes(prefixes, alpha=1.2)
    skew = concentration(volumes, top_fraction=0.1)
    assert skew > 0.6  # the elephant/mice phenomenon holds
    elephant = max(volumes, key=volumes.get)
    mice = sorted(volumes, key=volumes.get)[:200]
    events = []
    for i, prefix in enumerate(mice):
        events.append(
            BGPEvent(
                float(i), EventKind.WITHDRAW, 1, prefix,
                PathAttributes(
                    nexthop=2, as_path=ASPath([100, 200, 40000 + i])
                ),
            )
        )
    for i in range(2):
        events.append(
            BGPEvent(
                500.0 + i, EventKind.WITHDRAW, 3, elephant,
                PathAttributes(nexthop=4, as_path=ASPath([700, 800])),
            )
        )
    weighted = TrafficWeightedStemmer(volumes=volumes)
    result = benchmark.pedantic(
        weighted.decompose, args=(events,), rounds=1, iterations=1
    )
    top = result.components[0]
    assert elephant in top.prefixes
    plain = Stemmer().decompose(events)
    assert elephant not in plain.components[0].prefixes
    record_row(
        "figures",
        f"D.2 weighted stemming: top-10% prefixes carry {skew:.0%} of"
        f" traffic; elephant incident ranks #1 weighted,"
        f" mice spike ranks #1 unweighted",
    )


def test_figure9_customer_flap(benchmark):
    """Figure 9: the continuous customer flap — ~200 events per flap at
    the published 67-reflector scale, ~20 s convergence per flap."""
    n_reflectors = scaled(67, minimum=4)
    isp = IspAnonSite(
        n_reflectors=n_reflectors, n_prefixes=scaled(2_000, minimum=200)
    )
    flaps = 10
    incident = benchmark.pedantic(
        customer_flap,
        args=(isp,),
        kwargs={"flap_count": flaps, "period": 60.0},
        rounds=1,
        iterations=1,
    )
    events_per_flap = len(incident.stream) / flaps
    component = Stemmer().strongest_component(incident.stream)
    assert component is not None
    assert set(component.prefixes) == incident.affected_prefixes
    record_row(
        "figures",
        f"F9 flap: reflectors={n_reflectors} (paper 67),"
        f" events_per_flap={events_per_flap:.0f} (paper ~200),"
        f" period=60s (paper ~1/min), detected=True",
    )
    result = run_customer_flap(isp, flap_count=5)
    assert result.detected
