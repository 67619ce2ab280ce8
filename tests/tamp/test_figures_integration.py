"""Integration: TAMP over simulated workloads reproduces the figures.

Each test corresponds to a paper figure's qualitative claim; the
benchmark harness (benchmarks/test_figures.py) prints the quantitative
rows next to the published ones.
"""

import pytest

from repro.analysis.case_studies import site_tamp_graph
from repro.bgp.rib import Route
from repro.net.prefix import parse_address
from repro.scenarios.paper import (
    backdoor_routes,
    med_oscillation,
    route_leak,
)
from repro.simulator.workloads import (
    AS_ABILENE,
    AS_CALREN,
    AS_KDDI,
    AS_LOS_NETTOS,
    AS_QWEST,
    COMM_CENIC_LAAP,
    LEAK_PATH_ASES,
    BerkeleySite,
)
from repro.tamp.animate import EdgeState, animate_stream
from repro.tamp.prune import prune_flat, prune_hierarchical


@pytest.fixture(scope="module")
def berkeley():
    return BerkeleySite(n_prefixes=400)


class TestFigure2Picture:
    def test_calren_carries_everything(self, berkeley):
        """Figure 2: 100% of prefixes come from CalREN."""
        graph = prune_flat(site_tamp_graph(berkeley))
        # Sum over edges into AS 11423 (from any nexthop): every prefix.
        carried = set()
        for (parent, child), prefixes in graph.edges():
            if child == ("as", AS_CALREN):
                carried |= prefixes
        assert len(carried) == graph.total_prefixes()

    def test_qwest_carries_about_80_percent(self, berkeley):
        """Figure 2: ~80% of prefixes via the commodity Internet / QWest."""
        graph = site_tamp_graph(berkeley)
        fraction = graph.edge_fraction(("as", AS_CALREN), ("as", AS_QWEST))
        assert fraction == pytest.approx(0.83, abs=0.05)

    def test_abilene_carries_about_6_percent(self, berkeley):
        graph = site_tamp_graph(berkeley)
        # Abilene hangs off CalREN's research AS 11422.
        fraction = graph.edge_fraction(("as", 11422), ("as", AS_ABILENE))
        assert fraction == pytest.approx(0.06, abs=0.02)

    def test_load_split_misconfiguration_visible(self, berkeley):
        """Section IV-A: .66 carries 78%, .70 carries 5% — visible as edge
        weights in the picture, invisible in 'show ip bgp'."""
        graph = site_tamp_graph(berkeley)
        nh66 = parse_address("128.32.0.66")
        nh70 = parse_address("128.32.0.70")
        total = graph.total_prefixes()
        w66 = graph.weight(("nh", nh66), ("as", AS_CALREN)) / total
        w70 = graph.weight(("nh", nh70), ("as", AS_CALREN)) / total
        assert w66 == pytest.approx(0.78, abs=0.03)
        assert w70 == pytest.approx(0.05, abs=0.02)

    def test_default_prune_keeps_picture_small(self, berkeley):
        raw = site_tamp_graph(berkeley)
        pruned = prune_flat(raw)
        assert pruned.edge_count() < raw.edge_count()
        assert pruned.edge_count() <= 40


class TestFigure5Backdoor:
    def test_backdoor_hidden_flat_exposed_hierarchical(self):
        site = BerkeleySite(n_prefixes=400)
        backdoor_routes(site)
        graph = site_tamp_graph(site)
        flat = prune_flat(graph)
        nh_backdoor = parse_address("169.229.0.157")
        assert ("nh", nh_backdoor) not in flat.nodes()
        hierarchical = prune_hierarchical(graph, keep_depth=4)
        assert ("nh", nh_backdoor) in hierarchical.nodes()
        assert hierarchical.has_edge(("nh", nh_backdoor), ("as", 7018))


class TestFigure6CommunitySubset:
    def test_tagged_subset_shows_mistag_split(self, berkeley):
        """TAMP of only the 2152:65297-tagged routes: ~32% Los Nettos,
        ~68% KDDI."""
        graph = site_tamp_graph(
            berkeley,
            route_filter=lambda r: (
                COMM_CENIC_LAAP in r.attributes.communities
            ),
        )
        total = graph.total_prefixes()
        ln = graph.weight(("as", 2152), ("as", AS_LOS_NETTOS)) / total
        kddi = graph.weight(("as", 2152), ("as", AS_KDDI)) / total
        assert ln == pytest.approx(0.32, abs=0.05)
        assert kddi == pytest.approx(0.68, abs=0.05)


class TestFigure7LeakAnimation:
    def test_animation_colors_tell_the_story(self):
        """Figure 7(b): the 11423-209 path loses (blue, with shadow), the
        6-AS-hop leak path gains (green)."""
        site = BerkeleySite(n_prefixes=200)
        baseline = list(site.rex.all_routes())
        incident = route_leak(site, cycles=1)
        qwest_edge = (("as", AS_CALREN), ("as", AS_QWEST))
        leak_edge = (("as", LEAK_PATH_ASES[2]), ("as", LEAK_PATH_ASES[3]))
        animation = animate_stream(
            incident.stream,
            baseline=baseline,
            play_duration=2.0,
            fps=5,
        )
        qwest_states = animation.states_seen(qwest_edge)
        leak_states = animation.states_seen(leak_edge)
        assert EdgeState.LOSING in qwest_states
        assert EdgeState.GAINING in leak_states

    def test_shadow_remembers_leak_peak(self):
        site = BerkeleySite(n_prefixes=200)
        baseline = list(site.rex.all_routes())
        feed13 = parse_address("128.32.0.1")
        # Only the leak phase (no restore): the QWest edge ends shrunken.
        incident = route_leak(site, cycles=1, leak_hold=1e9)
        stream = incident.stream.between(100.0, 150.0)
        animation = animate_stream(
            stream, baseline=baseline, play_duration=1.0, fps=5
        )
        qwest_edge = (("as", AS_CALREN), ("as", AS_QWEST))
        shadows = animation.final_shadows()
        assert qwest_edge in shadows
        assert shadows[qwest_edge] > animation.tamp.graph.weight(*qwest_edge)


class TestFigure3MedAnimation:
    def test_oscillating_edge_flaps_yellow(self):
        incident = med_oscillation(flap_count=60, period=0.02)
        nh_as2 = parse_address("10.3.4.5")
        edge = (("nh", nh_as2), ("as", 2))
        animation = animate_stream(
            incident.stream,
            play_duration=1.0,
            fps=10,
            track_edges=[edge],
        )
        states = animation.states_seen(edge)
        assert EdgeState.FLAPPING in states

    def test_impulse_plot_on_selected_edge(self):
        """The Figure 3 side plot: the selected edge's single prefix
        pulses between present and absent."""
        incident = med_oscillation(flap_count=60, period=0.02)
        nh_as2 = parse_address("10.3.4.5")
        edge = (("nh", nh_as2), ("as", 2))
        animation = animate_stream(
            incident.stream, play_duration=1.0, fps=10, track_edges=[edge]
        )
        series = animation.series[edge]
        assert series.is_impulse_train()
        assert set(series.counts()) <= {0, 1}
