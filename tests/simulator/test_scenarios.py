"""Integration tests for the case-study scenario injectors."""

import pytest

from repro.collector.events import EventKind
from repro.net.prefix import Prefix, parse_address
from repro.scenarios.paper import (
    backdoor_routes,
    build_med_oscillation_lab,
    community_mistag,
    customer_flap,
    med_oscillation,
    route_leak,
    session_reset,
)
from repro.simulator.workloads import (
    EDGE_13,
    EDGE_200,
    LEAK_PATH_ASES,
    MED_PREFIX,
    NH_BACKDOOR,
    BerkeleySite,
    IspAnonSite,
)


@pytest.fixture
def berkeley() -> BerkeleySite:
    return BerkeleySite(n_prefixes=150)


@pytest.fixture
def isp() -> IspAnonSite:
    return IspAnonSite(n_reflectors=4, n_prefixes=120)


class TestRouteLeak:
    def test_edge13_stops_announcing(self, berkeley):
        """The Figure 7 policy interaction: leaked routes lack the ISP
        community, so 128.32.1.3's import filter drops them and the
        router withdraws — observable as withdrawals at REX."""
        incident = route_leak(berkeley, cycles=1)
        edge13 = parse_address(EDGE_13)
        withdrawals = [
            e
            for e in incident.stream.for_peer(edge13)
            if e.is_withdrawal
        ]
        assert len(withdrawals) >= len(incident.affected_prefixes)

    def test_edge200_moves_to_leak_path(self, berkeley):
        incident = route_leak(berkeley, cycles=1)
        edge200 = parse_address(EDGE_200)
        announcements = [
            e
            for e in incident.stream.for_peer(edge200)
            if not e.is_withdrawal
        ]
        leak_paths = [
            e
            for e in announcements
            if e.attributes.as_path.sequence[: len(LEAK_PATH_ASES)]
            == LEAK_PATH_ASES
        ]
        assert leak_paths, "edge 1.200 never announced the leaked path"

    def test_two_cycles_move_prefixes_twice(self, berkeley):
        incident = route_leak(berkeley, cycles=2)
        edge13 = parse_address(EDGE_13)
        prefix = next(iter(incident.affected_prefixes))
        withdrawals = [
            e
            for e in incident.stream.for_peer(edge13).for_prefix(prefix)
            if e.is_withdrawal
        ]
        assert len(withdrawals) == 2

    def test_restores_converge_back(self, berkeley):
        incident = route_leak(berkeley, cycles=1)
        prefix = next(iter(incident.affected_prefixes))
        best = berkeley.edge200.best_route(prefix)
        # After restoration the best path is via edge13 again (LOCAL_PREF 80).
        assert best.peer == berkeley.edge13.address

    def test_ground_truth(self, berkeley):
        incident = route_leak(berkeley, cycles=1)
        assert incident.true_stem == (11423, 209)
        assert incident.details["cycles"] == 1


class TestBackdoor:
    def test_backdoor_routes_visible_at_rex(self, berkeley):
        incident = backdoor_routes(berkeley)
        assert len(incident.affected_prefixes) == 2
        backdoor_events = incident.stream.for_prefixes(
            incident.affected_prefixes
        )
        assert len(backdoor_events) >= 2
        nexthops = {e.attributes.nexthop for e in backdoor_events}
        assert nexthops == {parse_address(NH_BACKDOOR)}

    def test_backdoor_is_tiny_fraction(self, berkeley):
        incident = backdoor_routes(berkeley)
        assert len(incident.affected_prefixes) / berkeley.n_prefixes < 0.05


class TestSessionReset:
    def test_reset_withdraws_then_reannounces(self, berkeley):
        incident = session_reset(berkeley)
        edge13 = parse_address(EDGE_13)
        stream = incident.stream.for_peer(edge13)
        w = stream.withdraw_count()
        a = stream.announce_count()
        # Everything edge13 carried is withdrawn, then re-announced.
        assert w >= len(set(berkeley.commodity_prefixes()))
        assert a >= w

    def test_reset_is_chatty(self, berkeley):
        """One administrative event produces hundreds of BGP events."""
        incident = session_reset(berkeley)
        assert len(incident.stream) > berkeley.n_prefixes


class TestCommunityMistag:
    def test_split_recorded(self, berkeley):
        incident = community_mistag(berkeley)
        correct = incident.details["correctly_tagged"]
        wrong = incident.details["mistagged"]
        assert wrong / (correct + wrong) == pytest.approx(0.68, abs=0.05)

    def test_stream_only_tagged_routes(self, berkeley):
        incident = community_mistag(berkeley)
        from repro.simulator.workloads import COMM_CENIC_LAAP

        assert all(
            COMM_CENIC_LAAP in e.attributes.communities
            for e in incident.stream
        )


class TestCustomerFlap:
    def test_flap_generates_bounded_churn(self, isp):
        incident = customer_flap(isp, flap_count=5, period=60.0)
        # Low-grade churn: tens of events per flap, not thousands.
        events_per_flap = len(incident.stream) / 5
        assert 4 <= events_per_flap <= 400

    def test_alternates_announced_during_outage(self, isp):
        incident = customer_flap(isp, flap_count=3)
        prefix = next(iter(incident.affected_prefixes))
        paths = {
            e.attributes.as_path.sequence
            for e in incident.stream.for_prefix(prefix)
            if not e.is_withdrawal
        }
        # Both the direct path and ≥1 three-hop alternate appear.
        assert (65001,) in paths
        assert any(len(p) == 3 for p in paths)

    def test_oscillation_spans_full_duration(self, isp):
        incident = customer_flap(isp, flap_count=6, period=60.0)
        assert incident.stream.timerange >= 5 * 60.0 * 0.8

    def test_single_prefix_affected(self, isp):
        incident = customer_flap(isp, flap_count=2)
        assert incident.stream.prefixes() == incident.affected_prefixes


class TestMedOscillation:
    def test_core1_switches_paths(self):
        lab = build_med_oscillation_lab()
        incident = med_oscillation(lab, flap_count=10, period=0.02)
        core1a = lab.cores[0]
        events = incident.stream.for_peer(core1a.address)
        paths = {
            e.attributes.as_path.sequence
            for e in events
            if not e.is_withdrawal
        }
        # core1-a alternates between the AS1 and AS2 paths.
        assert (1, 4545) in paths
        assert (2, 4545) in paths

    def test_single_prefix_dominates(self):
        incident = med_oscillation(flap_count=10, period=0.02)
        assert incident.stream.prefixes() == {MED_PREFIX}
        assert len(incident.stream) > 20

    def test_event_rate_scales_with_flaps(self):
        small = med_oscillation(flap_count=5, period=0.02)
        large = med_oscillation(flap_count=20, period=0.02)
        assert len(large.stream) > 2 * len(small.stream)

    def test_igp_preference_drives_switch(self):
        """When the AS2 route is present, core1-a must select it (its
        nexthop is IGP-closer) — the genuine decision-process mechanism."""
        lab = build_med_oscillation_lab()
        from repro.net.aspath import ASPath
        from repro.net.attributes import PathAttributes
        from repro.net.message import BGPUpdate

        as1 = PathAttributes(
            nexthop=lab.as1_access, as_path=ASPath((1, 4545))
        )
        as2 = PathAttributes(
            nexthop=lab.as2_access, as_path=ASPath((2, 4545)), med=10
        )
        lab.network.inject(
            lab.cores[0], lab.as1_access, BGPUpdate.announce([MED_PREFIX], as1)
        )
        lab.network.inject(
            lab.cores[2], lab.as2_access, BGPUpdate.announce([MED_PREFIX], as2)
        )
        lab.network.run()
        best = lab.cores[0].best_route(MED_PREFIX)
        assert best.attributes.as_path.sequence == (2, 4545)
