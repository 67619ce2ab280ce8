"""The EBGP (RouteViews-style) vantage point: the paper's generality claim.

Section II: "our algorithms are general and designed to apply to EBGP as
well". These tests run TAMP and Stemming over a multi-AS EBGP view and
check that the algorithms behave identically: union-weighted pictures
across administrative domains, and cross-vantage localization of a
transit failure.
"""

import pytest

from repro.simulator.workloads import EBGP_VANTAGE_ASES, EbgpVantage
from repro.stemming.stemmer import Stemmer
from repro.tamp.picture import picture_from_rex
from repro.tamp.prune import prune_flat


@pytest.fixture(scope="module")
def vantage() -> EbgpVantage:
    return EbgpVantage(n_peers=5, n_prefixes=300)


class TestConstruction:
    def test_peer_count_bounds(self):
        with pytest.raises(ValueError):
            EbgpVantage(n_peers=0)
        with pytest.raises(ValueError):
            EbgpVantage(n_peers=99)

    def test_each_peer_full_view(self, vantage):
        assert vantage.rex.route_count() == 5 * 300
        assert vantage.rex.prefix_count() == 300

    def test_paths_start_with_peer_as(self, vantage):
        for index, asn in enumerate(vantage.peer_ases):
            peer = vantage.peer_address(index)
            for route in vantage.rex.rib(peer).routes():
                assert route.attributes.as_path.neighbor_as == asn

    def test_many_neighbor_ases(self, vantage):
        assert vantage.rex.neighbor_as_count() == 5


class TestTampOverEbgp:
    def test_merged_picture_spans_ases(self, vantage):
        graph = picture_from_rex(
            vantage.rex, "route-views", include_prefix_leaves=False
        )
        pruned = prune_flat(graph)
        # Every vantage AS carries 100% of prefixes on its first edge.
        for asn in vantage.peer_ases:
            carried = set()
            for (parent, child), prefixes in pruned.edges():
                if child == ("as", asn):
                    carried |= prefixes
            assert len(carried) == graph.total_prefixes()


class TestStemmingOverEbgp:
    def test_transit_failure_localized_across_vantages(self, vantage):
        """A failure inside one transit AS is withdrawn at every vantage
        peer; Stemming's strongest component must name that transit AS
        despite the five different first-hop ASes."""
        transit = 200  # middle AS used by slot 0's paths at peer 0
        events = vantage.withdraw_via(transit, now=100.0)
        assert len(events) > 0
        assert len(events.peers()) >= 2  # seen from several vantages
        component = Stemmer().strongest_component(events)
        assert component is not None
        values = {v for ns, v in component.subsequence if ns == "as"}
        assert transit in values

    def test_vantage_local_failure_stays_local(self):
        """Withdrawing one peer's routes localizes at that peer, not at
        any shared AS."""
        vantage = EbgpVantage(n_peers=4, n_prefixes=200)
        peer = vantage.peer_address(0)
        from repro.net.message import BGPUpdate

        doomed = [r.prefix for r in vantage.rex.rib(peer).routes()]
        produced = vantage.rex.observe(
            peer, BGPUpdate.withdraw(doomed), now=50.0
        )
        component = Stemmer().strongest_component(produced)
        assert component.subsequence[0] == ("peer", peer)
        assert component.strength == len(doomed)
