"""The Section I war stories, reproduced and detected.

The paper's introduction motivates the work with two famous incident
classes: a small AS announcing the full table with one-hop paths (and
becoming unintended transit for the Internet), and a route leak tripping
a peer's max-prefix safeguard (severing the session entirely). Both are
reproducible with this substrate, and both are detectable with Stemming.
"""

import pytest

from repro.net.prefix import parse_address
from repro.scenarios.paper import full_table_hijack, max_prefix_leak
from repro.simulator.workloads import BerkeleySite, IspAnonSite
from repro.stemming.stemmer import Stemmer


class TestFullTableHijack:
    @pytest.fixture
    def isp(self):
        return IspAnonSite(n_reflectors=4, n_prefixes=200)

    def test_short_paths_win_everywhere(self, isp):
        """During the hijack every reflector prefers the 1-hop path —
        the decision process computes the catastrophe, as in 1997."""
        incident = full_table_hijack(isp, hold=None)  # hijack standing
        prefix = next(iter(incident.affected_prefixes))
        for router in isp.reflectors:
            best = router.best_route(prefix)
            assert best.attributes.as_path.sequence == (64512,)

    def test_collapse_restores_real_routes(self, isp):
        incident = full_table_hijack(isp)
        prefix = next(iter(incident.affected_prefixes))
        for router in isp.reflectors:
            best = router.best_route(prefix)
            assert best is not None
            assert best.attributes.as_path.sequence != (64512,)

    def test_hijack_affects_entire_table(self, isp):
        incident = full_table_hijack(isp)
        assert len(incident.affected_prefixes) == isp.n_prefixes
        # Far more events than prefixes: take-over plus fail-back at
        # every reflector.
        assert len(incident.stream) >= 2 * isp.n_prefixes

    def test_stemming_names_the_hijacker(self, isp):
        incident = full_table_hijack(isp)
        component = Stemmer().strongest_component(incident.stream)
        values = {v for ns, v in component.subsequence if ns == "as"}
        assert 64512 in values
        # The hijack dominates: most affected prefixes are in the top
        # component.
        assert len(component.prefixes) > 0.9 * isp.n_prefixes


class TestMaxPrefixLeak:
    @pytest.fixture
    def site(self):
        return BerkeleySite(n_prefixes=150)

    def test_limit_trips_and_session_drops(self, site):
        incident = max_prefix_leak(site, leaked_count=500, limit=200)
        assert incident.details["session_down"]

    def test_legitimate_routes_lost_too(self, site):
        """The war story's sting: the safeguard severs *all* connectivity
        to the peer, not just the leaked routes."""
        incident = max_prefix_leak(site, leaked_count=500, limit=200)
        customer_addr = parse_address("169.229.2.1")
        # Nothing survives in the Adj-RIB-In.
        assert len(site.edge222.neighbor(customer_addr).adj_rib_in) == 0
        # The legitimate prefixes are gone from the Loc-RIB.
        legit_lost = incident.details["legitimate_lost"]
        assert legit_lost > 0
        for prefix in list(incident.affected_prefixes)[:20]:
            assert site.edge222.best_route(prefix) is None

    def test_under_limit_no_trip(self, site):
        incident = max_prefix_leak(site, leaked_count=50, limit=200)
        assert not incident.details["session_down"]

    def test_collapse_visible_at_collector(self, site):
        """REX sees the churn: announcements then mass withdrawal."""
        incident = max_prefix_leak(site, leaked_count=500, limit=200)
        assert incident.stream.withdraw_count() > 0
        assert incident.stream.announce_count() > 0
