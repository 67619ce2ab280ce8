"""Section III-D.1: correlating Stemming output with router configs.

Reproduces the paper's walk-through: the route-leak component correlates
with 128.32.1.3's LOCAL_PREF-80-for-tagged-routes clause and exposes the
silent denial of untagged routes.
"""

import pytest

from repro.config.compiler import compile_config
from repro.config.parser import parse_config
from repro.integrate.policy import correlate_policies
from repro.scenarios.paper import route_leak
from repro.simulator.workloads import BerkeleySite
from repro.net.attributes import Community
from repro.stemming.stemmer import Stemmer


@pytest.fixture(scope="module")
def leak_setup():
    site = BerkeleySite(n_prefixes=150)
    configs = [
        compile_config(parse_config(site._edge13_config())),
        compile_config(parse_config(site._edge200_config())),
    ]
    incident = route_leak(site, cycles=1)
    component = Stemmer().strongest_component(incident.stream)
    return site, configs, component


class TestPolicyCorrelation:
    def test_component_tags_extracted(self, leak_setup):
        _, configs, component = leak_setup
        correlation = correlate_policies(component, configs)
        tags = {str(c) for c in correlation.communities}
        # The leak interaction is between the ISP tag (withdrawn routes)
        # and the non-ISP tag (the leaked replacements).
        assert "11423:65350" in tags or "11423:65300" in tags

    def test_clause_hits_name_the_routers(self, leak_setup):
        _, configs, component = leak_setup
        correlation = correlate_policies(component, configs)
        routers = {hit.router for hit in correlation.hits}
        assert "edge-1-200" in routers

    def test_silent_denial_exposed(self, leak_setup):
        """Edge 1.3's import map implicitly denies the untagged leaked
        routes — the correlation must surface that silent drop."""
        _, configs, component = leak_setup
        correlation = correlate_policies(component, configs)
        assert "edge-1-3" in correlation.denials()

    def test_hits_carry_source_lines(self, leak_setup):
        _, configs, component = leak_setup
        correlation = correlate_policies(component, configs)
        assert any(hit.source_line > 0 for hit in correlation.hits)

    def test_summary_is_operator_readable(self, leak_setup):
        _, configs, component = leak_setup
        correlation = correlate_policies(component, configs)
        text = correlation.summary()
        assert "route-map" in text
        assert "denied" in text


class TestReplaySemantics:
    def test_first_match_counted_once(self):
        """An event must land on exactly one clause (first match wins)."""
        config = compile_config(
            parse_config(
                """\
hostname r
ip community-list standard TAGGED permit 1:1
route-map IMPORT permit 10
 match community TAGGED
 set local-preference 80
route-map IMPORT permit 20
 set local-preference 100
router bgp 25
 neighbor 10.0.0.1 remote-as 99
 neighbor 10.0.0.1 route-map IMPORT in
"""
            )
        )
        from tests.stemming.test_stemmer import mk_event
        from repro.stemming.stemmer import Stemmer

        events = []
        for i in range(6):
            e = mk_event(
                float(i), "1.1.1.1", "2.2.2.2", "99 200", f"10.0.{i}.0/24"
            )
            tagged = e.attributes.add_community(Community.parse("1:1"))
            events.append(
                type(e)(e.timestamp, e.kind, e.peer, e.prefix, tagged)
            )
        component = Stemmer().strongest_component(events)
        correlation = correlate_policies(component, [config])
        assert len(correlation.hits) == 1
        hit = correlation.hits[0]
        assert hit.clause_index == 0
        assert hit.matched_events == len(component.events)
        assert not correlation.denials()
