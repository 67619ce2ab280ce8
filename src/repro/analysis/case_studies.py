"""Turn-key case studies: the Section IV incidents end to end.

Each ``run_*`` function builds the workload, injects the incident, runs
the appropriate algorithm(s), and returns a :class:`CaseStudyResult`
with the paper's published observation next to ours. Examples and the
figure benchmarks both drive these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.prefix import format_address, parse_address
from repro.scenarios import paper as scenarios
from repro.simulator.workloads import (
    AS_CALREN,
    AS_KDDI,
    AS_LOS_NETTOS,
    AS_QWEST,
    COMM_CENIC_LAAP,
    MED_PREFIX,
    RL_66,
    RL_70,
    BerkeleySite,
    IspAnonSite,
)
from repro.stemming.stemmer import Stemmer
from repro.tamp.animate import EdgeState, animate_stream
from repro.tamp.graph import TampGraph
from repro.tamp.picture import build_picture, picture_from_rex
from repro.tamp.prune import prune_flat, prune_hierarchical


@dataclass
class CaseStudyResult:
    """What the paper reported vs. what this run measured."""

    name: str
    paper_claim: str
    measured: dict = field(default_factory=dict)
    detected: bool = False

    def row(self) -> str:
        facts = ", ".join(f"{k}={v}" for k, v in self.measured.items())
        status = "DETECTED" if self.detected else "not detected"
        return f"[{status}] {self.name}: {facts}"


def site_tamp_graph(site: BerkeleySite, route_filter=None) -> TampGraph:
    """The site's merged TAMP picture from the collector's tables."""
    if route_filter is None:
        return picture_from_rex(
            site.rex, "Berkeley", include_prefix_leaves=False
        )
    return build_picture(
        [
            (
                format_address(peer),
                [r for r in site.rex.rib(peer).routes() if route_filter(r)],
            )
            for peer in site.rex.peers()
        ],
        "Berkeley",
        include_prefix_leaves=False,
    )


def run_load_balance_check(
    site: Optional[BerkeleySite] = None,
) -> CaseStudyResult:
    """Section IV-A: the intended 50/50 rate-limiter split is 78/5."""
    if site is None:
        site = BerkeleySite()
    graph = site_tamp_graph(site)
    total = graph.total_prefixes()
    share66 = graph.weight(("nh", parse_address(RL_66)), ("as", AS_CALREN)) / total
    share70 = graph.weight(("nh", parse_address(RL_70)), ("as", AS_CALREN)) / total
    skewed = share66 > 2 * share70
    return CaseStudyResult(
        name="load-balancing-unbalanced",
        paper_claim="128.32.0.66 carried 78% of prefixes, 128.32.0.70 only 5%",
        measured={
            "share_66": round(share66, 3),
            "share_70": round(share70, 3),
        },
        detected=skewed,
    )


def run_backdoor_routes(
    site: Optional[BerkeleySite] = None,
) -> CaseStudyResult:
    """Section IV-B: hierarchical pruning exposes two backdoor routes."""
    if site is None:
        site = BerkeleySite()
    incident = scenarios.backdoor_routes(site)
    graph = site_tamp_graph(site)
    nh = ("nh", parse_address(scenarios.NH_BACKDOOR))
    flat_pruned = prune_flat(graph)
    hierarchical = prune_hierarchical(graph, keep_depth=4)
    return CaseStudyResult(
        name="backdoor-routes",
        paper_claim="two backdoor routes to AT&T via 169.229.0.157, "
        "invisible at the default threshold",
        measured={
            "backdoor_prefixes": len(incident.affected_prefixes),
            "visible_flat": nh in flat_pruned.nodes(),
            "visible_hierarchical": nh in hierarchical.nodes(),
        },
        detected=(
            nh not in flat_pruned.nodes() and nh in hierarchical.nodes()
        ),
    )


def run_community_mistag(
    site: Optional[BerkeleySite] = None,
) -> CaseStudyResult:
    """Section IV-C: 32% of 2152:65297 routes from Los Nettos, 68% KDDI."""
    if site is None:
        site = BerkeleySite()
    graph = site_tamp_graph(
        site,
        route_filter=lambda r: COMM_CENIC_LAAP in r.attributes.communities,
    )
    total = graph.total_prefixes()
    ln = graph.weight(("as", 2152), ("as", AS_LOS_NETTOS)) / total
    kddi = graph.weight(("as", 2152), ("as", AS_KDDI)) / total
    return CaseStudyResult(
        name="community-mistag",
        paper_claim="only 32% of tagged prefixes from Los Nettos; "
        "68% mis-tagged from KDDI",
        measured={"los_nettos": round(ln, 2), "kddi": round(kddi, 2)},
        detected=kddi > ln,
    )


def run_route_leak(
    site: Optional[BerkeleySite] = None, cycles: int = 2
) -> CaseStudyResult:
    """Section IV-D: leaked routes move prefixes to a 6-AS-hop path and
    silently stop 128.32.1.3's announcements."""
    if site is None:
        site = BerkeleySite()
    baseline = list(site.rex.all_routes())
    incident = scenarios.route_leak(site, cycles=cycles)
    component = Stemmer().strongest_component(incident.stream)
    animation = animate_stream(
        incident.stream, baseline=baseline, play_duration=2.0, fps=5
    )
    qwest_edge = (("as", AS_CALREN), ("as", AS_QWEST))
    detected = (
        component is not None
        and component.prefixes <= frozenset(incident.affected_prefixes)
        and EdgeState.LOSING in animation.states_seen(qwest_edge)
    )
    return CaseStudyResult(
        name="route-leak",
        paper_claim="30,000 prefixes moved from CalREN-QWest to a 6-AS-hop "
        "leaked path, twice; 128.32.1.3 stopped announcing them",
        measured={
            "moved_prefixes": len(incident.affected_prefixes),
            "events": len(incident.stream),
            "cycles": cycles,
            "component_prefixes": (
                len(component.prefixes) if component else 0
            ),
        },
        detected=detected,
    )


def run_customer_flap(
    isp: Optional[IspAnonSite] = None,
    flap_count: int = 10,
) -> CaseStudyResult:
    """Section IV-E: low-grade continuous flapping found by Stemming."""
    if isp is None:
        isp = IspAnonSite(n_reflectors=4, n_prefixes=200)
    incident = scenarios.customer_flap(isp, flap_count=flap_count)
    component = Stemmer().strongest_component(incident.stream)
    detected = (
        component is not None
        and set(component.prefixes) == incident.affected_prefixes
    )
    return CaseStudyResult(
        name="continuous-customer-flap",
        paper_claim="direct session dropped ~1/minute for 1.5 months; "
        "~200 events and ~20 s convergence per flap; rate too low for "
        "threshold detectors",
        measured={
            "flaps": flap_count,
            "events": len(incident.stream),
            "events_per_flap": round(len(incident.stream) / flap_count, 1),
        },
        detected=detected,
    )


def run_full_table_hijack(
    isp: Optional[IspAnonSite] = None,
) -> CaseStudyResult:
    """Section I war story: the full table announced with 1-hop paths."""
    if isp is None:
        isp = IspAnonSite(n_reflectors=4, n_prefixes=200)
    incident = scenarios.full_table_hijack(isp)
    component = Stemmer().strongest_component(incident.stream)
    hijacker = incident.details["hijacker_as"]
    values = (
        {v for _, v in component.subsequence} if component else set()
    )
    return CaseStudyResult(
        name="full-table-hijack",
        paper_claim="a small AS announced the full table with one-hop "
        "paths; most ASes preferred the short paths; the Internet went "
        "down with the hijacker",
        measured={
            "hijacked_prefixes": len(incident.affected_prefixes),
            "events": len(incident.stream),
        },
        detected=component is not None and hijacker in values,
    )


def run_max_prefix_leak(
    site: Optional[BerkeleySite] = None,
) -> CaseStudyResult:
    """Section I war story: a leak trips max-prefix, severing the peer."""
    if site is None:
        site = BerkeleySite()
    incident = scenarios.max_prefix_leak(site)
    return CaseStudyResult(
        name="max-prefix-leak",
        paper_claim="a leaked table tripped the peer's max-prefix limit; "
        "the session closed, severing all communication",
        measured={
            "limit": incident.details["limit"],
            "leaked": incident.details["leaked"],
            "legitimate_lost": incident.details["legitimate_lost"],
        },
        detected=incident.details["session_down"],
    )


def run_all(
    site: Optional[BerkeleySite] = None,
    isp: Optional[IspAnonSite] = None,
) -> list[CaseStudyResult]:
    """Every case study on fresh (or supplied) workloads, in paper order."""
    berkeley = site if site is not None else BerkeleySite()
    results = [
        run_load_balance_check(berkeley),
        run_backdoor_routes(berkeley),
        run_community_mistag(berkeley),
        run_route_leak(berkeley),
        run_customer_flap(isp),
        run_med_oscillation(),
        run_full_table_hijack(),
        run_max_prefix_leak(BerkeleySite(n_prefixes=150)),
    ]
    return results


def run_med_oscillation(flap_count: int = 50) -> CaseStudyResult:
    """Section IV-F: the persistent fast MED oscillation on 4.5.0.0/16."""
    incident = scenarios.med_oscillation(flap_count=flap_count)
    component = Stemmer().strongest_component(incident.stream)
    # The paper's claim: strongest component even at short timescales.
    short = incident.stream.between(10.0, 10.5)
    short_component = Stemmer().strongest_component(short)
    detected = (
        component is not None
        and component.prefixes == frozenset({MED_PREFIX})
        and short_component is not None
        and short_component.prefixes == frozenset({MED_PREFIX})
    )
    return CaseStudyResult(
        name="med-oscillation",
        paper_claim="one prefix generated 95% of IBGP traffic for 5+ days; "
        "strongest component even over a few minutes",
        measured={
            "events": len(incident.stream),
            "prefixes": len(incident.stream.prefixes()),
        },
        detected=detected,
    )
