"""The paper's Section IV / Section I incidents, with labels.

Each function drives a built workload through one of the paper's
case-study anomalies and returns a :class:`LabeledIncident`: the event
stream REX captured plus ground truth (the failure location as an
AS-graph edge, the affected prefixes, the active window) against which
the Stemming detector is validated.

Where the paper's incident is a *policy interaction* (the Figure 7 route
leak meeting Berkeley's community filter), the behaviour here emerges
from the compiled route-maps on the simulated routers — nothing below
the CalREN feed is scripted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collector.rex import RouteExplorer
from repro.collector.stream import EventStream
from repro.igp.topology import IGPTopology
from repro.net.aspath import ASPath
from repro.net.attributes import PathAttributes
from repro.net.message import BGPUpdate
from repro.net.prefix import Prefix, parse_address
from repro.scenarios.labels import (
    IncidentClass,
    LabeledIncident,
    ScenarioDetails,
    TimeWindow,
)
from repro.simulator.network import Network
from repro.simulator.workloads import (
    AS_ATT,
    AS_CALREN,
    AS_CUSTOMER,
    AS_ISP,
    AS_NAP,
    AS_QWEST,
    ATT_FEED_222,
    CALREN_FEED_13,
    CALREN_FEED_200,
    COMM_OTHER,
    ISP_REX_ADDRESS,
    LEAK_PATH_ASES,
    MED_PREFIX,
    NH_BACKDOOR,
    TIER1_PEERS,
    BerkeleySite,
    IspAnonSite,
)


def _events_after(rex_stream: EventStream, start: float) -> EventStream:
    return rex_stream.between(start, float("inf"))


def _after_now(network: Network, start: float, margin: float = 1.0) -> float:
    """Clamp a scenario's start time to the network's present.

    Scenarios can be chained on one site; a later scenario's default
    start must not land before the engine's clock (the engine rejects
    scheduling in the past).
    """
    return max(start, network.engine.now + margin)


def _window(stream: EventStream, start: float) -> TimeWindow:
    """The incident's active span: its start to the last event it drove.

    Streams here are already cut at the incident start, so the stream's
    own end is the last observable effect of the anomaly.
    """
    end = stream.end_time
    return TimeWindow(start, start if end is None else max(start, end))


# ----------------------------------------------------------------------
# Berkeley incidents
# ----------------------------------------------------------------------


def route_leak(
    site: BerkeleySite,
    cycles: int = 2,
    start: float = 100.0,
    leak_hold: float = 120.0,
    gap: float = 300.0,
) -> LabeledIncident:
    """Figure 7: CalREN's peers leak routes; prefixes move to a 6-AS-hop
    path; Berkeley's community filter silently stops announcing them.

    Per cycle, CalREN replaces every commodity route with the leaked path
    — crucially *without* the ISP community, since the routes no longer
    arrive directly from QWest — then restores the originals. Edge
    128.32.1.3's import map (match community ISP-ROUTES) denies the
    leaked routes, so that router implicitly withdraws them; edge
    128.32.1.200 imports them at the default LOCAL_PREF and switches
    paths. Both behaviours emerge from the compiled route-maps.
    """
    start = _after_now(site.network, start)
    feed13 = parse_address(CALREN_FEED_13)
    feed200 = parse_address(CALREN_FEED_200)
    commodity = [
        f for f in site.families if f.klass.startswith("commodity")
    ]
    when = start
    for _ in range(cycles):
        for family in commodity:
            leaked = BGPUpdate.announce(
                family.prefixes,
                PathAttributes(
                    nexthop=feed13,
                    as_path=ASPath(
                        LEAK_PATH_ASES + (family.as_path.origin_as,)
                    ),
                    communities=frozenset({COMM_OTHER}),
                ),
            )
            site.network.inject(site.edge13, feed13, leaked, at=when)
            leaked200 = BGPUpdate.announce(
                family.prefixes,
                PathAttributes(
                    nexthop=feed200,
                    as_path=ASPath(
                        LEAK_PATH_ASES + (family.as_path.origin_as,)
                    ),
                    communities=frozenset({COMM_OTHER}),
                ),
            )
            site.network.inject(site.edge200, feed200, leaked200, at=when)
        restore_at = when + leak_hold
        for family in commodity:
            site.network.inject(
                site.edge13, feed13, family.announcement(feed13), at=restore_at
            )
            site.network.inject(
                site.edge200,
                feed200,
                family.announcement(feed200),
                at=restore_at,
            )
        when = restore_at + gap
    site.network.run()
    affected = set(site.commodity_prefixes())
    stream = _events_after(site.rex.events, start)
    return LabeledIncident(
        name="route-leak",
        incident_class=IncidentClass.ROUTE_LEAK,
        stream=stream,
        true_stems=((AS_CALREN, AS_QWEST),),
        affected_prefixes=frozenset(affected),
        window=_window(stream, start),
        details=ScenarioDetails(
            cycles=cycles,
            leak_path=tuple(LEAK_PATH_ASES),
            moved_prefixes=len(affected),
        ),
    )


def backdoor_routes(
    site: BerkeleySite,
    prefixes: Optional[list[Prefix]] = None,
    start: float = 100.0,
) -> LabeledIncident:
    """Figure 5: two backdoor routes to AT&T via 169.229.0.157 appear on
    edge 128.32.1.222, invisible at the default prune threshold but
    exposed by hierarchical pruning."""
    start = _after_now(site.network, start)
    if prefixes is None:
        prefixes = [
            Prefix.parse("192.168.255.0/24"),
            Prefix.parse("192.168.254.0/24"),
        ]
    att_feed = parse_address(ATT_FEED_222)
    update = BGPUpdate.announce(
        prefixes,
        PathAttributes(
            nexthop=parse_address(NH_BACKDOOR),
            as_path=ASPath((AS_ATT, 55001)),
        ),
    )
    site.network.inject(site.edge222, att_feed, update, at=start)
    site.network.run()
    stream = _events_after(site.rex.events, start)
    return LabeledIncident(
        name="backdoor-routes",
        incident_class=IncidentClass.MISCONFIGURATION,
        stream=stream,
        true_stems=((AS_ATT, 55001),),
        affected_prefixes=frozenset(prefixes),
        window=_window(stream, start),
        details=ScenarioDetails(
            nexthop=NH_BACKDOOR, backdoor_count=len(prefixes)
        ),
    )


def session_reset(
    site: BerkeleySite,
    start: float = 100.0,
    down_for: float = 45.0,
) -> LabeledIncident:
    """A reset of the CalREN session on edge 128.32.1.3: mass withdrawal,
    re-establishment, full-table re-announcement — the Section I anatomy
    of a peering reset as its neighbors experience it."""
    start = _after_now(site.network, start)
    feed13 = parse_address(CALREN_FEED_13)

    def tear_down() -> None:
        out = site.edge13.session_down(feed13, site.network.engine.now)
        site.network.dispatch(site.edge13, out)

    def bring_up() -> None:
        site.edge13.session_up(feed13, site.network.engine.now)
        for family in site.families:
            site.network.inject(
                site.edge13, feed13, family.announcement(feed13)
            )

    site.network.engine.schedule_at(start, tear_down)
    site.network.engine.schedule_at(start + down_for, bring_up)
    site.network.run()
    affected = {p for f in site.families for p in f.prefixes}
    stream = _events_after(site.rex.events, start)
    # Two acceptable stems: the reset session itself, and the head of
    # the CalREN cone that every cycled route shares — the coarser edge
    # is what the decomposition canonically pins down when the churn is
    # reported from several vantage routers at once.
    return LabeledIncident(
        name="session-reset",
        incident_class=IncidentClass.SESSION_RESET,
        stream=stream,
        true_stems=(
            (parse_address(CALREN_FEED_13), AS_CALREN),
            (AS_CALREN, AS_QWEST),
        ),
        affected_prefixes=frozenset(affected),
        window=_window(stream, start),
        details=ScenarioDetails(down_for=down_for),
    )


def community_mistag(site: BerkeleySite) -> LabeledIncident:
    """Figure 6: the CENIC LAAP community is attached to KDDI routes.

    Nothing is injected — the mis-tagging is present in the standing
    table. The incident's stream is the announcements of tagged routes,
    ready for TAMP subset visualization; ground truth records the
    correct/incorrect tag split.
    """
    from repro.simulator.workloads import COMM_CENIC_LAAP

    tagged = site.rex.events.with_community(COMM_CENIC_LAAP)
    ln = site.family("cenic-los-nettos")
    kddi = site.family("cenic-kddi")
    return LabeledIncident(
        name="community-mistag",
        incident_class=IncidentClass.MISCONFIGURATION,
        stream=tagged,
        true_stems=(),
        affected_prefixes=frozenset(kddi.prefixes),
        window=_window(tagged, tagged.start_time or 0.0),
        details=ScenarioDetails(
            community=str(COMM_CENIC_LAAP),
            correctly_tagged=len(ln.prefixes),
            mistagged=len(kddi.prefixes),
        ),
    )


# ----------------------------------------------------------------------
# ISP-Anon incidents
# ----------------------------------------------------------------------


def customer_flap(
    isp: IspAnonSite,
    customer_prefixes: Optional[list[Prefix]] = None,
    flap_count: int = 10,
    period: float = 60.0,
    start: float = 100.0,
) -> LabeledIncident:
    """Figure 9: a customer's direct session drops and re-establishes
    about once a minute; each drop fails over to 3-AS-hop alternates via
    the NAP, announced differently by every PoP.

    The direct path (1 AS hop) is injected at reflector 0's access; every
    reflector holds a standing alternate ``(tier1_i, NAP, customer)``
    from its own access. Failover and recovery churn are computed by the
    real decision processes in the core.
    """
    start = _after_now(isp.network, start, margin=60.0)
    if customer_prefixes is None:
        customer_prefixes = [Prefix.parse("203.0.113.0/24")]
    direct_path = ASPath((AS_CUSTOMER,))
    # Standing alternates at every reflector.
    for index, _ in enumerate(isp.reflectors):
        tier1 = TIER1_PEERS[index % len(TIER1_PEERS)]
        isp.inject_from_access(
            index,
            BGPUpdate.announce(
                customer_prefixes,
                PathAttributes(
                    nexthop=isp.access_address(index),
                    as_path=ASPath((tier1, AS_NAP, AS_CUSTOMER)),
                ),
            ),
            at=start - 50.0,
        )
    # The direct session, flapping.
    direct_attrs = PathAttributes(
        nexthop=isp.access_address(0), as_path=direct_path
    )
    isp.inject_from_access(
        0, BGPUpdate.announce(customer_prefixes, direct_attrs), at=start - 40.0
    )
    for flap in range(flap_count):
        down_at = start + flap * period
        up_at = down_at + period / 3
        isp.inject_from_access(
            0, BGPUpdate.withdraw(customer_prefixes), at=down_at
        )
        isp.inject_from_access(
            0,
            BGPUpdate.announce(customer_prefixes, direct_attrs),
            at=up_at,
        )
    isp.network.run()
    stream = _events_after(isp.rex.events, start)
    # Two acceptable stems. The flapping session is observable as the
    # direct route's nexthop meeting the customer AS (the local AS
    # never appears in the token vocabulary — an IBGP-side collector
    # strips it). Each drop also stampedes every PoP onto the NAP
    # alternates, so the NAP-customer edge carries the bulk of the
    # churn and is an equally honest answer to "where is the problem".
    return LabeledIncident(
        name="customer-flap",
        incident_class=IncidentClass.FLAP,
        stream=stream,
        true_stems=(
            (isp.access_address(0), AS_CUSTOMER),
            (AS_NAP, AS_CUSTOMER),
        ),
        affected_prefixes=frozenset(customer_prefixes),
        window=_window(stream, start),
        details=ScenarioDetails(flap_count=flap_count, period=period),
    )


def full_table_hijack(
    isp: IspAnonSite,
    hijacker_rr: int = 0,
    start: float = 100.0,
    hold: float | None = 600.0,
) -> LabeledIncident:
    """The Section I catastrophe: a small AS announces the full Internet
    routing table with one-hop AS paths, and "most ASes started to prefer
    those routes because of the very short paths" — the hijacker becomes
    transit for the Internet, melts, and takes the Internet down with it.

    The hijacker's announcements arrive through reflector *hijacker_rr*'s
    access router with a single-AS path; the reflectors' genuine decision
    processes prefer them over the real 2+-hop routes. After *hold*
    seconds the hijacker collapses and everything fails back (*hold*
    of None keeps the hijack standing, for inspecting the taken-over
    state).
    """
    start = _after_now(isp.network, start)
    hijacker_as = 64512
    all_prefixes = [
        prefix
        for family in isp.feed_families
        for prefix in family.prefixes
    ]
    hijack_attrs = PathAttributes(
        nexthop=isp.access_address(hijacker_rr),
        as_path=ASPath((hijacker_as,)),
    )
    isp.inject_from_access(
        hijacker_rr,
        BGPUpdate.announce(all_prefixes, hijack_attrs),
        at=start,
    )
    if hold is not None:
        # The collapse: the hijacker withdraws everything.
        isp.inject_from_access(
            hijacker_rr,
            BGPUpdate.withdraw(all_prefixes),
            at=start + hold,
        )
    isp.network.run()
    stream = _events_after(isp.rex.events, start)
    # The hijack's observable location: the access session it arrived
    # through meeting the hijacker's one-hop AS.
    return LabeledIncident(
        name="full-table-hijack",
        incident_class=IncidentClass.ORIGIN_HIJACK,
        stream=stream,
        true_stems=((isp.access_address(hijacker_rr), hijacker_as),),
        affected_prefixes=frozenset(all_prefixes),
        window=_window(stream, start),
        details=ScenarioDetails(hijacker_as=hijacker_as, hold=hold),
    )


def max_prefix_leak(
    site: BerkeleySite,
    leaked_count: int = 500,
    limit: int = 200,
    start: float = 100.0,
) -> LabeledIncident:
    """The Section I ISP-A/ISP-B war story: a customer leaks thousands of
    extra routes; the peer's max-prefix safeguard closes the session,
    severing connectivity entirely.

    Modeled on the Berkeley site: a customer peer on edge 128.32.1.222
    configured with ``maximum-prefix`` starts leaking; when the limit
    trips, the session drops and *everything* learned from that peer is
    withdrawn — the cure disconnects more than the disease.
    """
    start = _after_now(site.network, start)
    customer_as = 64600
    customer_addr = parse_address("169.229.2.1")
    site.network.add_external_peer(
        site.edge222,
        customer_addr,
        customer_as,
        max_prefixes=limit,
        name="leaky-customer",
    )
    # Legitimate announcements first (well under the limit).
    legitimate = [Prefix(0xCB007100 + i * 256, 24) for i in range(limit // 2)]
    site.network.inject(
        site.edge222,
        customer_addr,
        BGPUpdate.announce(
            legitimate,
            PathAttributes(
                nexthop=customer_addr, as_path=ASPath((customer_as, 65100))
            ),
        ),
        at=start,
    )
    # The leak: far more routes than the limit allows.
    leaked = [
        Prefix(0xCC000000 + i * 256, 24) for i in range(leaked_count)
    ]
    site.network.inject(
        site.edge222,
        customer_addr,
        BGPUpdate.announce(
            leaked,
            PathAttributes(
                nexthop=customer_addr,
                as_path=ASPath((customer_as, 65101, 65102)),
            ),
        ),
        at=start + 30.0,
    )
    site.network.run()
    session = site.edge222.neighbor(customer_addr).session
    stream = _events_after(site.rex.events, start)
    # The customer session, labeled by the peering address the leak
    # (and the safeguard's mass withdrawal) arrived through; the
    # customer's legitimate cone head is an acceptable coarser stem.
    return LabeledIncident(
        name="max-prefix-leak",
        incident_class=IncidentClass.ROUTE_LEAK,
        stream=stream,
        true_stems=(
            (customer_addr, customer_as),
            (customer_as, 65100),
        ),
        affected_prefixes=frozenset(legitimate) | frozenset(leaked),
        window=_window(stream, start),
        details=ScenarioDetails(
            limit=limit,
            leaked=leaked_count,
            session_down=not session.is_established,
            legitimate_lost=len(legitimate),
        ),
    )


@dataclass(slots=True)
class MedOscillationLab:
    """The Figure 3 topology: two PoPs, four core reflectors.

    core1-a/b hold a standing AS1 path; core2-a/b flap an AS2 path whose
    nexthop is IGP-closer to core1 than its own AS1 nexthop, so each flap
    makes core1-a/b genuinely re-select (the decision process computes
    the switch; only core2's upstream flapping is scripted, standing in
    for the RFC 3345 fixpoint we cannot reproduce in a quiescing DES).
    """

    network: Network
    rex: RouteExplorer
    cores: list
    igp: IGPTopology
    as1_access: int
    as2_access: int


def build_med_oscillation_lab() -> MedOscillationLab:
    """Construct the four-core two-PoP topology of Figure 3."""
    network = Network()
    rex = RouteExplorer("med-rex")
    igp = IGPTopology()
    as1_access = parse_address("10.1.2.3")
    as2_access = parse_address("10.3.4.5")  # the paper's animated nexthop
    core_names = ["core1-a", "core1-b", "core2-a", "core2-b"]
    core_addrs = [parse_address(f"10.0.{i}.1") for i in range(1, 5)]
    cores = []
    for name, addr in zip(core_names, core_addrs):
        router = network.add_router(name, AS_ISP, addr, route_reflector=True)
        cores.append(router)
        igp.add_router(name, addresses=[addr])
    igp.add_router("acc1", addresses=[as1_access])
    igp.add_router("acc2", addresses=[as2_access])
    # PoP1 cores are close to each other and to acc1; acc2 (in PoP2) is
    # nevertheless IGP-closer to everyone thanks to a fast backbone link —
    # the ingredient that makes the AS2 path win when present.
    igp.add_link("core1-a", "core1-b", 2)
    igp.add_link("core2-a", "core2-b", 2)
    igp.add_link("core1-a", "core2-a", 3)
    igp.add_link("core1-b", "core2-b", 3)
    igp.add_link("core1-a", "acc1", 20)
    igp.add_link("core1-b", "acc1", 20)
    igp.add_link("core2-a", "acc2", 1)
    igp.add_link("core2-b", "acc2", 1)
    for name, router in zip(core_names, cores):
        router.decision.igp_cost = igp.cost_fn(name)
    for i, a in enumerate(cores):
        for b in cores[i + 1 :]:
            network.connect(a, b)
    # Access clients: AS1 feeds core1-a/b; AS2 feeds core2-a/b.
    for router in cores[:2]:
        network.add_external_peer(
            router, as1_access, AS_ISP, is_rr_client=True, name="acc-as1"
        )
    for router in cores[2:]:
        network.add_external_peer(
            router, as2_access, AS_ISP, is_rr_client=True, name="acc-as2"
        )
    for router in cores:
        network.attach_collector(rex, router, ISP_REX_ADDRESS)
    return MedOscillationLab(
        network=network,
        rex=rex,
        cores=cores,
        igp=igp,
        as1_access=as1_access,
        as2_access=as2_access,
    )


def med_oscillation(
    lab: Optional[MedOscillationLab] = None,
    flap_count: int = 50,
    period: float = 0.02,
    start: float = 10.0,
) -> LabeledIncident:
    """Figure 3: persistent fast MED oscillation on 4.5.0.0/16.

    The paper observed core2-a/b churning their AS2 route every ~10 µs,
    driving core1-a/b to switch paths every ~10 ms for at least five
    days — 95% of the ISP's IBGP traffic from one prefix. *period*
    defaults to the paper's 10 ms core1 switch rate (scaled counts keep
    test runtimes sane; benchmarks raise them).
    """
    if lab is None:
        lab = build_med_oscillation_lab()
    start = _after_now(lab.network, start, margin=10.0)
    as1_attrs = PathAttributes(
        nexthop=lab.as1_access, as_path=ASPath((1, 4545))
    )
    as2_attrs = PathAttributes(
        nexthop=lab.as2_access, as_path=ASPath((2, 4545)), med=10
    )
    # Standing AS1 path at core1-a/b.
    for core in lab.cores[:2]:
        lab.network.inject(
            core,
            lab.as1_access,
            BGPUpdate.announce([MED_PREFIX], as1_attrs),
            at=start - 5.0,
        )
    # AS2 path flapping at core2-a/b.
    for flap in range(flap_count):
        announce_at = start + flap * period
        withdraw_at = announce_at + period / 2
        for core in lab.cores[2:]:
            lab.network.inject(
                core,
                lab.as2_access,
                BGPUpdate.announce([MED_PREFIX], as2_attrs),
                at=announce_at,
            )
            lab.network.inject(
                core,
                lab.as2_access,
                BGPUpdate.withdraw([MED_PREFIX]),
                at=withdraw_at,
            )
    lab.network.run()
    stream = _events_after(lab.rex.events, start)
    # Two acceptable stems: the flapping AS2 path, and the oscillating
    # prefix at its origin — the paper's own Figure 3 takeaway (one
    # prefix, 95% of the IBGP traffic) and the edge the decomposition
    # canonically reports when every event carries the same prefix.
    return LabeledIncident(
        name="med-oscillation",
        incident_class=IncidentClass.OSCILLATION,
        stream=stream,
        true_stems=((2, 4545), (4545, MED_PREFIX)),
        affected_prefixes=frozenset({MED_PREFIX}),
        window=_window(stream, start),
        details=ScenarioDetails(flap_count=flap_count, period=period),
    )
