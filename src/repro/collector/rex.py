"""The passive Route Explorer collector.

REX IBGP-peers with every BGP edge router at a site (or every core route
reflector at an ISP) and keeps one Adj-RIB-In per peer. When a peer sends
an explicit withdrawal — or an announcement that implicitly replaces a
route — the Adj-RIB-In supplies the attributes being displaced, producing
the augmented event stream of Section II. REX also records session
statistics matching the paper's inventory numbers (nexthops, prefixes,
routes seen).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.bgp.rib import AdjRibIn, Route
from repro.collector.events import BGPEvent, EventKind
from repro.collector.stream import EventStream
from repro.igp.topology import IGPTopology
from repro.net.attributes import PathAttributes
from repro.net.message import BGPUpdate
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.mrt.ingest import IngestReport


class RouteExplorer:
    """A passive collector with per-peer withdrawal augmentation.

    *emit_implicit_withdrawals* controls whether a replacement
    announcement additionally produces a withdrawal event for the old
    route. The paper's event streams record announcements and withdrawals;
    an implicit replacement is a single announcement on the wire, so the
    default is off — analysis that wants the old attributes can still get
    them from the returned event's ``replaced`` field.
    """

    def __init__(
        self,
        name: str = "rex",
        igp: Optional[IGPTopology] = None,
        emit_implicit_withdrawals: bool = False,
    ) -> None:
        self.name = name
        self.igp = igp
        self.emit_implicit_withdrawals = emit_implicit_withdrawals
        self.events = EventStream()
        self._ribs: dict[int, AdjRibIn] = {}
        self._dropped_withdrawals = 0
        #: One :class:`repro.mrt.ingest.IngestReport` per MRT load that
        #: fed this collector, in load order (the feed's health record).
        self.ingest_reports: list["IngestReport"] = []

    # ------------------------------------------------------------------
    # Peering
    # ------------------------------------------------------------------

    def peer_with(self, peer: int) -> None:
        """Establish a passive IBGP peering with *peer*."""
        if peer not in self._ribs:
            self._ribs[peer] = AdjRibIn(peer)

    def peers(self) -> list[int]:
        return list(self._ribs)

    def rib(self, peer: int) -> AdjRibIn:
        try:
            return self._ribs[peer]
        except KeyError:
            raise KeyError(f"{self.name}: not peered with {peer:#x}") from None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(
        self, peer: int, update: BGPUpdate, now: float
    ) -> list[BGPEvent]:
        """Ingest one UPDATE from *peer*; return the events it produced."""
        return self.observe_routes(
            peer,
            [withdrawal.prefix for withdrawal in update.withdrawals],
            [(a.prefix, a.attributes) for a in update.announcements],
            now,
        )

    def observe_routes(
        self,
        peer: int,
        withdrawn: Iterable[Prefix],
        announced: Iterable[tuple[Prefix, PathAttributes]],
        now: float,
    ) -> list[BGPEvent]:
        """:meth:`observe` on bare values.

        What an UPDATE carries, without the message wrappers: the MRT
        loader holds exactly these after decoding a record and would
        otherwise build a :class:`BGPUpdate` only for this method to
        take it apart again.
        """
        rib = self._ribs.get(peer)
        if rib is None:
            rib = self._ribs[peer] = AdjRibIn(peer)
        produced: list[BGPEvent] = []
        for prefix in withdrawn:
            old_attrs = rib.withdraw(prefix)
            if old_attrs is None:
                # A withdrawal for a route the peer never announced: real
                # collectors see these after their own session resets.
                self._dropped_withdrawals += 1
                continue
            produced.append(
                BGPEvent(now, EventKind.WITHDRAW, peer, prefix, old_attrs)
            )
        for prefix, attributes in announced:
            displaced = rib.announce(prefix, attributes)
            if displaced is not None and self.emit_implicit_withdrawals:
                produced.append(
                    BGPEvent(now, EventKind.WITHDRAW, peer, prefix, displaced)
                )
            produced.append(
                BGPEvent(now, EventKind.ANNOUNCE, peer, prefix, attributes)
            )
        self.events.extend(produced)
        return produced

    def observe_session_loss(self, peer: int, now: float) -> list[BGPEvent]:
        """The peering to *peer* dropped: synthesize withdrawals for its RIB.

        When REX's own session to a peer resets, every route in that
        peer's Adj-RIB-In is implicitly gone.
        """
        rib = self.rib(peer)
        produced = [
            BGPEvent(
                timestamp=now,
                kind=EventKind.WITHDRAW,
                peer=peer,
                prefix=route.prefix,
                attributes=route.attributes,
            )
            for route in rib.clear()
        ]
        self.events.extend(produced)
        return produced

    # ------------------------------------------------------------------
    # Inventory (the Section II numbers)
    # ------------------------------------------------------------------

    def route_count(self) -> int:
        """Total routes across all peers (paper: 23k Berkeley, 1.5M ISP)."""
        return sum(len(rib) for rib in self._ribs.values())

    def prefix_count(self) -> int:
        """Distinct prefixes across all peers."""
        prefixes: set[Prefix] = set()
        for rib in self._ribs.values():
            prefixes.update(rib.prefixes())
        return len(prefixes)

    def nexthop_count(self) -> int:
        """Distinct BGP nexthops across all peers."""
        nexthops = {
            route.attributes.nexthop
            for rib in self._ribs.values()
            for route in rib.routes()
        }
        return len(nexthops)

    def neighbor_as_count(self) -> int:
        """Distinct neighbor ASes across all routes."""
        ases = {
            route.attributes.as_path.neighbor_as
            for rib in self._ribs.values()
            for route in rib.routes()
        }
        ases.discard(None)
        return len(ases)

    def all_routes(self) -> Iterable[Route]:
        """Every (peer, prefix, attributes) route currently held."""
        # repro: allow[DET002] per-peer RIBs are created in peering
        # order; the event stream that fills them is single-threaded.
        for rib in self._ribs.values():
            yield from rib.routes()

    @property
    def dropped_withdrawals(self) -> int:
        """Withdrawals for routes never announced (diagnostic counter)."""
        return self._dropped_withdrawals

    # ------------------------------------------------------------------
    # Ingest accounting (the feed-health record)
    # ------------------------------------------------------------------

    def record_ingest(self, report: "IngestReport") -> None:
        """Attach one MRT load's accounting to this collector."""
        self.ingest_reports.append(report)

    @property
    def last_ingest(self) -> Optional["IngestReport"]:
        return self.ingest_reports[-1] if self.ingest_reports else None

    def ingest_ok(self) -> bool:
        """True when every load into this collector was lossless."""
        return all(report.ok for report in self.ingest_reports)

    def ingest_summary(self) -> str:
        """Feed-health text: every load's report plus collector drops."""
        if not self.ingest_reports:
            return (
                f"{self.name}: no MRT ingests recorded"
                f" ({self._dropped_withdrawals} dropped withdrawals)"
            )
        lines = [report.summary() for report in self.ingest_reports]
        lines.append(
            f"{self.name}: {len(self.ingest_reports)} ingest(s),"
            f" {self._dropped_withdrawals} dropped withdrawals total"
        )
        return "\n".join(lines)
