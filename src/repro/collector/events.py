"""BGP events: the unit of analysis.

A BGP event is one route announcement or withdrawal from a peer, with
full path attributes — for withdrawals, the attributes of the route being
withdrawn, recovered from the collector's Adj-RIB-In. Section III-B
expresses an event as the sequence ``c = x h a1 … an p`` (peer, nexthop,
AS path, prefix); :meth:`BGPEvent.sequence` produces exactly that encoding
for the Stemming algorithm.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.prefix import Prefix, format_address, parse_address

#: One element of a Stemming sequence: a (namespace, value) pair. The
#: namespace tag keeps peers, nexthops, ASes and prefixes from colliding
#: (an AS number could otherwise equal an encoded address).
Token = tuple[str, object]

#: :meth:`BGPEvent.to_json`'s encoder, built once: ``json.dumps`` with
#: non-default separators constructs a new one per call.
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


@lru_cache(maxsize=1 << 10)
def _attributes_json(attrs: PathAttributes) -> str:
    """The attribute fields of :meth:`BGPEvent.to_json` — everything
    after ``"pfx"``, closing brace included.

    Encoded once per bundle in use: an event is encoded at admission
    and again per checkpoint it changes a route in, and a burst repeats
    a few bundles, so recency is nearly all of the sharing there is
    (the 3,378 bundles of a 20,000-record replay hit 84 % of the time
    in 1,024 entries, 85 % unbounded). The cache holds its keys — about
    a kilobyte per bundle nothing else refers to any more — so it stays
    this small.
    """
    record: dict = {
        "nh": format_address(attrs.nexthop),
        "path": str(attrs.as_path),
    }
    if attrs.local_pref != 100:
        record["lp"] = attrs.local_pref
    if attrs.med is not None:
        record["med"] = attrs.med
    if attrs.communities:
        record["comm"] = sorted(str(c) for c in attrs.communities)
    if attrs.origin is not Origin.IGP:
        record["origin"] = int(attrs.origin)
    return _encode_record(record)[1:]


class EventKind(enum.Enum):
    ANNOUNCE = "A"
    WITHDRAW = "W"


@dataclass(frozen=True)
class BGPEvent:
    """One routing change seen by the collector.

    *peer* is the IBGP peer (edge router / route reflector) that reported
    the change; *attributes* always present (withdrawals are augmented).
    """

    timestamp: float
    kind: EventKind
    peer: int
    prefix: Prefix
    attributes: PathAttributes

    @property
    def is_withdrawal(self) -> bool:
        return self.kind is EventKind.WITHDRAW

    @property
    def nexthop(self) -> int:
        return self.attributes.nexthop

    @property
    def as_path(self) -> ASPath:
        return self.attributes.as_path

    @cached_property
    def sequence(self) -> tuple[Token, ...]:
        """The Stemming encoding ``x h a1 … an p`` of this event.

        Consecutive duplicate ASes (path prepending) collapse to one
        token: a prepended path traverses the AS once, and keeping the
        repeats would let a single event count a subsequence twice.

        The AS tokens come from :meth:`ASPath.collapsed_tokens`, which
        caches on the (shared) path instance — a flapping route's
        thousandth event reuses the first event's token tuple.
        """
        return (
            ("peer", self.peer),
            ("nh", self.attributes.nexthop),
            *self.attributes.as_path.collapsed_tokens(),
            ("pfx", self.prefix),
        )

    # ------------------------------------------------------------------
    # Figure 4 text format
    # ------------------------------------------------------------------

    def format_line(self) -> str:
        """Render in the paper's Figure 4 style::

            W 128.32.1.3 NEXT_HOP: 128.32.0.70 ASPATH: 11423 209 ... PREFIX: 192.96.10.0/24
        """
        return (
            f"{self.kind.value} {format_address(self.peer)} "
            f"NEXT_HOP: {format_address(self.attributes.nexthop)} "
            f"ASPATH: {self.attributes.as_path} "
            f"PREFIX: {self.prefix}"
        )

    @classmethod
    def parse_line(cls, line: str, timestamp: float = 0.0) -> "BGPEvent":
        """Parse a Figure 4 style line back into an event."""
        kind_text, _, rest = line.strip().partition(" ")
        kind = EventKind(kind_text)
        peer_text, _, rest = rest.partition(" NEXT_HOP: ")
        nexthop_text, _, rest = rest.partition(" ASPATH: ")
        path_text, _, prefix_text = rest.partition(" PREFIX: ")
        return cls(
            timestamp=timestamp,
            kind=kind,
            peer=parse_address(peer_text.strip()),
            prefix=Prefix.parse(prefix_text.strip()),
            attributes=PathAttributes(
                nexthop=parse_address(nexthop_text.strip()),
                as_path=ASPath.parse(path_text),
            ),
        )

    # ------------------------------------------------------------------
    # JSONL serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        """One-line JSON record (stable field order for diffs)."""
        head = _encode_record(
            {
                "t": self.timestamp,
                "k": self.kind.value,
                "peer": format_address(self.peer),
                "pfx": str(self.prefix),
            }
        )
        return f"{head[:-1]},{_attributes_json(self.attributes)}"

    @classmethod
    def from_json(cls, line: str) -> "BGPEvent":
        record = json.loads(line)
        return cls(
            timestamp=record["t"],
            kind=EventKind(record["k"]),
            peer=parse_address(record["peer"]),
            prefix=Prefix.parse(record["pfx"]),
            attributes=PathAttributes(
                nexthop=parse_address(record["nh"]),
                as_path=ASPath.parse(record["path"]),
                local_pref=record.get("lp", 100),
                med=record.get("med"),
                communities=[
                    Community.parse(c) for c in record.get("comm", [])
                ],
                origin=Origin(record.get("origin", 0)),
            ),
        )
