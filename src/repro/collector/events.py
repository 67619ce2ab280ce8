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
from math import isfinite

from repro.net.aspath import ASPath
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.prefix import Prefix, format_address, parse_address

#: One element of a Stemming sequence: a (namespace, value) pair. The
#: namespace tag keeps peers, nexthops, ASes and prefixes from colliding
#: (an AS number could otherwise equal an encoded address).
Token = tuple[str, object]

#: The ``json`` encoding of a value :func:`_json_number` cannot write
#: itself. Lines are assembled as text rather than encoded through it:
#: ``JSONEncoder.encode`` builds a new C encoder on every call, ≈4.4 of
#: the ≈6.7 µs an encoded line costs on a 2-vCPU Xeon VM (≈2.3 µs
#: assembled).
_encode_value = json.JSONEncoder(separators=(",", ":")).encode


def _json_number(value: float) -> str:
    """*value* as ``json`` writes it. A finite ``float`` or an ``int``
    is its ``repr`` there; anything else (``nan``, ``inf``, ``bool``, a
    subclass) takes the encoder, so the text never differs."""
    kind = type(value)
    if kind is int or (kind is float and isfinite(value)):
        return repr(value)
    return _encode_value(value)


def _attributes_json(attrs: PathAttributes) -> str:
    """The attribute fields of :meth:`BGPEvent.to_json` — everything
    after ``"pfx"``, closing brace included.

    Every piece is digits, dots, colons, spaces, commas and braces, so
    the fields are assembled as text: nothing needs escaping.
    """
    text = (
        f'"nh":"{format_address(attrs.nexthop)}","path":"{attrs.as_path}"'
    )
    if attrs.local_pref != 100:
        text += f',"lp":{_json_number(attrs.local_pref)}'
    if attrs.med is not None:
        text += f',"med":{_json_number(attrs.med)}'
    if attrs.communities:
        tags = '","'.join(sorted(str(c) for c in attrs.communities))
        text += f',"comm":["{tags}"]'
    if attrs.origin is not Origin.IGP:
        text += f',"origin":{int(attrs.origin)}'
    return text + "}"


#: :func:`_attributes_json` encoded once per bundle in use: an event is
#: encoded at admission and again per checkpoint it changes a route in,
#: and a burst repeats a few bundles. Over the 20,000 events of the
#: benchmark's 10×-overlap stream (6,281 distinct bundles) 1,024 entries
#: hit 66 % of the time; on a 2-vCPU Xeon VM a miss costs ≈1.2 µs of
#: assembly (≈4.8 µs through the encoder) and a hit ≈0.2 µs. The cache
#: holds its keys — about a kilobyte per bundle nothing else refers to
#: any more — so it stays this small. Only a bundle whose ``local_pref``
#: and ``med`` are exact ``int`` (or no MED) may take it: the cache
#: answers for every *equal* bundle, and ``0``, ``0.0``, ``-0.0`` and
#: ``False`` are equal numbers that write different text.
_cached_attributes_json = lru_cache(maxsize=1 << 10)(_attributes_json)


class EventKind(enum.Enum):
    ANNOUNCE = "A"
    WITHDRAW = "W"


def event_json(
    timestamp: float,
    kind: EventKind,
    peer: int,
    prefix: Prefix,
    attributes: PathAttributes,
) -> str:
    """The line :meth:`BGPEvent.to_json` writes for these fields: the
    bytes ``json`` writes with ``separators=(",", ":")`` for the record
    ``{"t", "k", "peer", "pfx", "nh", "path"}`` plus whichever of
    ``"lp"``, ``"med"``, ``"comm"``, ``"origin"`` differ from the
    defaults.

    The one line assembler: a checkpoint writes its route table through
    it without building a :class:`BGPEvent` per route.
    """
    med = attributes.med
    fields = (
        _cached_attributes_json(attributes)
        if type(attributes.local_pref) is int
        and (med is None or type(med) is int)
        else _attributes_json(attributes)
    )
    # ``_value_`` is the member's plain attribute; ``.value`` goes
    # through the enum's descriptor, ten times the cost.
    return (
        f'{{"t":{_json_number(timestamp)},"k":"{kind._value_}",'
        f'"peer":"{format_address(peer)}","pfx":"{prefix}",{fields}'
    )


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
        """One-line JSON record (stable field order for diffs): see
        :func:`event_json`."""
        return event_json(
            self.timestamp, self.kind, self.peer, self.prefix,
            self.attributes,
        )

    @classmethod
    def from_json(cls, line: str) -> "BGPEvent":
        record = json.loads(line)
        timestamp = record["t"]
        kind = type(timestamp)
        if kind is not int and not (kind is float and isfinite(timestamp)):
            # NaN compares false with every boundary and infinity closes
            # a window at infinity: either corrupts detection silently.
            raise ValueError(
                f"event timestamp must be a finite number, got {timestamp!r}"
            )
        return cls(
            timestamp=timestamp,
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
