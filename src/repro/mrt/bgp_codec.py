"""BGP UPDATE wire format (RFC 4271, with RFC 6793 four-octet ASNs).

Implements exactly the subset the analyses need: the UPDATE message with
withdrawn routes, NLRI, and the path attributes ORIGIN, AS_PATH (sequence
and set segments, 4-byte ASNs), NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF,
COMMUNITIES, ORIGINATOR_ID and CLUSTER_LIST. Unknown optional attributes
are skipped on decode (logged in the result), never fatal — real archive
data is full of attributes this reproduction does not model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.net.aspath import ASPath, ASPathError
from repro.net.attributes import Community, Origin, PathAttributes
from repro.net.message import Announcement, BGPUpdate, Withdrawal
from repro.net.prefix import Prefix

MARKER = b"\xff" * 16
MSG_TYPE_UPDATE = 2

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MED = 4
ATTR_LOCAL_PREF = 5
ATTR_COMMUNITIES = 8
ATTR_ORIGINATOR_ID = 9
ATTR_CLUSTER_LIST = 10

SEGMENT_AS_SET = 1
SEGMENT_AS_SEQUENCE = 2

FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_EXTENDED_LENGTH = 0x10

#: Default attribute flags per type code (well-known mandatory vs
#: optional transitive/non-transitive), as RFC 4271 prescribes.
_ATTR_FLAGS = {
    ATTR_ORIGIN: FLAG_TRANSITIVE,
    ATTR_AS_PATH: FLAG_TRANSITIVE,
    ATTR_NEXT_HOP: FLAG_TRANSITIVE,
    ATTR_MED: FLAG_OPTIONAL,
    ATTR_LOCAL_PREF: FLAG_TRANSITIVE,
    ATTR_COMMUNITIES: FLAG_OPTIONAL | FLAG_TRANSITIVE,
    ATTR_ORIGINATOR_ID: FLAG_OPTIONAL,
    ATTR_CLUSTER_LIST: FLAG_OPTIONAL,
}


class BGPCodecError(ValueError):
    """Malformed wire data."""


@dataclass
class DecodedUpdate:
    """The result of decoding one UPDATE message."""

    update: BGPUpdate
    #: Attribute type codes present but not modeled (skipped).
    skipped_attributes: tuple[int, ...] = field(default=())


# ----------------------------------------------------------------------
# Prefix (NLRI) encoding
# ----------------------------------------------------------------------


def encode_prefix(prefix: Prefix) -> bytes:
    """<length:1><network bytes: ceil(length/8)> per RFC 4271 §4.3."""
    nbytes = (prefix.length + 7) // 8
    network = prefix.network.to_bytes(4, "big")[:nbytes]
    return bytes([prefix.length]) + network


def decode_prefix(data: bytes, offset: int) -> tuple[Prefix, int]:
    """Decode one NLRI prefix at *offset*; returns (prefix, new offset)."""
    if offset >= len(data):
        raise BGPCodecError("truncated NLRI")
    length = data[offset]
    if length > 32:
        raise BGPCodecError(f"NLRI length {length} exceeds 32")
    nbytes = (length + 7) // 8
    end = offset + 1 + nbytes
    if end > len(data):
        raise BGPCodecError("truncated NLRI network bytes")
    raw = data[offset + 1 : end] + b"\x00" * (4 - nbytes)
    network = int.from_bytes(raw, "big")
    mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return Prefix(network & mask, length), end


def _encode_prefix_block(prefixes) -> bytes:
    return b"".join(encode_prefix(p) for p in prefixes)


def _decode_prefix_block(data: bytes) -> list[Prefix]:
    prefixes = []
    offset = 0
    while offset < len(data):
        prefix, offset = decode_prefix(data, offset)
        prefixes.append(prefix)
    return prefixes


# ----------------------------------------------------------------------
# Path attribute encoding
# ----------------------------------------------------------------------


def _attribute(type_code: int, payload: bytes) -> bytes:
    flags = _ATTR_FLAGS[type_code]
    if len(payload) > 255:
        flags |= FLAG_EXTENDED_LENGTH
        header = struct.pack("!BBH", flags, type_code, len(payload))
    else:
        header = struct.pack("!BBB", flags, type_code, len(payload))
    return header + payload


def _encode_as_path(path: ASPath) -> bytes:
    out = b""
    if path.sequence:
        out += struct.pack("!BB", SEGMENT_AS_SEQUENCE, len(path.sequence))
        out += b"".join(struct.pack("!I", asn) for asn in path.sequence)
    if path.as_set:
        members = sorted(path.as_set)
        out += struct.pack("!BB", SEGMENT_AS_SET, len(members))
        out += b"".join(struct.pack("!I", asn) for asn in members)
    return out


def _decode_as_path(payload: bytes) -> ASPath:
    sequence: list[int] = []
    as_set: set[int] = set()
    offset = 0
    while offset < len(payload):
        if offset + 2 > len(payload):
            raise BGPCodecError("truncated AS_PATH segment header")
        segment_type, count = payload[offset], payload[offset + 1]
        offset += 2
        end = offset + 4 * count
        if end > len(payload):
            raise BGPCodecError("truncated AS_PATH segment")
        asns = [
            struct.unpack("!I", payload[i : i + 4])[0]
            for i in range(offset, end, 4)
        ]
        if segment_type == SEGMENT_AS_SEQUENCE:
            sequence.extend(asns)
        elif segment_type == SEGMENT_AS_SET:
            as_set.update(asns)
        else:
            raise BGPCodecError(f"unknown AS_PATH segment {segment_type}")
        offset = end
    try:
        return ASPath(sequence, as_set)
    except ASPathError as exc:
        # AS 0 (or out-of-range values from bit flips) are wire-level
        # garbage: surface them as codec errors, not model errors.
        raise BGPCodecError(f"malformed AS_PATH: {exc}") from exc


def encode_attributes(attrs: PathAttributes) -> bytes:
    """Encode a :class:`PathAttributes` bundle as a path-attribute block."""
    out = _attribute(ATTR_ORIGIN, bytes([int(attrs.origin)]))
    out += _attribute(ATTR_AS_PATH, _encode_as_path(attrs.as_path))
    out += _attribute(ATTR_NEXT_HOP, attrs.nexthop.to_bytes(4, "big"))
    if attrs.med is not None:
        out += _attribute(ATTR_MED, struct.pack("!I", attrs.med))
    out += _attribute(ATTR_LOCAL_PREF, struct.pack("!I", attrs.local_pref))
    if attrs.communities:
        payload = b"".join(
            struct.pack("!HH", c.asn, c.value)
            for c in sorted(attrs.communities)
        )
        out += _attribute(ATTR_COMMUNITIES, payload)
    if attrs.originator_id is not None:
        out += _attribute(
            ATTR_ORIGINATOR_ID, attrs.originator_id.to_bytes(4, "big")
        )
    if attrs.cluster_list:
        payload = b"".join(
            cid.to_bytes(4, "big") for cid in attrs.cluster_list
        )
        out += _attribute(ATTR_CLUSTER_LIST, payload)
    return out


def decode_attributes(
    data: bytes,
) -> tuple[PathAttributes | None, list[int]]:
    """Decode a path-attribute block.

    Returns (attributes, skipped attribute codes). Attributes is None
    when the block lacks the mandatory NEXT_HOP/AS_PATH (as in a
    withdrawal-only UPDATE).
    """
    origin = Origin.IGP
    as_path = ASPath()
    nexthop: int | None = None
    med = None
    local_pref = 100
    communities: list[Community] = []
    originator_id = None
    cluster_list: tuple[int, ...] = ()
    skipped: list[int] = []
    offset = 0
    seen_mandatory = False
    while offset < len(data):
        if offset + 2 > len(data):
            raise BGPCodecError("truncated attribute header")
        flags, type_code = data[offset], data[offset + 1]
        offset += 2
        if flags & FLAG_EXTENDED_LENGTH:
            if offset + 2 > len(data):
                raise BGPCodecError("truncated extended length")
            length = struct.unpack_from("!H", data, offset)[0]
            offset += 2
        else:
            if offset + 1 > len(data):
                raise BGPCodecError("truncated attribute length")
            length = data[offset]
            offset += 1
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise BGPCodecError("truncated attribute payload")
        offset += length
        if type_code == ATTR_ORIGIN:
            if length != 1 or payload[0] > 2:
                raise BGPCodecError("malformed ORIGIN")
            origin = Origin(payload[0])
        elif type_code == ATTR_AS_PATH:
            as_path = _decode_as_path(payload)
            seen_mandatory = True
        elif type_code == ATTR_NEXT_HOP:
            if length != 4:
                raise BGPCodecError("malformed NEXT_HOP")
            nexthop = int.from_bytes(payload, "big")
            seen_mandatory = True
        elif type_code == ATTR_MED:
            if length != 4:
                raise BGPCodecError("malformed MED")
            med = struct.unpack("!I", payload)[0]
        elif type_code == ATTR_LOCAL_PREF:
            if length != 4:
                raise BGPCodecError("malformed LOCAL_PREF")
            local_pref = struct.unpack("!I", payload)[0]
        elif type_code == ATTR_COMMUNITIES:
            if length % 4:
                raise BGPCodecError("malformed COMMUNITIES")
            communities = [
                Community(*struct.unpack_from("!HH", payload, i))
                for i in range(0, length, 4)
            ]
        elif type_code == ATTR_ORIGINATOR_ID:
            if length != 4:
                raise BGPCodecError("malformed ORIGINATOR_ID")
            originator_id = int.from_bytes(payload, "big")
        elif type_code == ATTR_CLUSTER_LIST:
            if length % 4:
                raise BGPCodecError("malformed CLUSTER_LIST")
            cluster_list = tuple(
                int.from_bytes(payload[i : i + 4], "big")
                for i in range(0, length, 4)
            )
        else:
            skipped.append(type_code)
    if not seen_mandatory or nexthop is None:
        return None, skipped
    return (
        PathAttributes(
            nexthop=nexthop,
            as_path=as_path,
            origin=origin,
            local_pref=local_pref,
            med=med,
            communities=communities,
            originator_id=originator_id,
            cluster_list=cluster_list,
        ),
        skipped,
    )


# ----------------------------------------------------------------------
# UPDATE message
# ----------------------------------------------------------------------


def encode_update(update: BGPUpdate) -> bytes:
    """Encode an UPDATE with full BGP header (marker, length, type)."""
    withdrawn = _encode_prefix_block(w.prefix for w in update.withdrawals)
    if update.announcements:
        shared = update.announcements[0].attributes
        for announcement in update.announcements:
            if announcement.attributes != shared:
                raise BGPCodecError(
                    "one UPDATE carries one attribute bundle; split"
                    " announcements with differing attributes"
                )
        attributes = encode_attributes(shared)
        nlri = _encode_prefix_block(a.prefix for a in update.announcements)
    else:
        attributes = b""
        nlri = b""
    body = (
        struct.pack("!H", len(withdrawn))
        + withdrawn
        + struct.pack("!H", len(attributes))
        + attributes
        + nlri
    )
    total = 16 + 2 + 1 + len(body)
    if total > 4096:
        raise BGPCodecError(
            f"UPDATE of {total} bytes exceeds the 4096-byte maximum;"
            " split the prefixes across messages"
        )
    return MARKER + struct.pack("!HB", total, MSG_TYPE_UPDATE) + body


_LENGTH_TYPE = struct.Struct("!HB")
_BLOCK_LENGTH = struct.Struct("!H")


def _split_update(data: bytes) -> tuple[bytes, bytes, bytes]:
    """Validate one wire UPDATE's header and lengths; returns its
    (withdrawn routes, path attributes, NLRI) blocks."""
    if len(data) < 19:
        raise BGPCodecError("message shorter than the BGP header")
    if not data.startswith(MARKER):
        raise BGPCodecError("bad marker")
    length, msg_type = _LENGTH_TYPE.unpack_from(data, 16)
    if msg_type != MSG_TYPE_UPDATE:
        raise BGPCodecError(f"not an UPDATE (type {msg_type})")
    if length != len(data):
        raise BGPCodecError(
            f"header length {length} does not match data ({len(data)})"
        )
    if length < 21:
        raise BGPCodecError("truncated withdrawn-routes length")
    withdrawn_len = _BLOCK_LENGTH.unpack_from(data, 19)[0]
    offset = 21
    withdrawn_block = data[offset : offset + withdrawn_len]
    if len(withdrawn_block) != withdrawn_len:
        raise BGPCodecError("truncated withdrawn routes")
    offset += withdrawn_len
    if length < offset + 2:
        raise BGPCodecError("truncated attributes length")
    attrs_len = _BLOCK_LENGTH.unpack_from(data, offset)[0]
    offset += 2
    attrs_block = data[offset : offset + attrs_len]
    if len(attrs_block) != attrs_len:
        raise BGPCodecError("truncated attributes")
    return withdrawn_block, attrs_block, data[offset + attrs_len :]


#: One UPDATE as bare values: (withdrawn prefixes, attributes, announced
#: prefixes, skipped attribute codes). Attributes are ``None`` only when
#: nothing is announced.
UpdateParts = tuple[
    list[Prefix], Optional[PathAttributes], list[Prefix], Sequence[int]
]


def _decode_update_parts(
    data: bytes,
    decode_block: Callable[[bytes], list[Prefix]],
    decode_attrs: Callable[
        [bytes], tuple[Optional[PathAttributes], Sequence[int]]
    ],
) -> UpdateParts:
    """Decode one wire UPDATE to :data:`UpdateParts`.

    The order of decoding — and so which error a doubly malformed
    message raises — is fixed here for :func:`decode_update` and
    :class:`UpdateDecoder` alike; they differ only in the block decoders
    they pass.
    """
    withdrawn_block, attrs_block, nlri_block = _split_update(data)
    withdrawn = decode_block(withdrawn_block)
    attrs: Optional[PathAttributes] = None
    skipped: Sequence[int] = ()
    if attrs_block:
        attrs, skipped = decode_attrs(attrs_block)
    nlri = decode_block(nlri_block)
    if nlri and attrs is None:
        raise BGPCodecError("NLRI without mandatory attributes")
    return withdrawn, attrs, nlri, skipped


def decode_update(data: bytes) -> DecodedUpdate:
    """Decode one wire UPDATE (header + body)."""
    withdrawn, attrs, nlri, skipped = _decode_update_parts(
        data, _decode_prefix_block, decode_attributes
    )
    announcements: tuple[Announcement, ...] = ()
    if attrs is not None:
        announcements = tuple(Announcement(p, attrs) for p in nlri)
    return DecodedUpdate(
        update=BGPUpdate(
            withdrawals=tuple(Withdrawal(p) for p in withdrawn),
            announcements=announcements,
        ),
        skipped_attributes=tuple(skipped),
    )


# ----------------------------------------------------------------------
# Per-load interning
# ----------------------------------------------------------------------

#: Entries each of an :class:`UpdateDecoder`'s two tables may hold. Past
#: it a new wire string is decoded as ever and not kept, so a load's
#: table memory is bounded however varied the archive.
INTERN_CAP = 1 << 16


class UpdateDecoder:
    """:func:`decode_update` behind one load's intern tables.

    A feed repeats itself: a burst is a few attribute bundles across
    thousands of prefixes, and a flapping prefix is one NLRI entry over
    and over. The decoder keeps, for the load that owns it, each
    distinct path-attribute block's decoded ``(PathAttributes, skipped
    codes)`` and each distinct NLRI entry's :class:`Prefix`, keyed by
    their wire bytes; a repeat is a dict probe and hands back the *same*
    immutable objects, so everything downstream that hashes, compares
    or prints them does so once per distinct value.

    A miss runs :func:`decode_attributes` / :func:`decode_prefix` — the
    only parsers of those wire forms — with every check they have. A
    block that fails to decode raises and is never stored: each
    occurrence is decoded, raised and counted again, exactly as without
    the tables. Construct one per load (never at module level): a second
    load in the same process then decodes, counts and reports like the
    first.
    """

    __slots__ = ("_attributes", "_prefixes", "attribute_blocks")

    def __init__(self) -> None:
        self._attributes: dict[
            bytes, tuple[Optional[PathAttributes], tuple[int, ...]]
        ] = {}
        self._prefixes: dict[bytes, Prefix] = {}
        #: Attribute blocks asked for (hits, misses and failures).
        self.attribute_blocks = 0

    @property
    def attribute_blocks_distinct(self) -> int:
        """Attribute blocks held — with :attr:`attribute_blocks`, the
        share of decodes the table saved."""
        return len(self._attributes)

    def attributes(
        self, block: bytes
    ) -> tuple[Optional[PathAttributes], tuple[int, ...]]:
        """Tabled :func:`decode_attributes`."""
        self.attribute_blocks += 1
        entry = self._attributes.get(block)
        if entry is None:
            attrs, skipped = decode_attributes(block)
            entry = (attrs, tuple(skipped))
            if len(self._attributes) < INTERN_CAP:
                self._attributes[block] = entry
        return entry

    def prefixes(self, block: bytes) -> list[Prefix]:
        """Tabled decode of a withdrawn-routes / NLRI block."""
        table = self._prefixes
        found: list[Prefix] = []
        offset = 0
        size = len(block)
        while offset < size:
            # The entry's wire bytes, if it is well formed. A stored key
            # is exactly that long for its length byte, so a truncated
            # or over-long entry can only miss — and decode_prefix then
            # raises for it.
            end = offset + 1 + ((block[offset] + 7) >> 3)
            prefix = table.get(block[offset:end])
            if prefix is None:
                prefix, end = decode_prefix(block, offset)
                if len(table) < INTERN_CAP:
                    table[block[offset:end]] = prefix
            found.append(prefix)
            offset = end
        return found

    def decode(self, data: bytes) -> UpdateParts:
        """One wire UPDATE as :data:`UpdateParts` — what
        :func:`decode_update` wraps in message objects."""
        return _decode_update_parts(data, self.prefixes, self.attributes)
