"""MRT record framing (RFC 6396).

Implements the subset the public BGP archives use:

* BGP4MP (type 16) / BGP4MP_ET (17), subtype BGP4MP_MESSAGE_AS4 (4):
  one BGP message with peer/local addresses and 4-byte ASNs. This is the
  RouteViews "updates" file format.
* TABLE_DUMP_V2 (type 13), subtypes PEER_INDEX_TABLE (1) and
  RIB_IPV4_UNICAST (2): RIB snapshots, the "rib" files.

Only IPv4 AFI is handled, matching the rest of the reproduction; IPv6
records are surfaced as unparsed payloads rather than errors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

TYPE_TABLE_DUMP_V2 = 13
TYPE_BGP4MP = 16
TYPE_BGP4MP_ET = 17

SUBTYPE_PEER_INDEX_TABLE = 1
SUBTYPE_RIB_IPV4_UNICAST = 2
SUBTYPE_BGP4MP_MESSAGE_AS4 = 4

AFI_IPV4 = 1


class MRTError(ValueError):
    """Malformed MRT data."""


@dataclass(frozen=True, slots=True)
class MRTRecord:
    """One framed MRT record: common header plus raw payload."""

    timestamp: float
    type: int
    subtype: int
    payload: bytes

    @property
    def is_bgp4mp_update(self) -> bool:
        return is_bgp4mp_update(self.type, self.subtype)

    @property
    def is_rib_entry(self) -> bool:
        return (
            self.type == TYPE_TABLE_DUMP_V2
            and self.subtype == SUBTYPE_RIB_IPV4_UNICAST
        )

    @property
    def is_peer_index(self) -> bool:
        return (
            self.type == TYPE_TABLE_DUMP_V2
            and self.subtype == SUBTYPE_PEER_INDEX_TABLE
        )


def is_bgp4mp_update(rec_type: int, subtype: int) -> bool:
    """True for the record kind an updates file is made of."""
    return subtype == SUBTYPE_BGP4MP_MESSAGE_AS4 and (
        rec_type == TYPE_BGP4MP_ET or rec_type == TYPE_BGP4MP
    )


def write_records(
    records: Iterable[MRTRecord], destination: str | Path | BinaryIO
) -> int:
    """Write *records* to a file path or binary stream. Returns count."""
    own = isinstance(destination, (str, Path))
    handle: BinaryIO = (
        open(destination, "wb") if own else destination  # type: ignore[arg-type]
    )
    count = 0
    try:
        for record in records:
            header = struct.pack(
                "!IHHI",
                int(record.timestamp),
                record.type,
                record.subtype,
                len(record.payload)
                + (4 if record.type == TYPE_BGP4MP_ET else 0),
            )
            handle.write(header)
            if record.type == TYPE_BGP4MP_ET:
                microseconds = int(
                    (record.timestamp - int(record.timestamp)) * 1e6
                )
                handle.write(struct.pack("!I", microseconds))
            handle.write(record.payload)
            count += 1
    finally:
        if own:
            handle.close()
    return count


#: Bytes asked of the source per read: records are parsed out of a
#: buffer, not with three ``read`` calls each.
_READ_CHUNK = 1 << 20

_HEADER = struct.Struct("!IHHI")
_MICROSECONDS = struct.Struct("!I")


def _refill(handle: BinaryIO, buffer: bytes, pos: int, need: int) -> bytes:
    """``buffer[pos:]`` topped up from *handle* to at least *need* bytes.

    Shorter only when the input ends first.
    """
    parts = [buffer[pos:]]
    have = len(parts[0])
    while have < need:
        chunk = handle.read(max(_READ_CHUNK, need - have))
        if not chunk:
            break
        parts.append(chunk)
        have += len(chunk)
    return b"".join(parts)


def read_frames(
    source: str | Path | BinaryIO,
) -> Iterator[tuple[float, int, int, bytes]]:
    """Yield ``(timestamp, type, subtype, payload)`` per framed record.

    The one MRT framing parser: :func:`read_records` wraps each frame in
    an :class:`MRTRecord`; a loader that only dispatches on the type and
    hands the payload on reads the frames as they are. A stream *source*
    is read ahead of the record being yielded.
    """
    own = isinstance(source, (str, Path))
    handle: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    buffer = b""
    pos = 0
    try:
        while True:
            if len(buffer) - pos < 12:
                buffer, pos = _refill(handle, buffer, pos, 12), 0
                if not buffer:
                    return
                if len(buffer) < 12:
                    raise MRTError("truncated MRT common header")
            timestamp, rec_type, subtype, length = _HEADER.unpack_from(
                buffer, pos
            )
            pos += 12
            extra_time = 0.0
            if rec_type == TYPE_BGP4MP_ET:
                if len(buffer) - pos < 4:
                    buffer, pos = _refill(handle, buffer, pos, 4), 0
                    if len(buffer) < 4:
                        raise MRTError("truncated extended timestamp")
                extra_time = _MICROSECONDS.unpack_from(buffer, pos)[0] / 1e6
                pos += 4
                length -= 4
            if length < 0:
                raise MRTError("negative payload length")
            if len(buffer) - pos < length:
                buffer, pos = _refill(handle, buffer, pos, length), 0
                if len(buffer) < length:
                    raise MRTError("truncated MRT payload")
            payload = buffer[pos : pos + length]
            pos += length
            yield timestamp + extra_time, rec_type, subtype, payload
    finally:
        if own:
            handle.close()


def read_records(source: str | Path | BinaryIO) -> Iterator[MRTRecord]:
    """Yield records from a file path or binary stream."""
    for frame in read_frames(source):
        yield MRTRecord(*frame)


# ----------------------------------------------------------------------
# BGP4MP_MESSAGE_AS4 payload
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Bgp4mpMessage:
    """The decoded BGP4MP_MESSAGE_AS4 envelope around one BGP message."""

    peer_as: int
    local_as: int
    interface_index: int
    peer_address: int
    local_address: int
    bgp_message: bytes


def encode_bgp4mp(message: Bgp4mpMessage) -> bytes:
    return (
        struct.pack(
            "!IIHH",
            message.peer_as,
            message.local_as,
            message.interface_index,
            AFI_IPV4,
        )
        + message.peer_address.to_bytes(4, "big")
        + message.local_address.to_bytes(4, "big")
        + message.bgp_message
    )


_BGP4MP_AS4_IPV4 = struct.Struct("!IIHHII")


def split_bgp4mp(payload: bytes) -> tuple[int, int, int, int, int, bytes]:
    """The fields of a BGP4MP_MESSAGE_AS4 payload, in
    :class:`Bgp4mpMessage` order (the one parser of the envelope)."""
    if len(payload) < 20:
        raise MRTError("truncated BGP4MP_MESSAGE_AS4 payload")
    peer_as, local_as, ifindex, afi, peer_address, local_address = (
        _BGP4MP_AS4_IPV4.unpack_from(payload)
    )
    if afi != AFI_IPV4:
        raise MRTError(f"unsupported AFI {afi} (IPv4 only)")
    return (
        peer_as,
        local_as,
        ifindex,
        peer_address,
        local_address,
        payload[20:],
    )


def decode_bgp4mp(payload: bytes) -> Bgp4mpMessage:
    return Bgp4mpMessage(*split_bgp4mp(payload))


# ----------------------------------------------------------------------
# TABLE_DUMP_V2 payloads
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerEntry:
    """One peer of a TABLE_DUMP_V2 peer index."""

    bgp_id: int
    address: int
    asn: int


def encode_peer_index(collector_id: int, peers: list[PeerEntry]) -> bytes:
    out = collector_id.to_bytes(4, "big")
    out += struct.pack("!H", 0)  # view name length (unnamed view)
    out += struct.pack("!H", len(peers))
    for peer in peers:
        # Peer type 0x02: AS number is 32 bits, address is IPv4.
        out += bytes([0x02])
        out += peer.bgp_id.to_bytes(4, "big")
        out += peer.address.to_bytes(4, "big")
        out += struct.pack("!I", peer.asn)
    return out


def decode_peer_index(payload: bytes) -> tuple[int, list[PeerEntry]]:
    if len(payload) < 8:
        raise MRTError("truncated PEER_INDEX_TABLE")
    collector_id = int.from_bytes(payload[:4], "big")
    name_len = struct.unpack_from("!H", payload, 4)[0]
    offset = 6 + name_len
    if len(payload) < offset + 2:
        raise MRTError("truncated peer count")
    count = struct.unpack_from("!H", payload, offset)[0]
    offset += 2
    peers = []
    for _ in range(count):
        if offset >= len(payload):
            raise MRTError("truncated peer entry")
        peer_type = payload[offset]
        offset += 1
        ipv6 = bool(peer_type & 0x01)
        as4 = bool(peer_type & 0x02)
        addr_len = 16 if ipv6 else 4
        as_len = 4 if as4 else 2
        if offset + 4 + addr_len + as_len > len(payload):
            # Without the bounds check the int.from_bytes slices below
            # would quietly read short and fabricate zero IDs/ASNs.
            raise MRTError("truncated peer entry")
        bgp_id = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        address_raw = payload[offset : offset + addr_len]
        offset += addr_len
        asn = int.from_bytes(payload[offset : offset + as_len], "big")
        offset += as_len
        address = int.from_bytes(address_raw[:4], "big") if not ipv6 else 0
        peers.append(PeerEntry(bgp_id=bgp_id, address=address, asn=asn))
    return collector_id, peers


@dataclass(frozen=True, slots=True)
class RibEntry:
    """One (peer, attributes) pair of a RIB_IPV4_UNICAST record."""

    peer_index: int
    originated_time: int
    attributes: bytes  # encoded path-attribute block


def encode_rib_ipv4(
    sequence: int, prefix_wire: bytes, entries: list[RibEntry]
) -> bytes:
    out = struct.pack("!I", sequence) + prefix_wire
    out += struct.pack("!H", len(entries))
    for entry in entries:
        out += struct.pack("!HI", entry.peer_index, entry.originated_time)
        out += struct.pack("!H", len(entry.attributes))
        out += entry.attributes
    return out


def decode_rib_ipv4(payload: bytes) -> tuple[int, bytes, list[RibEntry]]:
    """Returns (sequence, prefix wire bytes, entries)."""
    if len(payload) < 5:
        raise MRTError("truncated RIB entry")
    sequence = struct.unpack_from("!I", payload, 0)[0]
    plen = payload[4]
    if plen > 32:
        raise MRTError(f"RIB prefix length {plen} exceeds 32")
    nbytes = (plen + 7) // 8
    if len(payload) < 5 + nbytes:
        raise MRTError("truncated RIB prefix")
    prefix_wire = payload[4 : 5 + nbytes]
    offset = 5 + nbytes
    if len(payload) < offset + 2:
        raise MRTError("truncated RIB entry count")
    count = struct.unpack_from("!H", payload, offset)[0]
    offset += 2
    entries = []
    for _ in range(count):
        if len(payload) < offset + 8:
            raise MRTError("truncated RIB sub-entry")
        peer_index, originated = struct.unpack_from("!HI", payload, offset)
        offset += 6
        attr_len = struct.unpack_from("!H", payload, offset)[0]
        offset += 2
        attributes = payload[offset : offset + attr_len]
        if len(attributes) != attr_len:
            raise MRTError("truncated RIB attributes")
        offset += attr_len
        entries.append(
            RibEntry(
                peer_index=peer_index,
                originated_time=originated,
                attributes=attributes,
            )
        )
    return sequence, prefix_wire, entries
