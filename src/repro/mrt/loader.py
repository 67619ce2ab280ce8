"""High-level MRT ↔ analysis-object conversion.

``load_updates`` turns a RouteViews-style updates file into the
:class:`repro.collector.stream.EventStream` the algorithms consume — by
replaying the wire messages through a :class:`RouteExplorer`, so
withdrawals get the Section II attribute augmentation exactly as they
would from a live feed. ``load_rib`` turns a TABLE_DUMP_V2 snapshot into
a populated collector (the TAMP picture input). The ``dump_*`` writers
are the inverse: simulated incidents exported for other tools.

Both loaders are hardened against lossy archives: every call produces
an :class:`repro.mrt.ingest.IngestReport` (attached to the returned
stream / collector and accumulated on the collector's
``ingest_reports``), an :class:`repro.mrt.ingest.IngestPolicy` chooses
raise-vs-skip-vs-abort-past-budget, and undecodable raw records can be
quarantined to JSONL for replay. A load never silently returns a
shorter stream: anything skipped is counted, classed by error, and —
past the warn threshold — warned about.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional

from repro.bgp.rib import Route
from repro.collector.events import BGPEvent
from repro.collector.rex import RouteExplorer
from repro.collector.stream import EventStream
from repro.mrt.bgp_codec import (
    UpdateDecoder,
    decode_prefix,
    encode_attributes,
    encode_prefix,
    encode_update,
)
from repro.mrt.ingest import (
    IngestError,
    IngestPolicy,
    IngestReport,
    IngestWarning,
    QuarantineWriter,
)
from repro.mrt.records import (
    SUBTYPE_BGP4MP_MESSAGE_AS4,
    SUBTYPE_PEER_INDEX_TABLE,
    SUBTYPE_RIB_IPV4_UNICAST,
    TYPE_BGP4MP_ET,
    TYPE_TABLE_DUMP_V2,
    Bgp4mpMessage,
    MRTError,
    MRTRecord,
    PeerEntry,
    RibEntry,
    decode_peer_index,
    decode_rib_ipv4,
    encode_bgp4mp,
    encode_peer_index,
    encode_rib_ipv4,
    is_bgp4mp_update,
    read_frames,
    split_bgp4mp,
    write_records,
)
from repro.net.attributes import PathAttributes
from repro.net.message import BGPUpdate
from repro.net.prefix import Prefix


def _describe_source(source: str | Path | BinaryIO) -> str:
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", None) or "<stream>"


def _guarded_frames(
    source: str | Path | BinaryIO,
    report: IngestReport,
    policy: IngestPolicy,
) -> Iterator[tuple[float, int, int, bytes]]:
    """Iterate record frames, capturing a truncated-archive framing error.

    After a framing error nothing later in the file is readable (MRT
    has no resync marker), so the iterator stops — but the report says
    why, instead of the archive just "ending early". Strict mode
    re-raises as before.
    """
    iterator = read_frames(source)
    while True:
        try:
            frame = next(iterator)
        except StopIteration:
            return
        except MRTError as exc:
            if policy.strict:
                raise
            report.framing_error = str(exc)
            report.note_error(exc)
            return
        report.records_read += 1
        report.observe_timestamp(frame[0], policy.gap_threshold)
        yield frame


def _enforce_budget(report: IngestReport, policy: IngestPolicy) -> None:
    if policy.max_error_rate is None:
        return
    if report.attempted < policy.min_records:
        return
    if report.skip_rate > policy.max_error_rate:
        report.aborted = True
        raise IngestError(
            f"{report.source}: skip rate {report.skip_rate:.1%} exceeds"
            f" the {policy.max_error_rate:.1%} error budget after"
            f" {report.attempted} records",
            report,
        )


def _finish(report: IngestReport, policy: IngestPolicy) -> None:
    """End-of-load bookkeeping: warn when the skip rate is alarming."""
    if policy.strict:
        return
    if report.records_skipped and report.skip_rate > policy.warn_threshold:
        warnings.warn(
            f"{report.source}: skipped {report.records_skipped} of"
            f" {report.attempted} records ({report.skip_rate:.1%});"
            " inspect the IngestReport before trusting detector output",
            IngestWarning,
            stacklevel=3,
        )


def load_updates(
    source: str | Path | BinaryIO,
    rex: Optional[RouteExplorer] = None,
    policy: Optional[IngestPolicy] = None,
) -> EventStream:
    """Read a BGP4MP updates file into an event stream.

    Messages replay through *rex* (a fresh collector by default) so
    withdrawal augmentation applies; withdrawals for routes the file
    never announced are dropped, exactly as a collector mid-stream would
    drop them (``rex.dropped_withdrawals`` counts them).

    Undecodable records are handled per *policy* (see
    :class:`repro.mrt.ingest.IngestPolicy`): raised in strict mode,
    otherwise skipped with full accounting — and optionally quarantined
    — in the :class:`repro.mrt.ingest.IngestReport` attached to the
    returned stream (``stream.ingest_report``) and recorded on the
    collector (``rex.ingest_reports``).
    """
    if rex is None:
        rex = RouteExplorer("mrt")
    if policy is None:
        policy = IngestPolicy()
    report = IngestReport(source=_describe_source(source), kind="updates")
    dropped_before = rex.dropped_withdrawals
    decoder = UpdateDecoder()
    with QuarantineWriter(policy.quarantine) as quarantine:
        for frame in _guarded_frames(source, report, policy):
            timestamp, rec_type, subtype, payload = frame
            if not is_bgp4mp_update(rec_type, subtype):
                report.records_ignored += 1
                continue
            try:
                produced, unknown = observe_update(
                    rex, decoder, payload, timestamp
                )
            except (MRTError, ValueError) as exc:
                if policy.strict:
                    raise
                report.records_skipped += 1
                report.note_error(exc)
                quarantine.write(MRTRecord(*frame), exc)
                report.records_quarantined = quarantine.count
                _enforce_budget(report, policy)
                continue
            report.records_decoded += 1
            report.unknown_attributes += unknown
            report.events_produced += produced
    report.dropped_withdrawals = rex.dropped_withdrawals - dropped_before
    report.attribute_blocks = decoder.attribute_blocks
    report.attribute_blocks_distinct = decoder.attribute_blocks_distinct
    _finish(report, policy)
    rex.record_ingest(report)
    events = rex.events
    events.ingest_report = report
    return events


def observe_update(
    rex: RouteExplorer,
    decoder: UpdateDecoder,
    payload: bytes,
    timestamp: float,
) -> tuple[int, int]:
    """Replay one BGP4MP update record's *payload* through *rex*.

    The one record → events path, shared by :func:`load_updates` and a
    quarantine replay: envelope, then the UPDATE through *decoder*'s
    intern tables, then the collector. Returns (events produced,
    unmodeled attributes skipped); raises :class:`MRTError` /
    ``ValueError`` on malformed bytes, before the collector sees
    anything of the record.
    """
    _, _, _, peer_address, _, message = split_bgp4mp(payload)
    withdrawn, attrs, nlri, skipped = decoder.decode(message)
    announced: list[tuple[Prefix, PathAttributes]] = []
    if attrs is not None:  # else nothing is announced: decode() checks
        announced = [(prefix, attrs) for prefix in nlri]
    produced = rex.observe_routes(
        peer_address, withdrawn, announced, timestamp
    )
    return len(produced), len(skipped)


def dump_updates(
    events: Iterable[BGPEvent],
    destination: str | Path | BinaryIO,
    local_as: int = 0,
    local_address: int = 0,
) -> int:
    """Write events as a BGP4MP_ET updates file. Returns records written.

    Each event becomes one UPDATE (withdrawals lose their augmented
    attributes on the wire, as real BGP does — loading the file back
    re-augments them through the collector).
    """
    def generate():
        for event in events:
            if event.is_withdrawal:
                update = BGPUpdate.withdraw([event.prefix])
            else:
                update = BGPUpdate.announce([event.prefix], event.attributes)
            envelope = Bgp4mpMessage(
                peer_as=event.attributes.as_path.neighbor_as or 0,
                local_as=local_as,
                interface_index=0,
                peer_address=event.peer,
                local_address=local_address,
                bgp_message=encode_update(update),
            )
            yield MRTRecord(
                timestamp=event.timestamp,
                type=TYPE_BGP4MP_ET,
                subtype=SUBTYPE_BGP4MP_MESSAGE_AS4,
                payload=encode_bgp4mp(envelope),
            )

    return write_records(generate(), destination)


def load_rib(
    source: str | Path | BinaryIO,
    rex: Optional[RouteExplorer] = None,
    policy: Optional[IngestPolicy] = None,
) -> RouteExplorer:
    """Read a TABLE_DUMP_V2 snapshot into a populated collector.

    Hardened like :func:`load_updates`: the returned collector carries
    an :class:`repro.mrt.ingest.IngestReport` in ``rex.ingest_reports``
    counting skipped records and RIB sub-entries (undecodable
    attribute blocks, out-of-range peer indexes).
    """
    if rex is None:
        rex = RouteExplorer("mrt-rib")
    if policy is None:
        policy = IngestPolicy()
    report = IngestReport(source=_describe_source(source), kind="rib")
    peers: list[PeerEntry] = []
    decoder = UpdateDecoder()
    with QuarantineWriter(policy.quarantine) as quarantine:
        for frame in _guarded_frames(source, report, policy):
            record = MRTRecord(*frame)
            if record.is_peer_index:
                try:
                    _, peers = decode_peer_index(record.payload)
                except (MRTError, ValueError) as exc:
                    if policy.strict:
                        raise
                    report.records_skipped += 1
                    report.note_error(exc)
                    quarantine.write(record, exc)
                    report.records_quarantined = quarantine.count
                    _enforce_budget(report, policy)
                    continue
                report.records_decoded += 1
                for peer in peers:
                    rex.peer_with(peer.address)
                continue
            if not record.is_rib_entry:
                report.records_ignored += 1
                continue
            try:
                _, prefix_wire, entries = decode_rib_ipv4(record.payload)
                prefix, _ = decode_prefix(prefix_wire, 0)
            except (MRTError, ValueError) as exc:
                if policy.strict:
                    raise
                report.records_skipped += 1
                report.note_error(exc)
                quarantine.write(record, exc)
                report.records_quarantined = quarantine.count
                _enforce_budget(report, policy)
                continue
            report.records_decoded += 1
            for entry in entries:
                report.entries_read += 1
                if entry.peer_index >= len(peers):
                    if policy.strict:
                        raise MRTError(
                            f"peer index {entry.peer_index} out of range"
                        )
                    report.entries_skipped += 1
                    report.note_error(
                        MRTError("peer index out of range")
                    )
                    continue
                try:
                    attrs, skipped_codes = decoder.attributes(
                        entry.attributes
                    )
                except (MRTError, ValueError) as exc:
                    if policy.strict:
                        raise
                    report.entries_skipped += 1
                    report.note_error(exc)
                    continue
                report.unknown_attributes += len(skipped_codes)
                if attrs is None:
                    report.entries_skipped += 1
                    report.note_error(
                        MRTError("RIB entry lacks mandatory attributes")
                    )
                    continue
                peer = peers[entry.peer_index]
                rex.peer_with(peer.address)
                rex.rib(peer.address).announce(prefix, attrs)
    report.attribute_blocks = decoder.attribute_blocks
    report.attribute_blocks_distinct = decoder.attribute_blocks_distinct
    _finish(report, policy)
    rex.record_ingest(report)
    return rex


def dump_rib(
    rex: RouteExplorer,
    destination: str | Path | BinaryIO,
    collector_id: int = 0,
    timestamp: float = 0.0,
) -> int:
    """Write a collector's tables as a TABLE_DUMP_V2 snapshot."""
    peer_addresses = sorted(rex.peers())
    peers = [
        PeerEntry(bgp_id=address, address=address, asn=0)
        for address in peer_addresses
    ]
    index_of = {address: i for i, address in enumerate(peer_addresses)}

    def generate():
        yield MRTRecord(
            timestamp=timestamp,
            type=TYPE_TABLE_DUMP_V2,
            subtype=SUBTYPE_PEER_INDEX_TABLE,
            payload=encode_peer_index(collector_id, peers),
        )
        by_prefix: dict[Prefix, list[Route]] = {}
        for route in rex.all_routes():
            by_prefix.setdefault(route.prefix, []).append(route)
        for sequence, prefix in enumerate(sorted(by_prefix)):
            entries = [
                RibEntry(
                    peer_index=index_of[route.peer],
                    originated_time=int(timestamp),
                    attributes=encode_attributes(route.attributes),
                )
                for route in by_prefix[prefix]
            ]
            yield MRTRecord(
                timestamp=timestamp,
                type=TYPE_TABLE_DUMP_V2,
                subtype=SUBTYPE_RIB_IPV4_UNICAST,
                payload=encode_rib_ipv4(
                    sequence, encode_prefix(prefix), entries
                ),
            )

    return write_records(generate(), destination)
