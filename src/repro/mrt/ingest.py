"""Ingest accounting: what an MRT load actually read, skipped and lost.

Production archives are messy — truncated downloads, malformed UPDATEs,
unsupported AFIs, session resets that reorder the feed. The loaders in
:mod:`repro.mrt.loader` used to skip anything undecodable silently,
which meant nothing downstream could tell a clean ingest from a lossy
one. This module is the remedy:

* :class:`IngestReport` — per-load accounting (records read / decoded /
  skipped / quarantined, per-error-class counts, first/last timestamps,
  out-of-order and gap detection). Every load produces one; it rides on
  the returned object and on the collector
  (:attr:`repro.collector.rex.RouteExplorer.ingest_reports`).
* :class:`IngestPolicy` — the strictness knob. ``strict`` raises on the
  first undecodable record; ``max_error_rate`` skips up to a budget and
  aborts past it (:class:`IngestError`); the default skips everything
  but *counts it* and warns (:class:`IngestWarning`) when the skip rate
  crosses ``warn_threshold``.
* Quarantine — undecodable raw records can be written to a JSONL
  side-channel (:class:`QuarantineWriter`) and replayed later with
  :func:`read_quarantine`, e.g. after a codec fix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Optional

from repro.mrt.records import MRTError, MRTRecord

#: Gap entries kept verbatim on the report; beyond this only
#: ``gap_count`` grows (pathological feeds must not balloon memory).
MAX_RECORDED_GAPS = 20


class IngestError(MRTError):
    """The error budget of an :class:`IngestPolicy` was exceeded.

    Carries the partial :class:`IngestReport` so the caller can see how
    far the load got and what killed it.
    """

    def __init__(self, message: str, report: "IngestReport") -> None:
        super().__init__(message)
        self.report = report


class IngestWarning(UserWarning):
    """A non-strict load skipped more records than the warn threshold."""


@dataclass(frozen=True)
class IngestPolicy:
    """How a loader should treat undecodable input.

    *strict*: raise the decode error immediately (the CLI's
    ``--strict-ingest``). *max_error_rate*: tolerate skips up to this
    fraction of attempted records, then raise :class:`IngestError` —
    the check starts after *min_records* attempts so one bad record at
    the head of a file does not abort it. *warn_threshold*: in default
    (skip) mode, finish the load but emit an :class:`IngestWarning`
    when the final skip rate exceeds it. *gap_threshold*: seconds of
    silence between consecutive records that count as a feed gap.
    *quarantine*: JSONL path collecting the raw undecodable records for
    later replay (:func:`read_quarantine`).
    """

    strict: bool = False
    max_error_rate: Optional[float] = None
    min_records: int = 25
    warn_threshold: float = 0.01
    gap_threshold: float = 3600.0
    quarantine: Optional[str | Path] = None


@dataclass
class IngestReport:
    """Accounting for one ``load_updates`` / ``load_rib`` call.

    ``records_read`` counts every framed MRT record seen;
    ``records_ignored`` the ones of types the loader does not consume
    (state changes, other AFIs' subtypes); ``records_decoded`` and
    ``records_skipped`` partition the relevant ones. ``entries_read`` /
    ``entries_skipped`` count RIB sub-entries (TABLE_DUMP_V2 loads
    only). Timestamps, regressions and gaps describe the feed's shape;
    ``framing_error`` is set when the archive itself was truncated
    mid-record (nothing after that point is readable).
    """

    source: str
    kind: str = "updates"
    records_read: int = 0
    records_ignored: int = 0
    records_decoded: int = 0
    records_skipped: int = 0
    records_quarantined: int = 0
    entries_read: int = 0
    entries_skipped: int = 0
    events_produced: int = 0
    #: Withdrawals the collector dropped during *this* load (routes the
    #: archive never announced) — the delta of the rex counter.
    dropped_withdrawals: int = 0
    #: Unmodeled path-attribute type codes skipped by the BGP codec.
    unknown_attributes: int = 0
    #: Path-attribute blocks the load asked its decoder for, and how
    #: many distinct ones its intern table held at the end — the decode
    #: layer's useful-work ratio (a burst repeats a few bundles across
    #: thousands of prefixes). Deterministic per load.
    attribute_blocks: int = 0
    attribute_blocks_distinct: int = 0
    error_counts: dict[str, int] = field(default_factory=dict)
    first_timestamp: Optional[float] = None
    last_timestamp: Optional[float] = None
    out_of_order_records: int = 0
    gap_count: int = 0
    #: Up to :data:`MAX_RECORDED_GAPS` of (timestamp, gap seconds).
    gaps: list[tuple[float, float]] = field(default_factory=list)
    framing_error: Optional[str] = None
    aborted: bool = False

    # -- accumulation (loader-side) ------------------------------------

    def note_error(self, exc: BaseException) -> None:
        name = type(exc).__name__
        self.error_counts[name] = self.error_counts.get(name, 0) + 1

    def observe_timestamp(self, timestamp: float, gap_threshold: float) -> None:
        if self.first_timestamp is None:
            self.first_timestamp = timestamp
        else:
            previous = self.last_timestamp
            assert previous is not None
            delta = timestamp - previous
            if delta < 0:
                self.out_of_order_records += 1
            elif delta > gap_threshold:
                self.gap_count += 1
                if len(self.gaps) < MAX_RECORDED_GAPS:
                    self.gaps.append((previous, delta))
        self.last_timestamp = timestamp

    # -- interpretation (caller-side) ----------------------------------

    @property
    def attempted(self) -> int:
        """Relevant records a decode was attempted for."""
        return self.records_decoded + self.records_skipped

    @property
    def skip_rate(self) -> float:
        return self.records_skipped / self.attempted if self.attempted else 0.0

    @property
    def ok(self) -> bool:
        """True when nothing was lost: every relevant record decoded,
        every RIB entry applied, and the archive framing was intact."""
        return (
            self.records_skipped == 0
            and self.entries_skipped == 0
            and self.framing_error is None
            and not self.aborted
        )

    @property
    def is_lossy(self) -> bool:
        return not self.ok

    @property
    def suspicious(self) -> bool:
        """Lossy, reordered, or gapped — anything a detector downstream
        should know about before trusting its own output."""
        return (
            self.is_lossy
            or self.out_of_order_records > 0
            or self.gap_count > 0
            or self.unknown_attributes > 0
        )

    def summary(self) -> str:
        """One-paragraph operator summary."""
        lines = [
            f"ingest {self.kind} from {self.source}:"
            f" {self.records_read} records read,"
            f" {self.records_decoded} decoded,"
            f" {self.records_skipped} skipped"
            f" ({self.skip_rate:.1%} of attempted),"
            f" {self.records_ignored} ignored,"
            f" {self.events_produced} events",
        ]
        if self.kind == "rib":
            lines.append(
                f"  rib entries: {self.entries_read} read,"
                f" {self.entries_skipped} skipped"
            )
        if self.error_counts:
            per_class = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.error_counts.items())
            )
            lines.append(f"  errors: {per_class}")
        if self.records_quarantined:
            lines.append(f"  quarantined: {self.records_quarantined}")
        if self.dropped_withdrawals:
            lines.append(
                f"  dropped withdrawals: {self.dropped_withdrawals}"
            )
        if self.unknown_attributes:
            lines.append(
                f"  unmodeled attributes skipped: {self.unknown_attributes}"
            )
        if self.attribute_blocks:
            lines.append(
                f"  attribute blocks: {self.attribute_blocks} decoded,"
                f" {self.attribute_blocks_distinct} distinct"
            )
        if self.first_timestamp is not None:
            lines.append(
                f"  time: {self.first_timestamp:.1f}"
                f" .. {self.last_timestamp:.1f},"
                f" {self.out_of_order_records} out-of-order,"
                f" {self.gap_count} gap(s)"
            )
        if self.framing_error:
            lines.append(f"  FRAMING ERROR (file cut short): {self.framing_error}")
        if self.aborted:
            lines.append("  ABORTED: error budget exceeded")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view (artifact / logging friendly)."""
        return {
            "source": self.source,
            "kind": self.kind,
            "records_read": self.records_read,
            "records_ignored": self.records_ignored,
            "records_decoded": self.records_decoded,
            "records_skipped": self.records_skipped,
            "records_quarantined": self.records_quarantined,
            "entries_read": self.entries_read,
            "entries_skipped": self.entries_skipped,
            "events_produced": self.events_produced,
            "dropped_withdrawals": self.dropped_withdrawals,
            "unknown_attributes": self.unknown_attributes,
            "attribute_blocks": self.attribute_blocks,
            "attribute_blocks_distinct": self.attribute_blocks_distinct,
            "error_counts": dict(sorted(self.error_counts.items())),
            "first_timestamp": self.first_timestamp,
            "last_timestamp": self.last_timestamp,
            "out_of_order_records": self.out_of_order_records,
            "gap_count": self.gap_count,
            "gaps": [list(gap) for gap in self.gaps],
            "framing_error": self.framing_error,
            "aborted": self.aborted,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IngestReport":
        """Rebuild a report from :meth:`to_dict` output.

        The pipeline checkpoints a source's ingest report alongside the
        stream offset so a resumed monitor still knows how trustworthy
        its input was. ``ok`` is derived, not stored.
        """
        report = cls(
            source=str(data.get("source", "unknown")),
            kind=str(data.get("kind", "updates")),
        )
        for name in (
            "records_read",
            "records_ignored",
            "records_decoded",
            "records_skipped",
            "records_quarantined",
            "entries_read",
            "entries_skipped",
            "events_produced",
            "dropped_withdrawals",
            "unknown_attributes",
            "attribute_blocks",
            "attribute_blocks_distinct",
            "out_of_order_records",
            "gap_count",
        ):
            setattr(report, name, int(data.get(name, 0)))
        report.error_counts = {
            str(name): int(count)
            for name, count in dict(data.get("error_counts", {})).items()
        }
        report.first_timestamp = data.get("first_timestamp")
        report.last_timestamp = data.get("last_timestamp")
        report.gaps = [
            (float(gap[0]), float(gap[1])) for gap in data.get("gaps", [])
        ]
        report.framing_error = data.get("framing_error")
        report.aborted = bool(data.get("aborted", False))
        return report


class QuarantineWriter:
    """Append undecodable raw records to a JSONL side-channel.

    Each line holds the record's framing fields, the error that killed
    the decode, and the payload as hex — enough to replay the exact
    bytes later (:func:`read_quarantine`). The file opens lazily on the
    first write, so a clean load leaves no empty quarantine behind.
    """

    def __init__(self, path: Optional[str | Path]) -> None:
        self._path = Path(path) if path is not None else None
        self._handle: Optional[IO[str]] = None
        self.count = 0

    def write(self, record: MRTRecord, error: BaseException) -> None:
        if self._path is None:
            return
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
        line = json.dumps(
            {
                "t": record.timestamp,
                "type": record.type,
                "subtype": record.subtype,
                "error": type(error).__name__,
                "message": str(error),
                "payload": record.payload.hex(),
            },
            separators=(",", ":"),
        )
        self._handle.write(line + "\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_quarantine(path: str | Path) -> Iterator[MRTRecord]:
    """Replay a quarantine file as :class:`MRTRecord` objects.

    The records carry the exact original payload bytes, so they can be
    re-framed with :func:`repro.mrt.records.write_records` or pushed
    back through a (fixed) decoder.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            yield MRTRecord(
                timestamp=float(entry["t"]),
                type=int(entry["type"]),
                subtype=int(entry["subtype"]),
                payload=bytes.fromhex(entry["payload"]),
            )
