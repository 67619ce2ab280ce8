"""Seeded fault injectors over bytes, MRT records and event streams.

Three levels, matching where real feeds break:

* **bytes** — the archive file itself: truncated downloads
  (:func:`truncate_bytes`), storage corruption (:func:`flip_bytes`).
* **records** — the MRT framing layer: malformed payloads
  (:func:`corrupt_payloads`, :func:`flip_attribute_bytes`), repeated
  deliveries (:func:`duplicate_records`), partial feeds
  (:func:`drop_records`, :func:`truncate_records`), out-of-order
  archives (:func:`reorder_records`).
* **events** — the decoded stream: lossy/repeating collectors
  (:func:`drop_events`, :func:`duplicate_events`), timestamp skew
  (:func:`reorder_events`), a monitor that stalls then floods
  (:func:`stall_then_burst`).

Every injector takes an explicit ``seed`` and derives all entropy from
``random.Random(seed)`` — same seed, same corruption, bit for bit
(the replay tests run every registered fault twice per seed, and a
completeness test requires every seeded public function to be
registered or be a plan helper). Injectors compose through
*plans*: ``[("flip-attrs", {"rate": 0.3}), ("drop-records", {})]``
applied via :func:`apply_plan_to_bytes` /
:func:`apply_plan_to_stream`, each step seeded from the master seed.
The same registry backs the ``repro faults`` CLI.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.collector.events import BGPEvent
from repro.collector.stream import EventStream
from repro.mrt.records import MRTRecord, read_records, write_records

#: Seeds derived for plan steps live below this bound.
_SEED_SPACE = 2**32

#: BGP4MP_MESSAGE_AS4 envelope (20 bytes) + BGP header (19) + the
#: withdrawn-routes length field (2): byte offsets at or past this point
#: in an update record's payload sit in the withdrawn/attribute/NLRI
#: region — flipping them corrupts route data rather than framing.
_ATTR_REGION_OFFSET = 41


# ----------------------------------------------------------------------
# Byte-level faults
# ----------------------------------------------------------------------


def truncate_bytes(
    data: bytes,
    *,
    keep_min: float = 0.3,
    keep_max: float = 0.9,
    seed: int,
) -> bytes:
    """Cut the tail off, as an interrupted archive download would.

    The cut point is drawn uniformly from ``[keep_min, keep_max]`` of
    the original length, so it usually lands mid-record and exercises
    the framing-error path, not just "fewer records".
    """
    if not 0.0 <= keep_min <= keep_max <= 1.0:
        raise ValueError("need 0 <= keep_min <= keep_max <= 1")
    rng = random.Random(seed)
    lo = int(len(data) * keep_min)
    hi = int(len(data) * keep_max)
    return data[: rng.randint(lo, hi)]


def flip_bytes(
    data: bytes,
    *,
    rate: float = 0.01,
    start: int = 0,
    seed: int,
) -> bytes:
    """XOR random bytes with random nonzero masks (storage rot).

    Each byte at or past *start* is corrupted independently with
    probability *rate*; the mask is never zero, so a selected byte
    always actually changes.
    """
    rng = random.Random(seed)
    corrupted = bytearray(data)
    for index in range(start, len(corrupted)):
        if rng.random() < rate:
            corrupted[index] ^= rng.randrange(1, 256)
    return bytes(corrupted)


# ----------------------------------------------------------------------
# Record-level faults
# ----------------------------------------------------------------------


def truncate_records(
    records: Sequence[MRTRecord],
    *,
    keep_min: float = 0.3,
    keep_max: float = 0.9,
    seed: int,
) -> list[MRTRecord]:
    """Keep a seeded-random prefix of the record list (clean cut)."""
    if not 0.0 <= keep_min <= keep_max <= 1.0:
        raise ValueError("need 0 <= keep_min <= keep_max <= 1")
    rng = random.Random(seed)
    lo = int(len(records) * keep_min)
    hi = int(len(records) * keep_max)
    return list(records[: rng.randint(lo, hi)])


def corrupt_payloads(
    records: Sequence[MRTRecord],
    *,
    rate: float = 0.2,
    byte_rate: float = 0.05,
    seed: int,
) -> list[MRTRecord]:
    """Flip bytes anywhere inside a fraction of record payloads.

    Each record is selected with probability *rate*; within a selected
    record every payload byte flips with probability *byte_rate*. The
    framing (headers, lengths) stays intact, so the file still reads as
    MRT — the damage surfaces at decode time.
    """
    rng = random.Random(seed)
    out: list[MRTRecord] = []
    for record in records:
        if record.payload and rng.random() < rate:
            payload = flip_bytes(
                record.payload,
                rate=byte_rate,
                seed=rng.randrange(_SEED_SPACE),
            )
            record = MRTRecord(
                timestamp=record.timestamp,
                type=record.type,
                subtype=record.subtype,
                payload=payload,
            )
        out.append(record)
    return out


def flip_attribute_bytes(
    records: Sequence[MRTRecord],
    *,
    rate: float = 0.2,
    flips: int = 2,
    seed: int,
) -> list[MRTRecord]:
    """Flip bytes in the attribute/NLRI region of BGP4MP updates.

    Targets offsets past the envelope and BGP header
    (:data:`_ATTR_REGION_OFFSET`), modeling a peer that emits malformed
    path attributes rather than a broken file: the MRT layer decodes
    fine and the damage lands in ``decode_update``. Records that are
    not updates, or too short to have an attribute region, pass through
    untouched.
    """
    rng = random.Random(seed)
    out: list[MRTRecord] = []
    for record in records:
        eligible = (
            record.is_bgp4mp_update
            and len(record.payload) > _ATTR_REGION_OFFSET
        )
        if eligible and rng.random() < rate:
            payload = bytearray(record.payload)
            for _ in range(flips):
                index = rng.randrange(_ATTR_REGION_OFFSET, len(payload))
                payload[index] ^= rng.randrange(1, 256)
            record = MRTRecord(
                timestamp=record.timestamp,
                type=record.type,
                subtype=record.subtype,
                payload=bytes(payload),
            )
        out.append(record)
    return out


def duplicate_records(
    records: Sequence[MRTRecord],
    *,
    rate: float = 0.1,
    seed: int,
) -> list[MRTRecord]:
    """Repeat a fraction of records in place (replayed deliveries)."""
    rng = random.Random(seed)
    out: list[MRTRecord] = []
    for record in records:
        out.append(record)
        if rng.random() < rate:
            out.append(record)
    return out


def drop_records(
    records: Sequence[MRTRecord],
    *,
    rate: float = 0.1,
    seed: int,
) -> list[MRTRecord]:
    """Silently lose a fraction of records (a lossy feed)."""
    rng = random.Random(seed)
    return [record for record in records if rng.random() >= rate]


def reorder_records(
    records: Sequence[MRTRecord],
    *,
    window: int = 4,
    seed: int,
) -> list[MRTRecord]:
    """Shuffle records within consecutive windows (bounded reordering).

    Models multi-threaded dump writers and merged feeds: records stray
    at most *window* positions from home, so the archive is locally
    scrambled but globally recognizable.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    rng = random.Random(seed)
    out: list[MRTRecord] = []
    for begin in range(0, len(records), window):
        chunk = list(records[begin : begin + window])
        rng.shuffle(chunk)
        out.extend(chunk)
    return out


# ----------------------------------------------------------------------
# Event-level faults
# ----------------------------------------------------------------------


def drop_events(
    stream: EventStream,
    *,
    rate: float = 0.1,
    seed: int,
) -> EventStream:
    """Lose a fraction of decoded events (collector-side loss)."""
    rng = random.Random(seed)
    return EventStream(
        event for event in stream if rng.random() >= rate
    )


def duplicate_events(
    stream: EventStream,
    *,
    rate: float = 0.1,
    seed: int,
) -> EventStream:
    """Repeat a fraction of events at their own timestamp."""
    rng = random.Random(seed)
    out: list[BGPEvent] = []
    for event in stream:
        out.append(event)
        if rng.random() < rate:
            out.append(event)
    return EventStream(out)


def reorder_events(
    stream: EventStream,
    *,
    rate: float = 0.3,
    max_shift: float = 5.0,
    seed: int,
) -> EventStream:
    """Jitter a fraction of event timestamps by up to ±*max_shift* s.

    Because :class:`EventStream` orders by timestamp, shifting
    timestamps is what genuinely reorders the analyzed stream — a
    shuffled append order alone would be re-sorted away.
    """
    rng = random.Random(seed)
    out: list[BGPEvent] = []
    for event in stream:
        if rng.random() < rate:
            shift = rng.uniform(-max_shift, max_shift)
            event = replace(event, timestamp=event.timestamp + shift)
        out.append(event)
    return EventStream(out)


def stall_then_burst(
    stream: EventStream,
    *,
    stall_start: float,
    stall_seconds: float,
    seed: int,
) -> EventStream:
    """A feed that stalls, then delivers the backlog in one burst.

    Events timestamped inside ``[stall_start, stall_start +
    stall_seconds)`` all arrive at the stall's end, in their original
    order (the stream's stable sort keeps equal timestamps in arrival
    order). *seed* is accepted for plan/registry uniformity; the skew
    itself is fully determined by the window.
    """
    if stall_seconds <= 0:
        raise ValueError("stall_seconds must be positive")
    stall_end = stall_start + stall_seconds
    out: list[BGPEvent] = []
    for event in stream:
        if stall_start <= event.timestamp < stall_end:
            event = replace(event, timestamp=stall_end)
        out.append(event)
    return EventStream(out)


# ----------------------------------------------------------------------
# Registry, plans, and file corruption (the CLI surface)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fault:
    """One registered fault class."""

    name: str
    level: str  # "bytes" | "records" | "events"
    func: Callable[..., object]
    params: tuple[str, ...]
    summary: str


FAULTS: dict[str, Fault] = {
    fault.name: fault
    for fault in (
        Fault(
            "truncate-bytes", "bytes", truncate_bytes,
            ("keep_min", "keep_max"),
            "cut the file's tail mid-record (interrupted download)",
        ),
        Fault(
            "flip-bytes", "bytes", flip_bytes,
            ("rate", "start"),
            "XOR random bytes anywhere in the file (storage rot)",
        ),
        Fault(
            "truncate-records", "records", truncate_records,
            ("keep_min", "keep_max"),
            "keep only a prefix of the records (clean cut)",
        ),
        Fault(
            "corrupt-payloads", "records", corrupt_payloads,
            ("rate", "byte_rate"),
            "flip bytes inside record payloads, framing intact",
        ),
        Fault(
            "flip-attrs", "records", flip_attribute_bytes,
            ("rate", "flips"),
            "flip bytes in the attribute/NLRI region of updates",
        ),
        Fault(
            "duplicate-records", "records", duplicate_records,
            ("rate",),
            "repeat records in place (replayed deliveries)",
        ),
        Fault(
            "drop-records", "records", drop_records,
            ("rate",),
            "silently lose records (lossy feed)",
        ),
        Fault(
            "reorder-records", "records", reorder_records,
            ("window",),
            "shuffle records within bounded windows",
        ),
        Fault(
            "drop-events", "events", drop_events,
            ("rate",),
            "lose decoded events (collector-side loss)",
        ),
        Fault(
            "duplicate-events", "events", duplicate_events,
            ("rate",),
            "repeat decoded events at their own timestamp",
        ),
        Fault(
            "reorder-events", "events", reorder_events,
            ("rate", "max_shift"),
            "jitter event timestamps (out-of-order delivery)",
        ),
        Fault(
            "stall-burst", "events", stall_then_burst,
            ("stall_start", "stall_seconds"),
            "stall a time window, deliver its backlog in one burst",
        ),
    )
}

#: One plan step: a registry name plus keyword parameters.
FaultStep = tuple[str, Mapping[str, float | int]]


def fault_names(level: str | None = None) -> list[str]:
    """Registered fault names, optionally filtered by level, sorted."""
    return sorted(
        name
        for name, fault in FAULTS.items()
        if level is None or fault.level == level
    )


def parse_fault_spec(text: str) -> FaultStep:
    """Parse CLI fault syntax ``name[:key=value,key=value...]``.

    Values parse as int when possible, else float. Unknown names and
    parameters raise :class:`ValueError` with the valid choices.
    """
    name, _, params_text = text.partition(":")
    name = name.strip()
    if name not in FAULTS:
        raise ValueError(
            f"unknown fault {name!r}; choose from"
            f" {', '.join(fault_names())}"
        )
    fault = FAULTS[name]
    params: dict[str, float | int] = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value_text = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"bad fault parameter {item!r} (want k=v)")
            if key not in fault.params:
                raise ValueError(
                    f"fault {name!r} takes {', '.join(fault.params)};"
                    f" got {key!r}"
                )
            value_text = value_text.strip()
            try:
                params[key] = int(value_text)
            except ValueError:
                params[key] = float(value_text)
    return name, params


def _step_seeds(seed: int, count: int) -> list[int]:
    """Per-step seeds derived from the master *seed* (order-stable)."""
    master = random.Random(seed)
    return [master.randrange(_SEED_SPACE) for _ in range(count)]


def apply_plan_to_bytes(
    data: bytes, plan: Sequence[FaultStep], *, seed: int
) -> bytes:
    """Run a byte/record-level fault plan over an MRT archive's bytes.

    Steps apply in order; record-level steps parse the current bytes
    into records and re-frame them afterwards. Event-level faults do
    not belong here (use :func:`apply_plan_to_stream`).
    """
    for step_seed, (name, params) in zip(
        _step_seeds(seed, len(plan)), plan
    ):
        fault = FAULTS[name]
        if fault.level == "bytes":
            data = fault.func(data, seed=step_seed, **params)  # type: ignore[assignment]
        elif fault.level == "records":
            records = list(read_records(io.BytesIO(data)))
            mutated = fault.func(records, seed=step_seed, **params)
            buffer = io.BytesIO()
            write_records(mutated, buffer)  # type: ignore[arg-type]
            data = buffer.getvalue()
        else:
            raise ValueError(
                f"fault {name!r} operates on events, not files;"
                " apply it to an EventStream"
            )
    return data


def apply_plan_to_stream(
    stream: EventStream, plan: Sequence[FaultStep], *, seed: int
) -> EventStream:
    """Run an event-level fault plan over a decoded stream."""
    for step_seed, (name, params) in zip(
        _step_seeds(seed, len(plan)), plan
    ):
        fault = FAULTS[name]
        if fault.level != "events":
            raise ValueError(
                f"fault {name!r} operates on {fault.level}, not events;"
                " apply it with apply_plan_to_bytes"
            )
        stream = fault.func(stream, seed=step_seed, **params)  # type: ignore[assignment]
    return stream


def corrupt_file(
    source: str | Path,
    destination: str | Path,
    plan: Sequence[FaultStep],
    *,
    seed: int,
) -> dict[str, int]:
    """Apply a fault plan to *source* and write *destination*.

    Returns ``{"bytes_in": ..., "bytes_out": ...}`` for reporting.
    """
    data = Path(source).read_bytes()
    corrupted = apply_plan_to_bytes(data, plan, seed=seed)
    Path(destination).write_bytes(corrupted)
    return {"bytes_in": len(data), "bytes_out": len(corrupted)}
