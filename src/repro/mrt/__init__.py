"""MRT (RFC 6396) and BGP wire-format (RFC 4271) codecs.

The paper's tools consumed live IBGP feeds; the public equivalent is the
RouteViews / RIPE RIS archives, distributed as MRT files. This package
implements the relevant wire formats from scratch — BGP UPDATE
encode/decode with the attributes the analyses use, MRT BGP4MP update
records, and TABLE_DUMP_V2 RIB snapshots — so recorded Internet data can
feed the same TAMP/Stemming pipeline as the simulator:

    from repro.mrt import load_updates, load_rib
    stream = load_updates("updates.20031015.0600.mrt")
    rex = load_rib("rib.20031015.0600.mrt")

Writers are included: simulated incidents can be exported as MRT for
other tools, and every reader is round-trip tested against them.
"""

from repro.mrt.bgp_codec import (
    BGPCodecError,
    UpdateDecoder,
    decode_update,
    encode_update,
)
from repro.mrt.records import (
    MRTError,
    MRTRecord,
    read_records,
    write_records,
)
from repro.mrt.ingest import (
    IngestError,
    IngestPolicy,
    IngestReport,
    IngestWarning,
    read_quarantine,
)
from repro.mrt.loader import (
    dump_rib,
    dump_updates,
    load_rib,
    load_updates,
    observe_update,
)

__all__ = [
    "BGPCodecError",
    "encode_update",
    "decode_update",
    "UpdateDecoder",
    "MRTError",
    "MRTRecord",
    "read_records",
    "write_records",
    "IngestError",
    "IngestPolicy",
    "IngestReport",
    "IngestWarning",
    "read_quarantine",
    "load_updates",
    "observe_update",
    "load_rib",
    "dump_updates",
    "dump_rib",
]
