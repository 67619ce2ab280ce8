"""The shard tag spliced into a held row text is the encoder's text.

``tag_shard`` adds ``"shard": k`` to a row's text without encoding the
row again. It must give exactly what ``json.dumps`` gives for the
tagged row, whatever the row's strings hold: quotes, backslashes,
non-ASCII text, and the very ``, "status": `` the splice looks for.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incidents import IncidentManager
from repro.incidents.lifecycle import (
    IncidentRecord,
    IncidentStatus,
    Transition,
)
from repro.incidents.manager import tag_shard

#: Pieces that trip a naive splice or a naive escape.
NASTY = (
    ', "status": ',
    '"status": "open"',
    '", "status": ',
    "\\",
    '\\"',
    '"',
    "é",
    "路由",
    " ",
    "\x00",
)

texts = st.lists(
    st.one_of(st.sampled_from(NASTY), st.text(max_size=6)), max_size=4
).map("".join)
numbers = st.floats(allow_nan=False, allow_infinity=False)
statuses = st.sampled_from([status.value for status in IncidentStatus])

transitions = st.builds(
    Transition,
    at=numbers,
    from_status=st.one_of(st.none(), statuses),
    to_status=statuses,
    reason=texts,
)

records = st.builds(
    IncidentRecord,
    incident_id=st.integers(1, 10**6),
    stem=st.tuples(texts, texts),
    stem_label=texts,
    status=st.sampled_from(list(IncidentStatus)),
    incident_class=texts,
    first_seen=numbers,
    last_seen=numbers,
    opened_at=numbers,
    resolved_at=st.one_of(st.none(), numbers),
    detected_window=st.integers(0, 10**6),
    windows_observed=st.integers(0, 10**6),
    peak_strength=st.integers(0, 10**6),
    best_rank=st.integers(1, 100),
    event_count=st.integers(0, 10**6),
    severity=numbers,
    severity_band=texts,
    reopen_count=st.integers(0, 100),
    prefixes=st.frozensets(texts, max_size=4),
    related_stems=st.lists(st.tuples(texts, texts), max_size=3).map(tuple),
    transitions=st.lists(transitions, max_size=3),
)


class TestTagShard:
    @settings(max_examples=300, deadline=None)
    @given(record=records)
    def test_the_splice_equals_the_encoder(self, record):
        """Through the manager's own encoding, as serving reads it."""
        manager = IncidentManager()
        manager.import_state({"incidents": [record.to_dict()]})
        (text,) = manager.export_rows().texts
        for shard in (0, 1, 17):
            assert tag_shard(text, shard) == json.dumps(
                dict(record.to_dict(), shard=shard), sort_keys=True
            )
