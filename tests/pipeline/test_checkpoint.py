"""Tests for checkpoint persistence and the incident log."""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsontext import EncodedList
from repro.pipeline.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointState,
    CheckpointStore,
)


def state_at(offset: int, reports: int = 0) -> CheckpointState:
    return CheckpointState(
        source={"type": "stream", "label": "t"},
        config={"window": 100.0},
        offset=offset,
        reports_emitted=reports,
        window={"boundary": 100.0, "window_index": 1, "buffer": []},
        tamp={"routes": [], "pulses": {}},
        stats={"window": {"admitted": 1}},
    )


class TestState:
    def test_json_round_trip(self):
        state = state_at(128, reports=3)
        restored = CheckpointState.from_json(state.to_json())
        assert restored == state

    def test_to_json_is_the_payload_on_one_line(self):
        state = state_at(128, reports=3)
        state.ingest = {"source": "a.mrt", "attribute_blocks": 7}
        state.incidents = {"incidents": [], "next_id": 1}
        text = state.to_json()
        assert "\n" not in text
        assert json.loads(text) == {
            "version": CHECKPOINT_VERSION,
            "source": state.source,
            "config": state.config,
            "offset": 128,
            "reports_emitted": 3,
            "window": state.window,
            "tamp": state.tamp,
            "stats": state.stats,
            "ingest": state.ingest,
            "incidents": state.incidents,
        }

    def test_reads_the_indented_layout_it_used_to_write(self):
        """v2 files written with ``indent=1`` (before the compact
        layout) and compact ones are the same checkpoint."""
        state = state_at(128, reports=3)
        compact = state.to_json()
        indented = json.dumps(json.loads(compact), sort_keys=True, indent=1)
        assert indented != compact and "\n" in indented
        assert CheckpointState.from_json(indented) == state
        assert CheckpointState.from_json(compact) == state

    def test_version_mismatch_refused(self):
        payload = json.loads(state_at(1).to_json())
        payload["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            CheckpointState.from_json(json.dumps(payload))

    def test_garbage_refused(self):
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointState.from_json("{not json")

    def test_matches_enforces_source_and_config(self):
        state = state_at(1)
        state.matches(state.source, state.config)  # same: silent
        with pytest.raises(CheckpointError, match="source mismatch"):
            state.matches({"type": "file"}, state.config)
        with pytest.raises(CheckpointError, match="config mismatch"):
            state.matches(state.source, {"window": 200.0})


class TestStore:
    def test_save_and_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(state_at(10))
        store.save(state_at(20))
        latest = store.latest()
        assert latest is not None and latest.offset == 20

    def test_empty_store_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_prunes_to_keep_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for offset in (10, 20, 30, 40):
            store.save(state_at(offset))
        names = [p.name for p in store.checkpoints()]
        assert names == [
            "checkpoint-000000000030.json",
            "checkpoint-000000000040.json",
        ]

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointStore(tmp_path, keep=0)

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(state_at(10))
        assert not list(tmp_path.glob("*.tmp"))

    def test_checkpoint_is_operator_readable_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(state_at(10))
        payload = json.loads(path.read_text())
        assert payload["offset"] == 10
        assert payload["version"] == CHECKPOINT_VERSION


class TestIncidentLog:
    def test_append_and_read(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append_report({"index": 0, "fingerprint": "a"})
        store.append_report({"index": 1, "fingerprint": "b"})
        assert [r["index"] for r in store.read_reports()] == [0, 1]

    def test_missing_log_reads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).read_reports() == []

    def test_truncate_drops_the_tail(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in range(5):
            store.append_report({"index": index})
        assert store.truncate_reports(2) == 3
        assert [r["index"] for r in store.read_reports()] == [0, 1]
        assert store.truncate_reports(2) == 0  # already short enough

    def test_truncate_cuts_by_lines_without_parsing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.incident_log.write_text('not json\n{"index": 1}\n{"ind')
        assert store.truncate_reports(1) == 2  # a line and a torn tail
        assert store.incident_log.read_text() == "not json\n"

    def test_truncate_refuses_a_log_shorter_than_count(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.incident_log.write_text('{"index": 0}\n{"ind')
        with pytest.raises(CheckpointError, match="1 complete lines"):
            store.truncate_reports(2)
        assert store.truncate_reports(1) == 1


class TestStaleTempFiles:
    def test_opening_the_store_removes_a_killed_saves_temp_file(
        self, tmp_path
    ):
        """A kill between a save's write and its rename leaves the
        ``.tmp`` file; the next store opened on the directory drops it
        and keeps the checkpoints."""
        store = CheckpointStore(tmp_path)
        kept = store.save(state_at(10))
        stale = tmp_path / "checkpoint-000000000020.json.tmp"
        stale.write_text(state_at(20).to_json(), encoding="utf-8")
        other = tmp_path / "notes.tmp"
        other.write_text("not ours", encoding="utf-8")
        reopened = CheckpointStore(tmp_path)
        assert not stale.exists()
        assert other.exists()
        assert reopened.checkpoints() == [kept]
        assert reopened.latest() == state_at(10)


#: JSON values with the encodings a reused text could get wrong:
#: non-ASCII and control characters, signed zeros, a float that prints
#: in exponent form, and ``True`` where ``1`` could be (equal, hash
#: alike, encode differently).
tricky_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, 1.0, True, 1, False, 0]),
    st.text(max_size=8),
    st.sampled_from(["é", "\x00\x1f\x7f", " \n", "\"\\", "日本"]),
)
json_values = st.recursive(
    tricky_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)
rows = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.sampled_from([1, True, 2, 0.0, -0.0, "x"]),
            "v": json_values,
        },
        optional={"w": json_values},
    ),
    max_size=6,
)
lines = st.lists(
    st.text(max_size=10) | tricky_scalars.map(json.dumps), max_size=6
)
#: Per item, what happens to it between the two saves.
fates = st.lists(st.sampled_from(("reuse", "replace", "drop")), max_size=6)


def encoded(items: list) -> EncodedList:
    """*items* as a producer hands them out: with their texts."""
    return EncodedList(items, [json.dumps(i, sort_keys=True) for i in items])


class TestEncoder:
    """A save's text is ``json.dumps(payload, sort_keys=True)``, also
    where it joins the texts its producers handed out."""

    @staticmethod
    def payload(state: CheckpointState) -> dict:
        return {
            "version": state.version,
            "source": state.source,
            "config": state.config,
            "offset": state.offset,
            "reports_emitted": state.reports_emitted,
            "window": state.window,
            "tamp": state.tamp,
            "stats": state.stats,
            "ingest": state.ingest,
            "incidents": state.incidents,
        }

    @settings(max_examples=100, deadline=None)
    @given(
        first_rows=rows,
        first_lines=lines,
        row_fates=fates,
        line_fates=fates,
        new_rows=rows,
        new_lines=lines,
        extras=st.dictionaries(st.text(max_size=4), json_values, max_size=3),
        int_keyed=st.dictionaries(st.integers(0, 9), json_values, max_size=3),
        rewrite=json_values,
    )
    def test_two_consecutive_saves(
        self,
        first_rows,
        first_lines,
        row_fates,
        line_fates,
        new_rows,
        new_lines,
        extras,
        int_keyed,
        rewrite,
    ):
        state = state_at(10, reports=2)
        state.window = {**extras, "buffer": first_lines}
        state.tamp = {"routes": encoded(first_lines), "pulses": extras}
        state.ingest = {str(k): v for k, v in int_keyed.items()}
        state.stats = {"window": {"admitted": 3}, "tamp": {}}
        incident_rows = list(first_rows)
        state.incidents = {"incidents": encoded(incident_rows), "next_id": 7}
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(tmp)
            path = store.save(state)
            expected = json.dumps(self.payload(state), sort_keys=True)
            assert path.read_text(encoding="utf-8") == expected

            # The next rows: a slot keeps its row, gets a new row with
            # the same id (same values with True and 1, 0.0 and -0.0
            # swapped, or other values), or goes.
            for index, fate in reversed(list(enumerate(row_fates))):
                if index >= len(incident_rows):
                    continue
                if fate == "drop":
                    del incident_rows[index]
                elif fate == "replace":
                    old = incident_rows[index]
                    incident_rows[index] = {
                        "id": old["id"],
                        "v": swapped(old["v"]) if index % 2 else rewrite,
                    }
            incident_rows.extend(new_rows)
            kept_lines = [
                line
                for line, fate in zip(first_lines, line_fates)
                if fate == "reuse"
            ]
            replaced = [
                line + "\x01"
                for line, fate in zip(first_lines, line_fates)
                if fate == "replace"
            ]
            second_lines = kept_lines + replaced + new_lines
            state.offset = 20
            state.tamp = {
                "routes": encoded(second_lines),
                # Under a non-string key: left to json.dumps whole.
                "pulses": {0: encoded(new_lines)},
            }
            state.ingest = int_keyed or None
            state.incidents = {
                "incidents": encoded(incident_rows),
                "next_id": 7,
            }
            path = store.save(state)
            expected = json.dumps(self.payload(state), sort_keys=True)
            assert path.read_text(encoding="utf-8") == expected
            assert state.to_json() == expected

    def test_encoded_list_needs_one_text_per_item(self):
        with pytest.raises(ValueError, match="texts"):
            EncodedList([1, 2], ["1"])


def swapped(value):
    """*value* with ``True``/``1`` and ``0.0``/``-0.0`` exchanged: equal
    to it, and encoded differently."""
    if value is True:
        return 1
    if type(value) is int and value == 1:
        return True
    if type(value) is float and value == 0.0:
        return -value
    if isinstance(value, list):
        return [swapped(item) for item in value]
    if isinstance(value, dict):
        return {key: swapped(item) for key, item in value.items()}
    return value
