"""Tests for checkpoint persistence and the incident log."""

import json

import pytest

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
